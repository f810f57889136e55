"""Euler-Maruyama simulation of the joint (x, y) dynamics.

    dx = -sigma^2/2 dt + sigma dW,   dy = -lam y dt + b sigma dW,

with one shared Brownian driver.  Paths are generated in fixed blocks of
4096, each block drawing from its own counter-based generator keyed by
(seed, phase, block index).  Antithetic pairing interleaves +Z/-Z partners
as adjacent paths.  The integrated variance is tracked alongside x so the
martingale part xi = x + ivar/2 is available exactly on the step grid.

The paths are cut into super-blocks of up to 8 consecutive blocks,
ceil(blocks / 8) of them as even as np.array_split makes them, so every
NumPy call in a step covers tens of thousands of paths.  The partition
depends on the path count alone.  Up to QHR_THREADS threads step the
super-blocks, one thread each at a time.  Each super-block reads its
normals from a two-chunk ring (_Ring, at most _RING_BYTES): every block
draws the next chunk of steps from its own generator in one call, as a
task on one shared queue that any thread not stepping serves, and that a
stepper serves while its own next chunk is not drawn yet.  So a second
thread draws while the first steps even when all paths fit in one
super-block, and the drawing, which releases the GIL, overlaps the
stepping.  Each block draws the same normals in the same order as a draw
per step, and the super-blocks, and so every contraction, are the same
at any thread count: the results are bit-identical across thread counts
by construction.

Inside a super-block the state is held component-major, y with shape
(p, n), and each step runs in preallocated buffers: one product
[Gamma'; Lambda] y gives Gamma' y and Lambda y, 2 beta' y is its own
product, the quadratic is summed over components in order, the floor is
tested with one minimum, and the Gamma' y rows serve as scratch for the
rest of the step (y += b shock - (Lambda y) dt runs over all components
at once).  A short final block keeps row-major contractions on its own
(y' [Gamma | Lambda'] and y' 2 beta), because BLAS rounds the ragged end
of a short matrix differently.  For p = 1 the contractions are single
products, so one broadcast multiply of the column [2 beta; Gamma; Lambda]
into y fills sig2's row and both contracted rows; numpy's matmul takes a
slow non-BLAS loop when the inner dimension is 1, and an elementwise
product has no ragged end, so p = 1 needs no tail.  For p <= 2 the
results are bit-identical to a row-major step over each block alone
(tests/test_mc.py keeps that step as the reference); for p >= 3 BLAS and
einsum may order the contractions differently, and results differ from it
at rounding level (a few 1e-16 relative).  BLAS itself runs on one thread
(importing qhr.linalg pins it), so each p >= 3 contraction runs on the
thread that calls it, and no second thread pool competes with the
QHR_THREADS threads for the cores.

A stationary start is drawn by a burn-in on its own random streams (phase
_PHASE_BURNIN), so main-phase draws are untouched.  By default the burn-in
starts from the moment-matched Gaussian of the stationary law, drawn per
block on the streams of phase _PHASE_START, and runs the shortest number of
steps after which the moment system puts every stationary moment of degree
1..4 within BURN_IN_TOL of its limit (default_burn_in); an explicit burn-in
starts from zero.  The burn-in advances y alone: x and the integrated
variance are neither updated nor stored, and each super-block writes its
terminal y straight into the (n_paths, p) result.  Its y is bit-identical
to what a full run over the same draws would reach, and its floored steps
are reported apart from the main phase's, with its length and residual
(BurnIn, on PathBatch.burn_in).

Every time the engine reads (the horizon, the probes, the maturities, the
burn-in and each snapshot lookup) becomes a step by one rule, _step:
round(t * steps_per_year), halves to even, so T = 0.25 at 250 steps a year
is step 62 (0.248), and time_index finds the row of exactly that step.

Snapshots go to a sink that runs on the thread that steps each super-block
(stream): simulate's sink stores them in a PathBatch, while pricing and the
CLI summary fold each snapshot into BlockStats and keep no (times, paths)
array.  BlockStats holds one (count, mean, M2) partial per _BLOCK-path
block, each reduced from that block's paths alone, and merges them in block
order, so stored and streamed statistics are the same bits at every thread
count.
"""

from __future__ import annotations

import collections
import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .model import variance
from .moments import DEGREE, build_moment_system, monomials

_BLOCK = 4096
_SUPER = 8
# the bytes of one super-block's draw ring (two chunks of normals)
_RING_BYTES = 1 << 20
_PHASE_MAIN = 0
_PHASE_BURNIN = 1
_PHASE_START = 2
# the largest residual a default burn-in leaves (see default_burn_in)
BURN_IN_TOL = 1e-4
# the longest default burn-in, in steps, before the scan gives up
_BURN_IN_MAX_STEPS = 2**20


class ConfigInvalidError(ValueError):
    """Simulation configuration is inconsistent."""


@dataclass(frozen=True)
class StationaryInit:
    """Marker for drawing per-path starting offsets by burn-in simulation.

    burn_in None (the default) starts every path from the moment-matched
    Gaussian of the stationary law and burns in for default_burn_in's
    step count; a burn_in in years simulates from zero for that long (see
    stationary_init)."""

    burn_in: float = None


@dataclass(frozen=True)
class BurnIn:
    """The burn-in behind a stationary start: its length in steps, the
    moment residual it leaves (see default_burn_in; None for an explicit
    burn-in, which starts from zero), and the path-steps whose variance
    was floored."""

    steps: int
    residual: float
    floored_steps: int


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    horizon: float
    seed: int
    steps_per_year: int = 250
    antithetic: bool = True
    y0: object = None  # vector, (n_paths, p) array, or StationaryInit


@dataclass
class PathBatch:
    """Snapshots of simulated paths at requested times.

    Arrays are indexed [time, path(, component)].  The horizon is always the
    last snapshot.  xi(i) returns the martingale part of x at snapshot i.
    Pair-aware summary statistics live in mean_se.  floored_steps counts the
    path-steps whose variance was floored at zero; burn_in is the BurnIn
    behind a stationary start (None otherwise), and burn_in_floored_steps
    its floored path-steps (0 without one)."""

    params: object
    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    ivar: np.ndarray
    antithetic: bool
    seed: int
    steps_per_year: int
    floored_steps: int = 0
    burn_in: BurnIn = None

    @property
    def burn_in_floored_steps(self):
        return 0 if self.burn_in is None else self.burn_in.floored_steps

    @property
    def n_paths(self):
        return self.x.shape[1]

    @property
    def x_terminal(self):
        return self.x[-1]

    @property
    def y_terminal(self):
        return self.y[-1]

    def xi(self, i):
        return self.x[i] + 0.5 * self.ivar[i]

    def sigma2(self, i):
        return variance(self.params, self.y[i])

    def time_index(self, t):
        """Snapshot row of the step that t snaps to (see time_index)."""
        return time_index(self.times, t, self.steps_per_year)

    def mean_se(self, values):
        """Mean and standard error over paths (last axis), reduced by
        BlockStats: pair means under antithetic pairing, one partial per
        block, merged in block order.  A streamed run that folds the same
        values gets the same bits."""
        v = np.asarray(values, dtype=float)
        stats = BlockStats(v.shape[:-1], v.shape[-1], self.antithetic)
        stats.add((), 0, v)
        return stats.result()


class BlockStats:
    """Mean and standard error over paths of an array of statistics, kept
    as one (count, mean, M2) partial per _BLOCK-path block.

    The sampling unit is the antithetic pair mean with pairing, and the
    path without.  A block's partial is reduced from its own units in two
    passes (their mean, then their summed squared deviations from it), so
    it does not depend on which thread reduced the block or on whether its
    values were stored or streamed.  result() merges the partials in block
    order by the update of Chan, Golub & LeVeque (1983, "Algorithms for
    computing the sample variance"), so the statistics do not depend on
    the thread count either.  Distinct blocks may be added from distinct
    threads."""

    def __init__(self, shape, n_paths, antithetic):
        """Statistics of the given shape (a tuple) over n_paths paths."""
        self.n_paths = n_paths
        self.antithetic = antithetic
        # one column per block; NaN marks a block that was never added
        partials = tuple(shape) + (-(-n_paths // _BLOCK),)
        self._mean = np.full(partials, np.nan)
        self._m2 = np.full(partials, np.nan)

    def add(self, index, lo, values):
        """Fold values[..., i], the value of path lo + i, into the
        statistics that index selects (values' leading axes are theirs).
        lo is a block boundary, and values run to a block boundary or to
        n_paths.  values is read only while add runs."""
        # the units are C-contiguous, so each block reduces along a
        # contiguous row whatever the layout of values
        v = np.asarray(values, dtype=float)
        if self.antithetic:
            v = np.add(v[..., 0::2], v[..., 1::2], order="C")
            v *= 0.5
        else:
            v = np.ascontiguousarray(v)
        per = _BLOCK // 2 if self.antithetic else _BLOCK
        lead, m = v.shape[:-1], v.shape[-1]
        full = m // per * per
        key = index if isinstance(index, tuple) else (index,)
        block = lo // _BLOCK
        pieces = [v[..., :full].reshape(lead + (-1, per))] if full else []
        if full < m:
            pieces.append(v[..., None, full:])
        for units in pieces:
            # units.mean(axis=-1), without its Python wrapper
            mean = np.add.reduce(units, axis=-1) / units.shape[-1]
            dev = units - mean[..., None]
            np.multiply(dev, dev, out=dev)
            cols = key + (Ellipsis, slice(block, block + units.shape[-2]))
            self._mean[cols] = mean
            self._m2[cols] = np.add.reduce(dev, axis=-1)
            block += units.shape[-2]

    def result(self):
        """The mean and the standard error of every statistic, arrays of
        the statistics' shape (scalars for shape ())."""
        paths = [min(_BLOCK, self.n_paths - lo)
                 for lo in range(0, self.n_paths, _BLOCK)]
        units = [k // 2 for k in paths] if self.antithetic else paths
        n = units[0]
        mean = self._mean[..., 0].copy()
        m2 = self._m2[..., 0].copy()
        for b in range(1, len(units)):
            k = units[b]
            total = n + k
            delta = self._mean[..., b] - mean
            mean += delta * (k / total)
            m2 += self._m2[..., b] + delta * delta * (n * k / total)
            n = total
        return mean[()], (np.sqrt(m2 / (n - 1)) / math.sqrt(n))[()]


def _step(t, steps_per_year, name, first):
    """The step that time t snaps to, round(t * steps_per_year) with halves
    to even: the one rule by which the engine turns a time into a step.
    Raises ConfigInvalidError, naming t as name, unless t is finite and
    snaps to step first or later."""
    if not math.isfinite(t):
        raise ConfigInvalidError(f"{name} must be finite, got {t}")
    step = int(round(float(t) * steps_per_year))
    if step < first:
        raise ConfigInvalidError(
            f"{name} {t} snaps to step {step} at {steps_per_year} steps a "
            f"year, before step {first}")
    return step


def time_index(times, t, steps_per_year):
    """Row of the snapshot times that holds the step t snaps to; KeyError
    if no row does."""
    step = _step(t, steps_per_year, "time", 0)
    steps = [_step(u, steps_per_year, "snapshot time", 0) for u in times]
    if step not in steps:
        raise KeyError(f"no snapshot at t={t} (step {step})")
    return steps.index(step)


def _block_rng(seed, phase, block):
    k0 = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    k1 = np.uint64(((int(phase) & 0xFFFFFFFF) << 32) | (int(block) & 0xFFFFFFFF))
    return np.random.Generator(np.random.Philox(key=np.array([k0, k1],
                                                             dtype=np.uint64)))


def _n_threads():
    """QHR_THREADS, or by default the number of CPUs this process may run
    on (os.cpu_count() where the affinity is unknown), at most 8."""
    env = os.environ.get("QHR_THREADS", "").strip()
    if not env:
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count())
        return min(8, cpus or 1)
    if not (env.isascii() and env.isdigit()) or int(env) < 1:
        raise ConfigInvalidError(
            f"QHR_THREADS must be a positive integer, got {env!r}")
    return int(env)


def _resolve_y0(params, cfg):
    """The (n_paths, p) start states and the BurnIn that drew them (None
    without a stationary start)."""
    p = params.p
    y0 = cfg.y0
    if isinstance(y0, StationaryInit):
        return stationary_init(params, y0.burn_in, cfg, return_burn_in=True)
    if y0 is None:
        return np.zeros((cfg.n_paths, p)), None
    arr = np.asarray(y0, dtype=float)
    if not np.isfinite(arr).all():  # the variance floor cannot catch NaN
        raise ConfigInvalidError("y0 must be finite")
    if arr.ndim == 1:
        if arr.shape != (p,):
            raise ConfigInvalidError(f"y0 vector must have length {p}")
        return np.tile(arr, (cfg.n_paths, 1)), None
    if arr.shape != (cfg.n_paths, p):
        raise ConfigInvalidError("per-path y0 must be (n_paths, p)")
    return arr.copy(), None


def _check_cfg(cfg):
    if cfg.n_paths < 1:
        raise ConfigInvalidError("n_paths must be positive")
    if cfg.antithetic and cfg.n_paths % 2:
        raise ConfigInvalidError("n_paths must be even with antithetic pairs")
    if cfg.steps_per_year < 1:
        raise ConfigInvalidError("steps_per_year must be >= 1")


def _euler_block(params, y, n_steps, dt, normals, antithetic, snap_rows,
                 record):
    """Advance one super-block of paths in place and return the number of
    floored variance steps.

    y is component-major, shape (p, n).  normals(z) returns an iterator
    that yields, at each step, the (src, dst) pairs that carry the step's
    standard normals (one per path, or per antithetic pair, in path order)
    into z: dst are views of z and src arrays of the same shapes (see
    _Ring.steps).  At each snapshot step, record(row, x, y, ivar) gets
    the state in the working buffers, which it must neither keep nor
    modify.  With record None (the burn-in, which asks for no snapshots)
    only y is advanced: x and ivar are neither updated nor passed on, and y
    is left at its terminal state."""
    p, nb = y.shape
    n_base = nb // 2 if antithetic else nb
    alpha = params.alpha
    beta2 = 2.0 * params.beta
    # [Gamma'; Lambda] y in one product; the tail uses y' [Gamma | Lambda']
    stacked = np.vstack([params.gamma_mat.T, params.lam])
    stacked_rm = np.ascontiguousarray(stacked.T)
    b = params.b[:, None]
    sqdt = math.sqrt(dt)
    half = 0.5 * dt
    track_x = record is not None
    if track_x:
        x = np.zeros(nb)
        ivar = np.zeros(nb)
    shock = np.empty(nb)
    bad = np.empty(nb, dtype=bool)
    # rows holds sig2 in row 0, then contracted: Gamma' y in its rows
    # [0, p) and Lambda y in rows [p, 2p).  Once sig2 is formed the Gamma' y
    # rows are free: contracted's row 0 serves as scratch (and holds the
    # normals before they are interleaved) and all p rows take the b shock
    # - (Lambda y) dt increment.  For p = 1 one broadcast product of the
    # column coef = [2 beta; Gamma; Lambda] into y fills all three rows.
    coef = np.vstack([beta2, stacked])
    rows = np.empty((2 * p + 1, nb))
    sig2 = rows[0]
    contracted = rows[1:]
    quad = contracted[:p]
    lam_y = contracted[p:]
    tmp = contracted[0]
    # normals land in shock directly unless they are interleaved into it
    z = tmp[:n_base] if antithetic else shock
    steps = normals(z)
    # A short final sub-block keeps its own row-major contractions: BLAS
    # rounds the ragged end of a short matrix differently from the same
    # columns inside a long one.  Elementwise products have no such end.
    tail = nb % _BLOCK if p > 1 else 0
    y_tail = np.empty((tail, p))
    c_tail = np.empty((tail, 2 * p))
    floored = 0
    if 0 in snap_rows:
        record(snap_rows[0], x, y, ivar)
    for step in range(1, n_steps + 1):
        # sig2 = alpha + 2 beta'y + y' Gamma y, summed in this order, with
        # the quadratic summed over components in row 0
        if p == 1:
            np.multiply(coef, y, out=rows)
        else:
            np.matmul(beta2, y, out=sig2)
            np.matmul(stacked, y, out=contracted)
        if tail:
            np.copyto(y_tail, y[:, nb - tail:].T)
            np.matmul(y_tail, beta2, out=sig2[nb - tail:])
            np.matmul(y_tail, stacked_rm, out=c_tail)
            contracted[:, nb - tail:] = c_tail.T
        np.add(sig2, alpha, out=sig2)
        np.multiply(quad, y, out=quad)
        for k in range(1, p):
            np.add(tmp, quad[k], out=tmp)
        np.add(sig2, tmp, out=sig2)
        # min() is NaN if any entry is, which also fails the test and
        # leaves the decision to the elementwise floor
        if not sig2.min() >= 0.0:
            np.less(sig2, 0.0, out=bad)
            floored += int(np.count_nonzero(bad))
            np.copyto(sig2, 0.0, where=bad)
        # shock = sig * (sqrt(dt) z); scaling before the +z/-z interleave
        # is exact
        for src, dst in next(steps):
            np.multiply(src, sqdt, out=dst)
        if antithetic:
            shock[0::2] = z
            np.negative(z, out=shock[1::2])
        np.sqrt(sig2, out=tmp)
        np.multiply(tmp, shock, out=shock)
        if track_x:
            np.multiply(sig2, half, out=tmp)
            np.subtract(shock, tmp, out=tmp)
            np.add(x, tmp, out=x)
            np.multiply(sig2, dt, out=tmp)
            np.add(ivar, tmp, out=ivar)
        # y += b shock - (Lambda y) dt, over all components at once
        np.multiply(lam_y, dt, out=lam_y)
        np.multiply(b, shock, out=quad)
        np.subtract(quad, lam_y, out=quad)
        np.add(y, quad, out=y)
        if step in snap_rows:
            record(snap_rows[step], x, y, ivar)
    return floored


def _super_blocks(n_blocks):
    """Contiguous runs of sub-block indices, ceil(n_blocks / _SUPER) of
    them as even as np.array_split makes them, so each holds at most
    _SUPER sub-blocks.  The partition depends on the path count alone."""
    return np.array_split(np.arange(n_blocks), -(-n_blocks // _SUPER))


class _Aborted(Exception):
    """Raised in a worker when another worker has failed."""


class _Workers:
    """The threads of one _advance call, with a queue of super-blocks to
    step and one FIFO queue of draw tasks.

    A task fills one sub-block's share of a chunk of normals from the
    sub-block's own generator, with the GIL released.  Each thread steps
    super-blocks while any are left, then serves draw tasks until every
    super-block is done; a stepper also serves them (its own or another
    super-block's) while its own next chunk is not drawn yet.  The first
    exception in any thread stops the others at their next chunk, and run
    re-raises it once every thread has ended."""

    def __init__(self, runs):
        self._cond = threading.Condition()
        self._runs = collections.deque(runs)
        self._tasks = collections.deque()
        self._live = len(runs)
        self._failed = []

    def run(self, threads, step):
        """Call step(blocks) on every super-block, on this thread and up to
        threads - 1 more, and return when they have all ended."""
        started = []
        try:
            for _ in range(threads - 1):
                thread = threading.Thread(target=self._work, args=(step,))
                thread.start()
                started.append(thread)
            self._work(step)
        finally:
            for thread in started:
                thread.join()
        if self._failed:
            raise self._failed[0]

    def submit(self, ring, tasks):
        """Queue the (generator, out) draws of ring's next chunk."""
        with self._cond:
            ring.left = len(tasks)
            self._tasks.extend((rng, out, ring) for rng, out in tasks)
            self._cond.notify_all()

    def wait(self, ring):
        """Serve draw tasks until ring's last submitted chunk is drawn."""
        with self._cond:
            while ring.left:
                self._serve()

    def _serve(self):
        # under the lock: draw the oldest task, releasing the lock while
        # the normals are drawn, or wait for one
        if self._failed:
            raise _Aborted
        if not self._tasks:
            self._cond.wait()
            return
        rng, out, ring = self._tasks.popleft()
        self._cond.release()
        try:
            rng.standard_normal(out=out)
        finally:
            self._cond.acquire()
        ring.left -= 1
        if not ring.left:
            self._cond.notify_all()

    def _work(self, step):
        try:
            while True:
                with self._cond:
                    if self._failed or not self._runs:
                        break
                    blocks = self._runs.popleft()
                step(blocks)
                with self._cond:
                    self._live -= 1
                    if not self._live:
                        self._cond.notify_all()
            with self._cond:
                while self._live:
                    self._serve()
        except _Aborted:
            pass
        except BaseException as exc:  # re-raised by run
            with self._cond:
                self._failed.append(exc)
                self._tasks.clear()
                self._cond.notify_all()


class _Ring:
    """The normals of one super-block, drawn ahead into two chunks of size
    steps: while the stepper reads one chunk, the workers draw the next
    into the other.  Sub-block i's share of a chunk is a contiguous
    (size, units[i]) array, one row per step, filled by one call to the
    sub-block's own generator, so every sub-block draws the sequence of
    normals that a draw per step would.  The two chunks hold at most
    _RING_BYTES (one step each if that is more)."""

    def __init__(self, workers, rngs, units, n_steps):
        n_base = sum(units)
        self.size = max(1, min(n_steps, _RING_BYTES // (16 * n_base)))
        self.n_steps = n_steps
        self.left = 0
        self._workers = workers
        self._rngs = rngs
        self._units = units
        self._offsets = np.cumsum([0] + units[:-1]) * self.size
        self._chunks = np.empty((2, self.size * n_base))
        if n_steps:
            self._submit(0)

    def _submit(self, chunk):
        steps = min(self.size, self.n_steps - chunk * self.size)
        flat = self._chunks[chunk % 2]
        self._workers.submit(self, [
            (rng, flat[off:off + steps * u])
            for rng, u, off in zip(self._rngs, self._units, self._offsets)])

    def steps(self, z):
        """An iterator over the n_steps steps that yields, at each step,
        the (src, dst) pairs that carry its normals from the ring into z,
        the (n_base,) normals in path order: one pair for the sub-blocks
        of the first one's size, and one for a shorter last sub-block."""
        full = self._units.count(self._units[0])
        groups = [(full, self._units[0])]
        if full < len(self._units):
            groups.append((1, self._units[-1]))
        views = []
        for flat in self._chunks:
            at, pairs = 0, []
            for count, u in groups:
                src = flat[at * self.size:(at + count * u) * self.size]
                pairs.append((src.reshape(count, self.size, u),
                              z[at:at + count * u].reshape(count, u)))
                at += count * u
            views.append([[(src[:, k], dst) for src, dst in pairs]
                          for k in range(self.size)])
        n_chunks = -(-self.n_steps // self.size)
        for chunk in range(n_chunks):
            self._workers.wait(self)
            if chunk + 1 < n_chunks:
                self._submit(chunk + 1)
            yield from views[chunk % 2][:self.n_steps - chunk * self.size]


def _advance(params, cfg, phase, y, n_steps, snap_rows, sink):
    """Advance the (n_paths, p) start states y over n_steps steps in
    super-blocks on up to _n_threads() threads, and return the number of
    floored variance steps.  Each super-block's snapshots go to sink(row,
    lo, x, y, ivar) on the thread that steps it, lo being its first path
    (see stream).  With sink None only y is advanced, and its terminal
    state is written back into y."""
    n = cfg.n_paths
    dt = 1.0 / cfg.steps_per_year
    n_blocks = -(-n // _BLOCK)
    runs = _super_blocks(n_blocks)
    workers = _Workers(runs)
    floored = []

    def step(blocks):
        lo = int(blocks[0]) * _BLOCK
        hi = min((int(blocks[-1]) + 1) * _BLOCK, n)
        rngs = [_block_rng(cfg.seed, phase, int(bi)) for bi in blocks]
        paths = [min(_BLOCK, n - int(bi) * _BLOCK) for bi in blocks]
        units = [m // 2 for m in paths] if cfg.antithetic else paths
        ring = _Ring(workers, rngs, units, n_steps)
        yb = y[lo:hi].T.copy()
        record = None if sink is None else (
            lambda row, x, yr, ivar: sink(row, lo, x, yr, ivar))
        floored.append(_euler_block(params, yb, n_steps, dt, ring.steps,
                                    cfg.antithetic, snap_rows, record))
        if sink is None:
            y[lo:hi] = yb.T

    # a thread past one per super-block and one per draw task never works
    workers.run(min(_n_threads(), len(runs) + n_blocks), step)
    return sum(floored)


def _snap_steps(cfg, probes):
    """The sorted distinct snapshot steps: the probes' steps and the
    horizon's, the last."""
    spy = cfg.steps_per_year
    probes = () if probes is None else probes
    steps = [_step(t, spy, "probe", 0) for t in probes]
    n_steps = _step(cfg.horizon, spy, "horizon", 1)
    for t, step in zip(probes, steps):
        if step > n_steps:
            raise ConfigInvalidError(f"probe {t} snaps past the horizon "
                                     f"{cfg.horizon}")
    return sorted(set(steps) | {n_steps})


def snapshot_times(cfg, probes=None):
    """The times of the snapshot rows of a run of cfg with these probes:
    the probe times snapped to the step grid, and the horizon, sorted and
    distinct."""
    _check_cfg(cfg)
    dt = 1.0 / cfg.steps_per_year
    return np.array([s * dt for s in _snap_steps(cfg, probes)])


def stream(params, cfg, probes, sink):
    """Simulate cfg.n_paths joint paths as simulate does, handing each
    snapshot to sink instead of storing it.

    sink(row, lo, x, y, ivar) runs on the thread that steps each
    super-block, once for each row of snapshot_times(cfg, probes), with the
    state of paths [lo, lo + m): x and ivar of shape (m,) and y
    component-major, of shape (p, m).  lo is a multiple of _BLOCK and m
    runs to a block boundary or to n_paths, as BlockStats.add expects.  The
    arrays are the engine's working buffers: read them, do not keep or
    modify them.  Returns the floored variance steps of the paths and the
    BurnIn behind a stationary start (None otherwise)."""
    _check_cfg(cfg)
    steps = _snap_steps(cfg, probes)
    y0_all, burn_in = _resolve_y0(params, cfg)
    floored = _advance(params, cfg, _PHASE_MAIN, y0_all, steps[-1],
                       {s: i for i, s in enumerate(steps)}, sink)
    return floored, burn_in


def simulate(params, cfg, probes=None):
    """Simulate cfg.n_paths joint paths to cfg.horizon, snapshotting state
    at the probe times (snapped to the step grid) and at the horizon."""
    times = snapshot_times(cfg, probes)
    n, p = cfg.n_paths, params.p
    x = np.empty((times.size, n))
    y = np.empty((times.size, n, p))
    ivar = np.empty((times.size, n))

    def store(row, lo, xb, yb, ivarb):
        cols = slice(lo, lo + xb.size)
        x[row, cols] = xb
        y[row, cols] = yb.T
        ivar[row, cols] = ivarb

    floored, burn_in = stream(params, cfg, probes, store)
    return PathBatch(params=params, times=times, x=x, y=y, ivar=ivar,
                     antithetic=cfg.antithetic, seed=cfg.seed,
                     steps_per_year=cfg.steps_per_year, floored_steps=floored,
                     burn_in=burn_in)


def _gaussian_start(sys):
    """The moment-matched Gaussian N(mu, Sigma) of the stationary law as
    (mu, root): mu = E[y] and Sigma = E[yy'] - mu mu' read from m_infty,
    and root root' = Sigma from eigh, with rounding-level negative
    eigenvalues taken as 0 (Sigma may be only semidefinite)."""
    p = sys.p
    mu = sys.m_infty[:p]
    i, j = sys.quadratic_pairs
    cov = np.empty((p, p))
    cov[i, j] = cov[j, i] = sys.m_infty[p:sys.n_eta]
    w, v = np.linalg.eigh(cov - np.outer(mu, mu))
    return mu, v * np.sqrt(np.maximum(w, 0.0))


def _burn_in_length(sys, mu, root, steps_per_year):
    """The shortest step count n >= 0 whose residual r(n / steps_per_year)
    from N(mu, root root') is at most BURN_IN_TOL, and that residual (see
    default_burn_in).  The Gaussian's moments are exact: the 3-point
    Gauss-Hermite product rule integrates each axis up to degree 5.  The
    step grid is scanned in growing chunks, one propagation each, up to
    _BURN_IN_MAX_STEPS; a model that needs longer raises
    ConfigInvalidError.  A stationary law with s = 0 is the point mass at
    y = 0, which the Gaussian start already is: (0, 0.0)."""
    p = sys.p
    i, j = sys.quadratic_pairs
    s2 = sys.m_infty[p:sys.n_eta][i == j].max()
    if s2 <= 0.0:
        return 0, 0.0
    # nodes mu + root sqrt(3) k, k in {-1, 0, 1}^p, weights 1/6, 2/3, 1/6
    k = np.indices((3,) * p).reshape(p, -1).T - 1.0
    weights = np.prod(np.where(k == 0.0, 2.0 / 3.0, 1.0 / 6.0), axis=1)
    m0 = weights @ monomials(mu + math.sqrt(3.0) * k @ root.T, DEGREE)
    scale = math.sqrt(s2) ** sys.exponents.sum(axis=1)
    diff = m0 - sys.m_infty
    lo, size = 0, 256
    while lo <= _BURN_IN_MAX_STEPS:
        steps = np.arange(lo, min(lo + size, _BURN_IN_MAX_STEPS + 1))
        r = np.max(np.abs(sys._moment_action(diff, steps / steps_per_year))
                   / scale, axis=1)
        hit = np.flatnonzero(r <= BURN_IN_TOL)
        if hit.size:
            return int(steps[hit[0]]), float(r[hit[0]])
        lo, size = lo + size, min(2 * size, 4096)
    raise ConfigInvalidError(
        f"the default burn-in leaves a moment residual of {r[-1]:.3g} > "
        f"{BURN_IN_TOL:g} after {_BURN_IN_MAX_STEPS} steps; give an "
        "explicit burn_in")


def default_burn_in(params, steps_per_year):
    """The default burn-in of a stationary start at steps_per_year steps a
    year, as (n, r): the shortest step count n >= 0 whose residual r is at
    most BURN_IN_TOL (1e-4), from the moment-matched Gaussian start.

    The residual of a burn-in of length tau from moments m0 is the moment
    formula of a polynomial diffusion (Filipovic & Larsson 2016,
    "Polynomial diffusions and applications in finance"),

        r(tau) = max_i |(e^{-A_sym tau} (m0 - m_infty))_i| / s^deg(i),

    over the S coordinates i of degree 1..4, with s^2 the largest
    stationary E[y_i^2], so each degree is measured in units of the
    stationary scale.  It is a residual of the continuous moments without
    the variance floor: it neither sees the Euler scheme's O(dt) bias nor
    floored steps.  The Gaussian's moments m0 are exact at degrees 1 and 2,
    so only degrees 3 and 4 decay.  Raises NotStationaryError unless every
    moment block is stable, and ConfigInvalidError if no n up to
    _BURN_IN_MAX_STEPS meets the tolerance."""
    sys = build_moment_system(params)
    sys.require_stable()
    return _burn_in_length(sys, *_gaussian_start(sys), steps_per_year)


def _gaussian_draws(mu, root, cfg):
    """(n_paths, p) starts mu + root z, each _BLOCK-path block drawing its
    standard normals z (one row per path, or per antithetic pair) from its
    own generator of phase _PHASE_START, so the starts do not depend on the
    thread count.  Under antithetic pairing the partners start at
    mu + root z and mu - root z."""
    n = cfg.n_paths
    y = np.empty((n, mu.size))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        rng = _block_rng(cfg.seed, _PHASE_START, lo // _BLOCK)
        units = (hi - lo) // 2 if cfg.antithetic else hi - lo
        shift = rng.standard_normal((units, mu.size)) @ root.T
        if cfg.antithetic:
            y[lo:hi:2] = mu + shift
            y[lo + 1:hi:2] = mu - shift
        else:
            y[lo:hi] = mu + shift
    return y


def stationary_init(params, burn_in, cfg, *, return_burn_in=False):
    """Per-path starting offsets approximating the stationary law, drawn by
    a burn-in on a separate random stream (so main-phase draws are
    untouched).  cfg.horizon is not read.

    burn_in None starts every path from the moment-matched Gaussian
    N(mu, Sigma) of the stationary moments (drawn per block on its own
    stream, see _gaussian_draws) and burns in for default_burn_in's step
    count, the shortest that leaves a moment residual of at most
    BURN_IN_TOL.  A burn_in in years starts from zero and simulates for
    that long, snapped to a step count of at least 1 by _step.

    Returns the (n_paths, p) offsets, and with return_burn_in also the
    BurnIn: the step count, the residual (None for an explicit burn_in)
    and the number of path-steps whose variance was floored."""
    _check_cfg(cfg)
    sys = build_moment_system(params)
    sys.require_stable()
    if burn_in is None:
        mu, root = _gaussian_start(sys)
        n_steps, residual = _burn_in_length(sys, mu, root, cfg.steps_per_year)
        y = _gaussian_draws(mu, root, cfg)
    else:
        n_steps = _step(burn_in, cfg.steps_per_year, "burn-in", 1)
        residual = None
        y = np.zeros((cfg.n_paths, params.p))
    floored = _advance(params, cfg, _PHASE_BURNIN, y, n_steps, {}, None)
    if return_burn_in:
        return y, BurnIn(n_steps, residual, floored)
    return y


def estimate_cov_eta_xi2(params, r, cfg):
    """Monte Carlo estimate of Cov(eta_r, xi_r^2) from a stationary start.

    Simulates over the window r from cfg.y0, a StationaryInit, or from
    StationaryInit() when cfg.y0 is None (cfg.horizon is not read); a point
    or per-path start raises ConfigInvalidError.  Returns (cov, se) with one
    entry per S coordinate of eta (p + p(p+1)/2).  This is the simulation
    input of the squared-increment autocovariance formula; qhr does not
    compute it in closed form yet (ROADMAP item 1)."""
    init = StationaryInit() if cfg.y0 is None else cfg.y0
    if not isinstance(init, StationaryInit):
        raise ConfigInvalidError("y0 must be None or a StationaryInit: the "
                                 "estimate needs a stationary start")
    batch = simulate(params, replace(cfg, horizon=r, y0=init))
    eta = monomials(batch.y_terminal, 2)
    n = eta.shape[0]
    s = batch.xi(-1) ** 2
    d = (eta - eta.mean(axis=0)) * (s - s.mean())[:, None]
    cov, se = batch.mean_se(d.T)
    scale = n / (n - 1.0)
    return cov * scale, se * scale
