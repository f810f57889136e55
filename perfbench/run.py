"""qhr benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload {smile,stationary,analytics} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; qhr is imported from its ``src``.  The
workload runs in a fresh interpreter (``worker.py``) at the program's
default thread count (``QHR_THREADS`` is removed from its environment).
Set-up time is measured SETUP_SAMPLES times, each from starting a fresh
interpreter until qhr is imported and the inputs are ready, and reported as
the median.  With ``--trace 0`` the last line of stdout carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics,
which come from rounds run with spans installed around qhr's public
functions, plus ``python -X importtime`` figures.  Failed operations are
listed on stderr.  The result is also written to
``perfbench/work/result-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, "work")

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
DEADLINE_S = 170.0
WORKLOADS = ("smile", "stationary", "analytics")
IMPORTS = ("qhr", "qhr.scalar", "qhr.pricing", "qhr.linalg")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "part1_s": "s", "part2_s": "s"}


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env.pop("QHR_THREADS", None)
    return env


def _spawn(args, deadline):
    """Start a worker; return (setup seconds, remaining stdout lines)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or first.strip() != "READY":
        raise BenchError(f"worker {' '.join(args)} exited {code}")
    return setup, rest.splitlines()


def _import_times(deadline):
    """Cumulative import time of IMPORTS, median of IMPORT_SAMPLES runs."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import qhr"
    samples = {name: [] for name in IMPORTS}
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                             cwd=ROOT, env=_env(), capture_output=True,
                             text=True, check=True,
                             timeout=max(deadline - time.monotonic(), 1.0))
        for line in out.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {f"import.{name}_s": statistics.median(v)
            for name, v in samples.items()}


def run(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(SRC, "qhr", "__init__.py")):
        raise BenchError(f"no qhr sources under {SRC}")
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(WORKDIR, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed),
              "--workdir", WORKDIR]
    setups = [_spawn(common + ["--seconds", "0", "--trace", "0",
                               "--setup-only"], deadline)[0]
              for _ in range(0 if trace else SETUP_SAMPLES - 1)]
    setup, lines = _spawn(common + ["--seconds", str(seconds),
                                    "--trace", str(trace)], deadline)
    setups.append(setup)
    report = json.loads(lines[-1])
    for failure in report["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    correct = report["consistent"] and report.get("threads1_identical", True)
    times = report["times"]
    if trace:
        metrics = dict(report["layers"])
        metrics.update(_import_times(deadline))
        units = layers.UNITS
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": statistics.median(times["wall_s"]),
                   "peak_rss_mb": report["peak_rss_mb"],
                   "part1_s": report["parts"]["part1_s"],
                   "part2_s": report["parts"]["part2_s"]}
        units = END_TO_END
    result = {"correct": bool(correct), "attempted": report["attempted"],
              "failed": report["failed"],
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()}}
    with open(os.path.join(WORKDIR, f"result-{workload}.json"), "w") as fh:
        json.dump(dict(result, rounds=report["rounds"], times=times), fh,
                  indent=1)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError,
            KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
