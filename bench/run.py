"""End-to-end benchmark for metra: one workload per run, closed loop, one process.

Run from the repository root:

    python3 bench/run.py --workload free_closure --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed``; metra only sees the
generated inputs, through its public functions.  Jobs run one after another
in rounds: a round is every job of the workload once, and rounds repeat
until ``--seconds`` have passed, so every run attempts whole rounds.  The
outputs of the first round are checked against computations made apart from
metra (``oracle.py``) and later rounds must reproduce them.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (``run_s``, ``job_ms.p50``, ``job_ms.p90``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` they are the per-layer
counts and self times recorded by ``tracing.py``, plus the tracing overhead.

Job times are wall times scaled to a reference machine speed.  The machine
is shared, and other tenants slow its CPUs by up to half for seconds to
minutes at a time, so every run also times a fixed calibration loop
(``calibrate``) between jobs and divides each job's wall time by the
calibration time around it over ``REFERENCE_CALIBRATION_S``; so are the
builds in ``setup_s``, while its import part, timed in fresh interpreters,
stays a plain wall time.  The raw wall times go to the run's detail file in
``bench/out``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy's thread pools are pinned to one thread before anything imports it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("free_closure", "workspace_lattice", "valuation_search")

IMPORT_SAMPLES = 7
BUILD_SAMPLES = 3
# The calibration loop runs before each round and after every CALIBRATE_EVERY
# seconds of jobs (after any longer job); REFERENCE_CALIBRATION_S is about its
# median time on the machine described in README.md.
CALIBRATE_EVERY = 0.25
REFERENCE_CALIBRATION_S = 0.00125
# job_ms.p90 needs at least ten jobs above it.
MIN_JOBS = 100

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import metra\n"
    "print(repr(time.perf_counter() - t))\n"
)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_metra():
    """Import metra from this checkout's ``src`` and nowhere else."""
    if not (SRC / "metra" / "__init__.py").is_file():
        fail(f"no metra sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import metra

    if Path(metra.__file__).resolve().parent != SRC / "metra":
        fail(f"imported metra from {metra.__file__}, not from {SRC}")
    return metra


def import_seconds() -> float:
    """Median time to import metra in a fresh interpreter (start-up excluded)."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


_CALIBRATION_KEYS = [(i, (j, i)) for i in range(60) for j in range(60)]
_CALIBRATION_TABLE = dict.fromkeys(_CALIBRATION_KEYS, 1)


def calibrate() -> float:
    """Seconds for a fixed loop of tuple hashing and dict lookups.

    It allocates no containers, so it does not move the garbage collector's
    schedule inside the jobs around it.
    """
    started = time.perf_counter()
    total = 0
    for _ in range(4):
        for key in _CALIBRATION_KEYS:
            total += _CALIBRATION_TABLE[key]
    return time.perf_counter() - started


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolation percentile of an already sorted list."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Loop:
    """Runs the workload's jobs in whole rounds and keeps their timings.

    Each job's wall time is also kept scaled by the machine speed around
    it: the mean of the calibrations just before and just after the run of
    jobs it belongs to, over ``REFERENCE_CALIBRATION_S``.
    """

    def __init__(self, workload, built):
        self.workload = workload
        self.jobs = workload.jobs(built)
        self.by_label: dict[str, list[float]] = {}
        self.scaled_jobs: list[float] = []
        self.round_seconds: list[float] = []
        self.scaled_rounds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.records = None
        self.digests = None
        self.mismatched_rounds = 0

    def _scale(self, pending: list[float], before: float) -> float:
        after = calibrate()
        speed = (before + after) / 2 / REFERENCE_CALIBRATION_S
        self.scaled_jobs += [took / speed for took in pending]
        self.scaled_rounds[-1] += sum(pending) / speed
        pending.clear()
        return after

    def one_round(self) -> float:
        total = 0.0
        records = []
        pending: list[float] = []
        self.scaled_rounds.append(0.0)
        before = calibrate()
        for label, fn in self.jobs:
            started = time.perf_counter()
            try:
                out, error = fn(), None
            except Exception as err:  # a failed job is data: counted, then checked
                out, error = None, err
            took = time.perf_counter() - started
            total += took
            pending.append(took)
            self.by_label.setdefault(label, []).append(took)
            self.attempted += 1
            if error is not None:
                self.failed += 1
                records.append((label, None, (type(error).__name__, str(error))))
            else:
                records.append((label, self.workload.capture(label, out), None))
            del out
            if sum(pending) >= CALIBRATE_EVERY:
                before = self._scale(pending, before)
        if pending:
            self._scale(pending, before)
        digests = [(label, self.workload.digest(rec) if rec is not None else None, err)
                   for label, rec, err in records]
        if self.records is None:
            self.records, self.digests = records, digests
        elif digests != self.digests:
            self.mismatched_rounds += 1
        self.round_seconds.append(total)
        return total

    def run(self, seconds: float) -> None:
        started = time.perf_counter()
        while True:
            self.one_round()
            if time.perf_counter() - started >= seconds and self.attempted >= MIN_JOBS:
                return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_metra()
    metra_import = import_seconds() if args.trace == 0 else None
    workload = importlib.import_module(args.workload)
    OUT.mkdir(exist_ok=True)
    inputs = workload.generate(args.seed, OUT / f"{args.workload}-{args.seed}")

    builds, scaled_builds, built = [], [], None
    for _ in range(BUILD_SAMPLES):
        before = calibrate()
        started = time.perf_counter()
        built = workload.build(inputs)
        builds.append(time.perf_counter() - started)
        speed = (before + calibrate()) / 2 / REFERENCE_CALIBRATION_S
        scaled_builds.append(builds[-1] / speed)

    loop = Loop(workload, built)
    gc.collect()
    detail = {"round_s": loop.round_seconds}
    if args.trace:
        import tracing

        # One untraced round first: it warms up and gives the base for the
        # tracing overhead.  The traced round that follows gives the counts.
        plain = loop.one_round()
        tracer = tracing.Tracer(callers=[workload])
        with tracer:
            traced = loop.one_round()
        metrics = tracer.metrics()
        metrics["tracing.overhead_s"] = {"value": traced - plain, "unit": "s"}
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
    else:
        loop.run(args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        jobs = sorted(t for times in loop.by_label.values() for t in times)
        scaled = sorted(loop.scaled_jobs)
        metrics = {
            "run_s": {"value": statistics.median(loop.scaled_rounds), "unit": "s"},
            "job_ms.p50": {"value": percentile(scaled, 0.5) * 1000.0, "unit": "ms"},
            "job_ms.p90": {"value": percentile(scaled, 0.9) * 1000.0, "unit": "ms"},
            "setup_s": {"value": metra_import + statistics.median(scaled_builds), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        detail["raw_wall"] = {
            "run_s": statistics.median(loop.round_seconds),
            "job_ms.p50": percentile(jobs, 0.5) * 1000.0,
            "job_ms.p90": percentile(jobs, 0.9) * 1000.0,
            "setup_s": metra_import + statistics.median(builds),
        }
        detail["speed_factor"] = statistics.median(loop.round_seconds) / statistics.median(loop.scaled_rounds)
    detail["job_ms"] = {k: [t * 1000.0 for t in v] for k, v in loop.by_label.items()}

    problems = workload.check(inputs, loop.records)
    if loop.mismatched_rounds:
        problems.append(f"{loop.mismatched_rounds} rounds gave other outputs than the first")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for label, _, error in loop.records:
        if error is not None:
            print(f"job {label} failed: {error[0]}: {error[1]}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    with open(OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json", "w") as handle:
        json.dump({**result, **detail}, handle, indent=1)
    print(json.dumps(result))
    return 0


def fixed_layout() -> None:
    """Turn off address randomisation for the interpreter exec'd next.

    What ``setarch -R`` does, for this process only.  On Python 3.11
    ``hash(None)`` is its address, and ``hash(INF)`` with it, so set orders
    of distances, and the traced comparison counts, vary between processes
    unless the address does not.  Where the call is refused, runs still work
    and only those counts may vary.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | 0x0040000)  # ADDR_NO_RANDOMIZE
    except (OSError, AttributeError):
        pass


if __name__ == "__main__":
    # String hashing and the address layout are fixed so that set and dict
    # orders, and with them the traced call counts, repeat from run to run.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        fixed_layout()
        os.execv(sys.executable, [sys.executable, *sys.argv])
    raise SystemExit(main())
