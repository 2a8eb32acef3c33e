"""Run every workload once and print its end-to-end metrics as a table.

    python3 bench/report.py --seed 1 --seconds 20

Each workload runs in its own process through ``run.py`` (tracing off), one
after another.  The table lists every metric with its unit, then the
operations attempted and failed and whether the outputs checked correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        if done.returncode != 0:
            print(f"{workload}: exit code {done.returncode}\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            print(f"{workload:18} {name:12} {metric['value']:12.4f} {metric['unit']}")
        print(f"{workload:18} attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        status |= 0 if result["correct"] else 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
