"""Tracing overhead: each workload's ``campaign_s`` untraced and traced.

    python3 servicebench/overhead.py [--seed 1] [--seconds 10] [WORKLOAD ...]

Runs ``run.py`` once with ``--trace 0`` and once with ``--trace 1`` per
workload (same seed) and prints one row per workload: the untraced
``campaign_s``, the traced one (``trace.campaign_s``), and their ratio.
Exits non-zero when a run fails; ``run.py`` itself fails a traced run
that lacks a per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"{workload} --trace {trace} exited "
                         f"{completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)
    print(f"{'workload':16s} {'campaign_s':>11s} {'traced':>11s} "
          f"{'overhead':>9s}")
    for workload in args.workloads:
        plain = run(workload, args.seed, args.seconds, 0)["metrics"]
        traced = run(workload, args.seed, args.seconds, 1)["metrics"]
        base = plain["campaign_s"]["value"]
        with_trace = traced["trace.campaign_s"]["value"]
        print(f"{workload:16s} {base:11.4f} {with_trace:11.4f} "
              f"{(with_trace / base - 1) * 100:+8.1f}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
