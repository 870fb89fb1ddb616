"""ProFIPy service benchmark: one workload against a real ``serve``
process over HTTP.

    python3 servicebench/run.py --workload small-jobs --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``small-jobs``, ``large-tree``, ``etcd-case-study`` (see
``workloads.py``).  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` the same workload runs with the layer
wrappers on and prints the per-layer metrics.  Each metric gets its own
row (workload, name, value, unit); the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 when every oracle held, 1 when one failed, and 2 when the
program could not be run at all (for instance without ``src/``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402 - after the path setup above
    RUNS_DIR,
    SRC,
    FailureCounter,
    cpu_ticks,
    emit,
    emit_json,
    host_probe_ms,
    median,
    percentile,
    run_context,
    steal_share,
)

#: End-to-end metrics and their units, in report order.
END_TO_END = {
    "setup_s": "s",
    "campaign_s": "s",
    "experiments_per_s": "1/s",
    "recampaign_s": "s",
    "api_p50_ms": "ms",
    "api_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def end_to_end(outcome) -> dict[str, float]:
    first = outcome.first
    window = (max(run.finished for run in first)
              - min(run.submitted for run in first))
    return {
        "setup_s": median(outcome.setup_seconds),
        "campaign_s": median(run.seconds for run in first),
        "experiments_per_s": sum(len(run.experiments)
                                 for run in first) / window,
        "recampaign_s": outcome.recampaign_seconds,
        "api_p50_ms": percentile(outcome.api_latencies, 50) * 1000.0,
        "api_p90_ms": percentile(outcome.api_latencies, 90) * 1000.0,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="first-pass length of small-jobs; the other "
                             "workloads run a fixed amount of work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"servicebench: no program to measure: {SRC}/repro is "
              "missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layers import PER_LAYER, layer_metrics
    from tracing import (
        Tracer,
        install_connect_counter,
        install_fleet_wrappers,
        load_spans,
        self_times,
    )
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"servicebench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    emit_json("context", run_context(args.seed, args.workload,
                                     bool(args.trace)))
    tracer = None
    if args.trace:
        from repro.service.client import ProFIPyClient

        tracer = Tracer(process="client")
        install_fleet_wrappers(tracer, ProFIPyClient)
        install_connect_counter(tracer)
    counter = FailureCounter()
    run_dir = RUNS_DIR / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, run_dir,
                                       counter, tracer)
    outcome = None
    probe = [host_probe_ms()]
    ticks = cpu_ticks()
    try:
        outcome = workload.run()
    except Exception as error:  # noqa: BLE001 - reported as a failed run
        counter.record("run", False, f"{type(error).__name__}: {error}")
        traceback.print_exc(file=sys.stderr)

    correct = outcome is not None and counter.total_failed() == 0
    metrics: dict[str, dict] = {}
    if outcome is not None:
        marks = outcome.marks
        emit_json("phases_s", {
            "first_pass": marks["first_end"] - marks["setup_end"],
            "recampaign": outcome.recampaign_seconds,
            "metadata": marks["api_end"] - marks["recampaign_end"],
            "host_steal_share": steal_share(ticks, cpu_ticks()),
            "host_probe_ms": [*probe, host_probe_ms()]})
        emit_json("inputs", {"setups": outcome.setup_seconds,
                             "first_pass_campaigns": len(outcome.first),
                             "recampaigns": len(outcome.recampaign),
                             "api_requests": len(outcome.api_latencies),
                             **outcome.extra})
        rows = end_to_end(outcome)
        units = dict(END_TO_END)
        if args.trace:
            client_spans = run_dir / "client.spans.json"
            tracer.dump(client_spans)
            spans = load_spans([*outcome.fleet.spans, client_spans])
            rows, notes = layer_metrics(outcome, workload, spans,
                                        tracer.counters, workload.log,
                                        counter)
            units = dict(PER_LAYER)
            for note in notes:
                emit(f"# note: {note}")
            top = sorted(self_times(spans).items(), key=lambda item: -item[1])
            emit_json("self_time_s", {name: round(seconds, 4)
                                      for name, seconds in top[:15]})
        for name, unit in units.items():
            emit(f"{args.workload:16s} {name:40s} {rows[name]:14.6f} {unit}")
            metrics[name] = {"value": rows[name], "unit": unit}
    attempted = max(counter.total_attempted(), 1)
    emit(f"{args.workload:16s} {'failed_share':40s} "
         f"{counter.failed_share():14.6f} ratio "
         f"({counter.total_failed()} of {attempted}: "
         f"{json.dumps(counter.attempted, sort_keys=True)})")
    for error in counter.errors:
        emit(f"# failure: {error}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        RUNS_DIR.rmdir()  # only when no other run is using it
    except OSError:
        pass
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": counter.total_failed(),
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
