"""Per-layer metrics of a traced run.

Inputs: the spans of every process the benchmark started (client,
service, workers), the client's request log, and the experiment records
the program already keeps (``ExperimentResult.duration`` and each
round's per-command ``duration``), read back through the experiments
API.  The last source covers what the wrappers cannot reach: shard
workers of the process backend and the sandboxed interpreters.
"""

from __future__ import annotations

from common import median_or_zero
from tracing import durations

MS = 1000.0

#: Every per-layer metric with its unit, in report order.  A layer that
#: did no work on a workload reports 0.
PER_LAYER = {
    "service.request_ms.metadata": "ms",
    "service.request_ms.submit": "ms",
    "service.request_ms.fetch": "ms",
    "service.handler_ms": "ms",
    "service.connections_per_100_requests": "count",
    "service.queue_wait_s": "s",
    "service.requests_failed": "count",
    "service.blob_bytes_shipped": "bytes",
    "service.blob_sync_s": "s",
    "service.blob_dedup_ratio": "ratio",
    "service.shard_dispatch_ms": "ms",
    "service.stream_fetches": "count",
    "dsl.compile_ms": "ms",
    "scanner.scan_s": "s",
    "scanner.rescan_s": "s",
    "scanner.files_read": "count",
    "scanner.tree_hits": "count",
    "orchestrator.plan_ms": "ms",
    "orchestrator.coverage_s": "s",
    "orchestrator.experiment_ms": "ms",
    "orchestrator.generate_wait_ms": "ms",
    "orchestrator.stream_append_ms": "ms",
    "orchestrator.shard_merge_ms_per_record": "ms",
    "orchestrator.harness_errors": "count",
    "mutator.mutant_ms": "ms",
    "sandbox.image_build_ms": "ms",
    "sandbox.instantiate_ms": "ms",
    "sandbox.teardown_ms": "ms",
    "workload.service_start_ms": "ms",
    "workload.round_ms": "ms",
    "workload.command_ms": "ms",
    "workload.log_collect_ms": "ms",
    "analysis.report_ms": "ms",
    "stats.index_add_ms": "ms",
    "trace.campaign_s": "s",
    "trace.spans": "count",
}

#: Metrics read from the program's own experiment records when the
#: experiments ran where no wrapper reaches (process-backend shards).
FROM_RECORDS = ("orchestrator.experiment_ms", "workload.round_ms",
                "workload.command_ms")


def _within(spans, start: float, end: float) -> list[dict]:
    return [span for span in spans if start <= span["start"] < end]


def _per_campaign_ms(spans, name: str) -> list[float]:
    """Per campaign id, the summed duration of ``name`` spans (ms)."""
    totals: dict[str, float] = {}
    for span in spans:
        if span["name"] == name and span["end"] is not None:
            key = span["campaign"] or "?"
            totals[key] = totals.get(key, 0.0) + span["end"] - span["start"]
    return [seconds * MS for seconds in totals.values()]


def _ratio_ms(spans, name: str, attr: str) -> float:
    """Total ``name`` time divided by the total of ``attr`` (ms each)."""
    seconds = units = 0.0
    for span in spans:
        if span["name"] == name and span["end"] is not None:
            seconds += span["end"] - span["start"]
            units += span["attrs"].get(attr, 0)
    return seconds * MS / units if units else 0.0


def _attr_values(spans, name: str, attr: str) -> list[float]:
    return [span["attrs"][attr] for span in spans
            if span["name"] == name and attr in span["attrs"]]


def layer_metrics(outcome, workload, spans: list[dict],
                  counters: dict[str, float], log, counter
                  ) -> tuple[dict[str, float], list[str]]:
    """Every metric of :data:`PER_LAYER`, plus notes on where numbers
    came from."""
    marks = outcome.marks
    first = _within(spans, marks["setup_end"], marks["first_end"])
    again = _within(spans, marks["first_end"], marks["recampaign_end"])
    campaigns = _within(spans, marks["setup_end"], marks["recampaign_end"])
    # The other cold starts upload the same blobs to fleets of their own.
    live = _within(spans, marks["fleet_start"], marks["api_end"])
    experiments = [experiment
                   for run in outcome.first + outcome.recampaign
                   for experiment in run.experiments]
    requests = len(log.entries)
    values: dict[str, float] = {
        "service.request_ms.metadata": median_or_zero(
            log.seconds("metadata")) * MS,
        "service.request_ms.submit": median_or_zero(
            log.seconds("submit")) * MS,
        "service.request_ms.fetch": median_or_zero(
            log.seconds("fetch")) * MS,
        "service.handler_ms": median_or_zero(
            durations(spans, "service.handler")) * MS,
        "service.connections_per_100_requests": (
            100.0 * counters.get("http.connects", 0) / requests
            if requests else 0.0),
        "service.queue_wait_s": median_or_zero(
            run.job.started_at - run.job.submitted_at
            for run in outcome.first),
        "service.requests_failed": counter.failed_of("http"),
        "service.blob_bytes_shipped": sum(
            _attr_values(live, "service.blob_put", "bytes")),
        "service.blob_sync_s": sum(
            durations(live, "service.blob_put")
            + durations(live, "service.blob_missing")),
        "service.blob_dedup_ratio": outcome.extra.get("dedup_ratio", 0.0),
        "service.shard_dispatch_ms": median_or_zero(
            durations(spans, "service.shard_dispatch")) * MS,
        "service.stream_fetches": len(
            durations(spans, "service.stream_fetch")),
        "dsl.compile_ms": median_or_zero(
            durations(spans, "dsl.compile")) * MS,
        "scanner.scan_s": median_or_zero(durations(first, "scanner.scan")),
        "scanner.rescan_s": median_or_zero(durations(again, "scanner.scan")),
        "scanner.files_read": sum(
            _attr_values(again, "scanner.scan", "files_read")),
        "scanner.tree_hits": sum(
            _attr_values(campaigns, "scanner.scan", "tree_hits")),
        "orchestrator.plan_ms": median_or_zero(
            _per_campaign_ms(campaigns, "orchestrator.plan")),
        "orchestrator.coverage_s": median_or_zero(
            durations(spans, "orchestrator.coverage")),
        "orchestrator.generate_wait_ms": median_or_zero(
            durations(spans, "orchestrator.generate_wait")) * MS,
        "orchestrator.stream_append_ms": median_or_zero(
            durations(spans, "orchestrator.stream_append")) * MS,
        "orchestrator.shard_merge_ms_per_record": _ratio_ms(
            spans, "orchestrator.shard_merge", "records"),
        "orchestrator.harness_errors": sum(
            experiment.status == "harness_error"
            for experiment in experiments),
        "mutator.mutant_ms": _ratio_ms(spans, "mutator.generate", "mutants"),
        "sandbox.image_build_ms": median_or_zero(
            durations(spans, "sandbox.image_build")) * MS,
        "sandbox.instantiate_ms": median_or_zero(
            durations(spans, "sandbox.instantiate")) * MS,
        "sandbox.teardown_ms": median_or_zero(
            durations(spans, "sandbox.teardown")) * MS,
        "workload.service_start_ms": median_or_zero(
            durations(spans, "workload.service_start")) * MS,
        "workload.log_collect_ms": median_or_zero(
            durations(spans, "workload.log_collect")) * MS,
        "analysis.report_ms": median_or_zero(
            _per_campaign_ms(campaigns, "analysis.report")),
        "stats.index_add_ms": median_or_zero(
            durations(spans, "stats.index_add")) * MS,
        "trace.campaign_s": median_or_zero(
            run.seconds for run in outcome.first),
        "trace.spans": len(spans),
    }
    notes = []
    if workload.backend == "process":
        values["orchestrator.experiment_ms"] = median_or_zero(
            experiment.duration for experiment in experiments) * MS
        values["workload.round_ms"] = median_or_zero(
            round_result.duration for experiment in experiments
            for round_result in experiment.rounds) * MS
        values["workload.command_ms"] = median_or_zero(
            command.duration for experiment in experiments
            for round_result in experiment.rounds
            for command in round_result.commands) * MS
        notes.append(
            "from the program's experiment records (process-backend "
            "shard workers are out of the wrappers' reach): "
            + ", ".join(FROM_RECORDS)
            + "; mutator, sandbox, stream-append, generate-wait and "
              "service-start spans cover only the coverage pre-run and "
              "the service process")
    else:
        values["orchestrator.experiment_ms"] = median_or_zero(
            durations(spans, "orchestrator.experiment")) * MS
        values["workload.round_ms"] = median_or_zero(
            durations(spans, "workload.round")) * MS
        values["workload.command_ms"] = median_or_zero(
            durations(spans, "workload.command")) * MS
    missing = sorted(set(PER_LAYER) - set(values))
    if missing:
        raise AssertionError(f"per-layer metrics not computed: {missing}")
    idle = sorted(name for name, value in values.items() if value == 0)
    if idle:
        notes.append("no work on this workload (reported as 0): "
                     + ", ".join(idle))
    return values, notes
