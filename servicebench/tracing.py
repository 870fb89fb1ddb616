"""Span recording for the traced benchmark run.

The benchmark never edits the program: it wraps the public functions of
each layer, from outside, in the processes it starts itself (the load
generator, the service, and remote workers — see ``launch.py``).  A span
is ``(name, start, end, parent, campaign, attrs)``; spans live in memory
and are written out once, when the process ends.  Self time is a span's
duration minus the part of it that its child spans cover.

Importing this module has no side effects: a process-backend shard
worker spawned from the launcher imports it again and stays untraced.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_campaign(self, campaign: str | None) -> None:
        """Tag every span this thread opens from now on."""
        self._local.campaign = campaign

    def campaign(self) -> str | None:
        return getattr(self._local, "campaign", None)

    def begin(self, name: str, attrs: dict | None = None) -> int:
        stack = self._stack()
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else None,
            "campaign": self.campaign(),
            "thread": threading.get_ident(),
            "attrs": dict(attrs or {}),
        }
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        if attrs:
            span["attrs"].update(attrs)
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrapping ----------------------------------------------------------------

    def timed(self, function, name: str, after=None, campaign_of=None):
        """``function`` wrapped in a span; ``after(result, args, kwargs)``
        may return attrs to attach, ``campaign_of(args, kwargs)`` a
        campaign id to tag the calling thread with for the call."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            previous = tracer.campaign()
            if campaign_of is not None:
                tracer.set_campaign(campaign_of(args, kwargs))
            index = tracer.begin(name)
            attrs = {}
            try:
                result = function(*args, **kwargs)
                if after is not None:
                    attrs = after(result, args, kwargs) or {}
                return result
            except BaseException as error:
                attrs = {"error": type(error).__name__}
                raise
            finally:
                tracer.end(index, attrs)
                if campaign_of is not None:
                    tracer.set_campaign(previous)

        return wrapper

    def wrap(self, owner, attribute: str, name: str, after=None,
             campaign_of=None) -> None:
        """Replace ``owner.attribute`` (a module function, a method, or a
        classmethod) with a timed wrapper."""
        raw = owner.__dict__.get(attribute) if isinstance(owner, type) \
            else getattr(owner, attribute)
        if isinstance(raw, classmethod):
            wrapped = self.timed(raw.__func__, name, after, campaign_of)
            setattr(owner, attribute, classmethod(wrapped))
        else:
            function = getattr(owner, attribute)
            setattr(owner, attribute,
                    self.timed(function, name, after, campaign_of))

    def wrap_generator(self, owner, attribute: str, name: str) -> None:
        """Time each ``next()`` the consumer makes on a generator method:
        how long the consumer waits for the producer."""
        function = getattr(owner, attribute)
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            iterator = iter(function(*args, **kwargs))
            while True:
                index = tracer.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    tracer.end(index, {"exhausted": True})
                    return
                tracer.end(index)
                yield item

        setattr(owner, attribute, wrapper)

    # -- output ------------------------------------------------------------------

    def dump(self, path: str | Path) -> None:
        with self._lock:
            payload = {"process": self.process, "spans": list(self.spans)}
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_spans(paths) -> list[dict]:
    """Spans from every span file that exists, parent links rebased onto
    the merged list."""
    spans: list[dict] = []
    for path in paths:
        path = Path(path)
        if not path.is_file():
            continue
        payload = json.loads(path.read_text(encoding="utf-8"))
        offset = len(spans)
        for span in payload["spans"]:
            span = dict(span)
            span["process"] = payload["process"]
            if span["parent"] is not None:
                span["parent"] += offset
            spans.append(span)
    return spans


def durations(spans: list[dict], name: str) -> list[float]:
    """Seconds of every finished span called ``name``."""
    return [span["end"] - span["start"] for span in spans
            if span["name"] == name and span["end"] is not None]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    union of the intervals its (finished) children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None and span["end"] is not None:
            children.setdefault(parent, []).append(
                (span["start"], span["end"]))
    totals: dict[str, float] = {}
    for index, span in enumerate(spans):
        if span["end"] is None:
            continue
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(index, [])):
            start = max(start, cursor)
            end = min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        own = (span["end"] - span["start"]) - covered
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


# -- the layers ----------------------------------------------------------------


def _len_result(key: str):
    return lambda result, _args, _kwargs: {key: len(result)}


def _scan_stats(_result, _args, kwargs):
    cache = kwargs.get("cache")
    if cache is None:
        return {}
    stats = cache.stats()
    return {"files_read": stats.get("files_read", 0),
            "tree_hits": stats.get("tree_hits", 0)}


def _blob_bytes(_result, args, _kwargs):
    return {"bytes": len(args[2])}


def _campaign_of_run(args, _kwargs):
    config = args[0].config
    if config.results_path is not None:
        return Path(config.results_path).parent.name
    return config.name


def install_server_wrappers(tracer: Tracer) -> None:
    """Wrap the layer boundaries a service or worker process runs:
    dispatch, fault-model compile, scan, plan, coverage, mutate,
    sandbox, workload, stream, merge, report, stats index, and the
    fleet calls the remote backend makes."""
    from repro.analysis.report import CampaignReport
    from repro.faultmodel.model import FaultModel
    from repro.orchestrator import backends, campaign, coverage, executor
    from repro.orchestrator.executor import ExperimentExecutor
    from repro.orchestrator.plan import Plan
    from repro.orchestrator.stream import ExperimentStream
    from repro.sandbox.image import SandboxImage
    from repro.sandbox.sandbox import Sandbox
    from repro.service.api import ServiceAPI
    from repro.service.client import ProFIPyClient
    from repro.stats.store import StatsStore

    for method in sorted(vars(ServiceAPI)):
        if method.startswith("_") or method == "wait_job":
            continue
        if callable(getattr(ServiceAPI, method)):
            tracer.wrap(ServiceAPI, method, "service.handler")
    tracer.wrap(FaultModel, "compile", "dsl.compile")
    tracer.wrap(campaign.Campaign, "run", "orchestrator.campaign",
                campaign_of=_campaign_of_run)
    tracer.wrap(campaign, "scan_files", "scanner.scan", after=_scan_stats)
    tracer.wrap(Plan, "from_points", "orchestrator.plan")
    tracer.wrap(campaign, "monotone_sample", "orchestrator.plan")
    tracer.wrap(campaign, "run_coverage", "orchestrator.coverage")
    tracer.wrap(SandboxImage, "build", "sandbox.image_build")
    tracer.wrap(ExperimentExecutor, "run", "orchestrator.experiment")
    tracer.wrap_generator(ExperimentExecutor, "iter_mutations",
                          "orchestrator.generate_wait")
    tracer.wrap(executor, "generate_mutants", "mutator.generate",
                after=_len_result("mutants"))
    tracer.wrap(ExperimentStream, "append", "orchestrator.stream_append")
    tracer.wrap(backends, "merge_shard_stream", "orchestrator.shard_merge",
                after=_len_result("records"))
    tracer.wrap(Sandbox, "create", "sandbox.instantiate")
    tracer.wrap(Sandbox, "destroy", "sandbox.teardown")
    tracer.wrap(executor, "start_services", "workload.service_start")
    tracer.wrap(coverage, "start_services", "workload.service_start")
    tracer.wrap(executor, "run_round", "workload.round")
    tracer.wrap(Sandbox, "run", "workload.command")
    tracer.wrap(Sandbox, "collect_logs", "workload.log_collect")
    tracer.wrap(Sandbox, "service_logs", "workload.log_collect")
    tracer.wrap(CampaignReport, "__post_init__", "analysis.report")
    tracer.wrap(CampaignReport, "render", "analysis.report")
    tracer.wrap(StatsStore, "add", "stats.index_add")
    install_fleet_wrappers(tracer, ProFIPyClient)


def install_fleet_wrappers(tracer: Tracer, client_class) -> None:
    """Blob shipping, shard dispatch and stream mirroring, timed where
    the client SDK makes the calls."""
    tracer.wrap(client_class, "put_blob", "service.blob_put",
                after=_blob_bytes)
    tracer.wrap(client_class, "missing_blobs", "service.blob_missing")
    tracer.wrap(client_class, "submit_shard", "service.shard_dispatch")
    tracer.wrap(client_class, "shard_stream", "service.stream_fetch")


def install_connect_counter(tracer: Tracer) -> None:
    """Count the TCP connections ``http.client`` opens in this process."""
    import http.client

    original = http.client.HTTPConnection.connect

    @functools.wraps(original)
    def connect(self, *args, **kwargs):
        tracer.count("http.connects")
        return original(self, *args, **kwargs)

    http.client.HTTPConnection.connect = connect
