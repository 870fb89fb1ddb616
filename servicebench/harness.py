"""The load generator's side of the service: an instrumented client, the
fleet of ``serve``/``worker`` processes, and the campaign and
metadata-plane loops the workloads are built from."""

from __future__ import annotations

import re
import shutil
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    ROOT,
    FailureCounter,
    ServerProcess,
    child_env,
)
from repro.service.client import ProFIPyClient

#: Seconds a server gets to announce its URL and answer its first ping.
START_TIMEOUT = 60.0
#: Seconds one campaign may take before the run is declared failed.
JOB_TIMEOUT = 150.0

_METADATA_RE = re.compile(r"/v1/jobs(/[^/?]+)?(/summary)?$")


def route_group(method: str, path: str) -> str:
    """The route group a request is reported under."""
    path = path.split("?", 1)[0]
    if method == "POST" and path == "/v1/campaigns":
        return "submit"
    if path.endswith("/wait"):
        return "wait"
    if (path.endswith("/report") or path.endswith("/experiments.ndjson")
            or path.endswith("/experiments")):
        return "fetch"
    if method == "GET" and _METADATA_RE.fullmatch(path):
        return "metadata"
    if path.startswith("/v1/blobs"):
        return "blob"
    if path.startswith("/v1/models"):
        return "model"
    return "other"


class RequestLog:
    """Every request the load generator made: (group, seconds, ok)."""

    def __init__(self) -> None:
        self.entries: list[tuple[str, float, bool]] = []

    def add(self, group: str, seconds: float, ok: bool) -> None:
        self.entries.append((group, seconds, ok))  # list.append is atomic

    def seconds(self, group: str) -> list[float]:
        return [seconds for entry_group, seconds, ok in self.entries
                if entry_group == group and ok]


class BenchClient(ProFIPyClient):
    """``ProFIPyClient`` that times and counts every request.

    Any exception out of the transport — an HTTP 4xx/5xx mapped to its
    Python type, or a ``TransportError`` — counts as a failed ``http``
    operation before it propagates.
    """

    def __init__(self, base_url: str, counter: FailureCounter,
                 log: RequestLog, tracer=None, token: str | None = None
                 ) -> None:
        super().__init__(base_url, timeout=60.0, token=token)
        self.counter = counter
        self.log = log
        self.tracer = tracer

    def _request(self, method, path, payload=None, timeout=None):
        group = route_group(method, path)
        span = (self.tracer.begin("service.request", {"group": group})
                if self.tracer is not None else None)
        started = time.perf_counter()
        ok = False
        try:
            result = super()._request(method, path, payload, timeout)
            ok = True
            return result
        except Exception as error:
            self.counter.record("http", False,
                                f"{method} {path}: {type(error).__name__}: "
                                f"{error}")
            raise
        finally:
            elapsed = time.perf_counter() - started
            if ok:
                self.counter.record("http", True)
            self.log.add(group, elapsed, ok)
            if span is not None:
                self.tracer.end(span, {"ok": ok})

    def raw_stream(self, job_id: str) -> bytes:
        """The job's experiment stream exactly as the server sends it."""
        return self._request("GET",
                             f"/v1/jobs/{job_id}/experiments.ndjson")[1]


# -- the fleet -------------------------------------------------------------------


@dataclass
class Fleet:
    """One coordinator (``serve``) and its joined workers."""

    service: ServerProcess
    workers: list[ServerProcess] = field(default_factory=list)
    spans: list[Path] = field(default_factory=list)

    @property
    def url(self) -> str:
        return self.service.url

    def processes(self) -> list[ServerProcess]:
        return [self.service, *self.workers]

    def peak_rss_mb(self) -> float:
        return sum(process.peak_rss_kib()
                   for process in self.processes()) / 1024.0

    def stop(self) -> None:
        # Workers first: they heartbeat to the coordinator.
        for process in [*self.workers, self.service]:
            process.stop()


class FleetLauncher:
    """Starts fleets the way a user would: ``python -m repro.cli ...
    serve --port 0`` (and ``worker --join``), or through the tracing
    launcher in the traced run."""

    def __init__(self, run_dir: Path, trace: bool) -> None:
        self.run_dir = run_dir
        self.trace = trace
        self.tmp = run_dir / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = child_env(self.tmp)
        self._count = 0

    def _argv(self, cli_args: list[str], spans: Path) -> list[str]:
        if self.trace:
            return [sys.executable, str(ROOT / "servicebench" / "launch.py"),
                    str(spans), "--", *cli_args]
        return [sys.executable, "-m", "repro.cli", *cli_args]

    def start(self, workers: int = 0, tenants: Path | None = None) -> Fleet:
        """Start a coordinator and ``workers`` joined workers, each on a
        fresh workspace, and wait until each announced its URL."""
        self._count += 1
        base = self.run_dir / f"fleet-{self._count}"
        base.mkdir(parents=True)
        workspace = base / "service"
        workspace.mkdir()
        if tenants is not None:
            shutil.copyfile(tenants, workspace / "tenants.json")
        spans = base / "service.spans.json"
        service = ServerProcess(
            self._argv(["--workspace", str(workspace), "serve", "--port",
                        "0", "--max-workers", "2"], spans),
            self.env, base / "service.log")
        fleet = Fleet(service=service, spans=[spans])
        try:
            url = service.wait_url(START_TIMEOUT)
            for index in range(workers):
                worker_spans = base / f"worker-{index}.spans.json"
                fleet.spans.append(worker_spans)
                fleet.workers.append(ServerProcess(
                    self._argv(["--workspace", str(base / f"worker-{index}"),
                                "worker", "--port", "0", "--max-workers",
                                "1", "--join", url], worker_spans),
                    self.env, base / f"worker-{index}.log"))
            for worker in fleet.workers:
                worker.wait_url(START_TIMEOUT)
        except BaseException:
            fleet.stop()
            raise
        return fleet


def wait_until(predicate, timeout: float, what: str,
               interval: float = 0.005) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError(f"{what} not ready within {timeout}s")
        time.sleep(interval)


def ping_until_up(client: ProFIPyClient, timeout: float = START_TIMEOUT
                  ) -> None:
    """Ping until the server answers (connection refused while it binds
    counts as not-yet-up, not as a failed operation)."""
    probe = ProFIPyClient(client.base_url, timeout=5.0, retry_policy=None)
    deadline = time.monotonic() + timeout
    while True:
        try:
            probe.ping()
            break
        except ConnectionError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.005)
    client.ping()


# -- campaigns -------------------------------------------------------------------


@dataclass
class CampaignRun:
    """One submitted campaign as the load generator saw it."""

    label: str
    job_id: str
    seconds: float
    submitted: float
    finished: float
    summary: dict
    experiments: list
    report: str
    job: object


def run_campaign(client: BenchClient, counter: FailureCounter, label: str,
                 config, rules=None, components=None,
                 resume_from: str | None = None) -> CampaignRun:
    """Submit, wait, and fetch everything a user reads back: the
    summary, the full experiment list, and the report text."""
    started = time.perf_counter()
    job = client.submit_campaign(config, rules=rules, components=components,
                                 block=False, resume_from=resume_from)
    job = client.wait(job.job_id, timeout=JOB_TIMEOUT)
    ok = counter.record("job", job.status == "completed",
                        f"{label} {job.job_id} {job.status}: {job.error}")
    if not ok:
        raise RuntimeError(f"campaign {label} ended {job.status}: "
                           f"{job.error}")
    summary = client.result_summary(job.job_id)
    experiments = client.experiments(job.job_id)
    report = client.report_text(job.job_id)
    finished = time.perf_counter()
    return CampaignRun(label=label, job_id=job.job_id,
                       seconds=finished - started, submitted=started,
                       finished=finished, summary=summary,
                       experiments=experiments, report=report, job=job)


def closed_loop(users: int, body) -> list:
    """Run ``body(user)`` on ``users`` threads; re-raise the first error."""
    results: list = [None] * users
    errors: list[BaseException] = []

    def target(user: int) -> None:
        try:
            results[user] = body(user)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [threading.Thread(target=target, args=(user,))
               for user in range(users)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def metadata_phase(client: BenchClient, job_ids: list[str],
                   requests: int, seconds: float) -> list[float]:
    """A closed loop of metadata-plane calls (job get, job list,
    summary, progress) on finished jobs, for at least ``requests`` calls
    and ``seconds`` of wall time; returns each call's seconds."""
    calls = (
        lambda job_id: client.job(job_id),
        lambda _job_id: client.list_jobs(),
        lambda job_id: client.result_summary(job_id),
        lambda job_id: client.job_progress(job_id),
    )
    latencies = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < requests or time.perf_counter() < deadline:
        job_id = job_ids[(index // len(calls)) % len(job_ids)]
        started = time.perf_counter()
        calls[index % len(calls)](job_id)
        latencies.append(time.perf_counter() - started)
        index += 1
    return latencies
