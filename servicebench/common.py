"""Shared pieces of the service benchmark: statistics, failure accounting,
process control, and the run context.

Everything here runs in the load-generator process.  The service under
test is always a separate process started from the checkout's ``src/``
tree; nothing in this module imports ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import threading
import time
from pathlib import Path

#: Root of the checkout the benchmark runs from (the parent of this
#: directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for one run's workspaces, targets and logs; ignored by
#: git and removed when the run ends.
RUNS_DIR = ROOT / ".servicebench"


# -- statistics ----------------------------------------------------------------


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (1–99) of ``values``, interpolated
    between closest ranks (``statistics.quantiles``' inclusive method).

    Raises ``ValueError`` on fewer than two samples: a metric without
    enough samples must be reported as such, never as a made-up number.
    """
    values = [float(value) for value in values]
    if len(values) < 2:
        raise ValueError(f"percentile of {len(values)} samples")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median(values) -> float:
    return statistics.median(values)


def median_or_zero(values) -> float:
    """Median of ``values``, or 0.0 when the layer did no work."""
    values = list(values)
    return median(values) if values else 0.0


# -- failure accounting --------------------------------------------------------


class FailureCounter:
    """Attempted and failed operations, per kind.

    Kinds used by the benchmark: ``http`` (every client request; a 4xx,
    5xx, or transport error is a failure), ``job`` (a job that ends in
    any state but ``completed``), ``experiment`` (an experiment whose
    status the oracle does not predict) and ``oracle`` (one output
    check).  ``failed_share`` and ``service.requests_failed`` both read
    this one record, so they cannot disagree.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.errors: list[str] = []

    def record(self, kind: str, ok: bool, detail: str = "") -> bool:
        with self._lock:
            self.attempted[kind] = self.attempted.get(kind, 0) + 1
            if not ok:
                self.failed[kind] = self.failed.get(kind, 0) + 1
                if len(self.errors) < 20:
                    self.errors.append(f"{kind}: {detail}")
        return ok

    def check(self, ok: bool, detail: str) -> bool:
        """Record one oracle check."""
        return self.record("oracle", ok, detail)

    def total_attempted(self) -> int:
        with self._lock:
            return sum(self.attempted.values())

    def total_failed(self) -> int:
        with self._lock:
            return sum(self.failed.values())

    def failed_of(self, kind: str) -> int:
        with self._lock:
            return self.failed.get(kind, 0)

    def failed_share(self) -> float:
        attempted = self.total_attempted()
        return self.total_failed() / attempted if attempted else 0.0


# -- process memory ------------------------------------------------------------


def vmhwm_kib(pid: int, status_text: str | None = None) -> int:
    """Peak resident set size (``VmHWM``) of a live process, in KiB.

    ``status_text`` lets tests feed a captured ``/proc/<pid>/status``.
    Raises ``ValueError`` when the field is absent.
    """
    if status_text is None:
        status_text = Path(f"/proc/{pid}/status").read_text()
    match = re.search(r"^VmHWM:\s+(\d+)\s+kB\s*$", status_text, re.MULTILINE)
    if match is None:
        raise ValueError(f"no VmHWM line in the status of pid {pid}")
    return int(match.group(1))


def cpu_ticks() -> list[int]:
    """The host's aggregate CPU tick counters (``/proc/stat`` order:
    user, nice, system, idle, iowait, irq, softirq, steal, ...)."""
    with open("/proc/stat") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`cpu_ticks` readings — a noisy host shows here."""
    delta = [end - start for start, end in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total else 0.0


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop, in ms.  Recorded at the
    start and the end of a run, never gated: on a shared host the speed
    of the same instructions drifts, and this shows how far."""
    times = []
    for _round in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1000.0


# -- child processes -----------------------------------------------------------


def child_env(tmp_dir: Path) -> dict[str, str]:
    """Environment for every process the benchmark starts: the
    checkout's ``src`` on the path, unbuffered output (the service
    announces its URL on stdout), and temporary files kept inside the
    run directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(tmp_dir)
    return env


class ServerProcess:
    """One ``serve`` or ``worker`` process and the URL it announced."""

    URL_RE = re.compile(r" on (http://[0-9.]+:\d+) ")

    def __init__(self, argv: list[str], env: dict[str, str],
                 log_path: Path) -> None:
        self.argv = argv
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._log, stdin=subprocess.DEVNULL,
            start_new_session=True,
        )
        self.url: str | None = None
        self._announced = threading.Event()
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()

    def _read_stdout(self) -> None:
        for raw in self.proc.stdout:
            if self.url is None:
                match = self.URL_RE.search(raw.decode("utf-8", "replace"))
                if match:
                    self.url = match.group(1)
                    self._announced.set()
        self._announced.set()

    def wait_url(self, timeout: float) -> str:
        if not self._announced.wait(timeout) or self.url is None:
            raise RuntimeError(
                f"{self.argv[-4:]} announced no URL within {timeout}s "
                f"(exit {self.proc.poll()}); see {self.log_path}")
        return self.url

    def peak_rss_kib(self) -> int:
        return vmhwm_kib(self.proc.pid)

    def stop(self, timeout: float = 15.0) -> int | None:
        """Interrupt the server (its clean shutdown path), escalating to
        SIGTERM and SIGKILL; always waits for the process to end."""
        if self.proc.poll() is None:
            for sig, grace in ((signal.SIGINT, timeout),
                               (signal.SIGTERM, 5.0),
                               (signal.SIGKILL, 5.0)):
                try:
                    self.proc.send_signal(sig)
                except ProcessLookupError:
                    break
                try:
                    self.proc.wait(grace)
                    break
                except subprocess.TimeoutExpired:
                    continue
        code = self.proc.wait()
        self._reader.join(5.0)
        self.proc.stdout.close()
        self._log.close()
        return code


# -- run context ---------------------------------------------------------------


def _commit() -> str:
    """The checkout's commit from ``.git`` when there is one (an
    exported source tree has none), else ``"n/a"``."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "n/a"
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        try:
            return target.read_text().strip()
        except OSError:
            packed = ROOT / ".git" / "packed-refs"
            try:
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        return line.split()[0]
            except OSError:
                pass
            return "n/a"
    return ref


def run_context(seed: int, workload: str, trace: bool) -> dict:
    """What every run records next to its numbers: seed, ``nproc``,
    interpreter, commit, and the size of ``src/`` (reported, not
    gated).  ``src_sha256`` identifies the program when there is no
    commit to name."""
    lines = 0
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(data)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest()[:16],
    }


def emit(line: str) -> None:
    print(line, flush=True)


def emit_json(label: str, payload: dict) -> None:
    emit(f"# {label}: {json.dumps(payload, sort_keys=True)}")
