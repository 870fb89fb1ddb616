"""Self-tests of the benchmark's own parts.

    python3 -m pytest servicebench/selftest.py -q

They cover the percentile helper, the VmHWM reader, the failure counter,
the request classifier, span self time, and the oracles — each oracle is
fed a deliberately wrong outcome and must reject it.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from common import FailureCounter, percentile, vmhwm_kib  # noqa: E402
from harness import BenchClient, CampaignRun, RequestLog, route_group  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

# -- percentile ------------------------------------------------------------------


def test_percentile_p50_p90_and_too_few_samples():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 50) == 2.5
    assert percentile(values, 90) == pytest.approx(3.7)
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([5.0], 90)


# -- VmHWM -----------------------------------------------------------------------


STATUS = """Name:\tpython3
VmPeak:\t  300000 kB
VmHWM:\t   31216 kB
VmRSS:\t   30100 kB
"""


def test_vmhwm_reads_the_peak_not_the_current_rss():
    assert vmhwm_kib(0, STATUS) == 31216


def test_vmhwm_missing_field_raises():
    with pytest.raises(ValueError):
        vmhwm_kib(0, "Name:\tkthreadd\nVmRSS:\t 1 kB\n")


def test_vmhwm_of_this_process():
    assert vmhwm_kib(os.getpid()) > 1000


# -- failure counter -------------------------------------------------------------


def test_failure_counter_shares_one_definition():
    counter = FailureCounter()
    for ok in (True, True, False, True):
        counter.record("http", ok, "boom")
    counter.check(False, "wrong output")
    assert counter.total_attempted() == 5
    assert counter.total_failed() == 2
    assert counter.failed_of("http") == 1
    assert counter.failed_share() == pytest.approx(0.4)
    assert counter.errors == ["http: boom", "oracle: wrong output"]


def test_failure_counter_is_thread_safe():
    counter = FailureCounter()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(
            target=lambda: [counter.record("http", index % 2 == 0)
                            for index in range(2000)])
            for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert counter.total_attempted() == 16000
    assert counter.failed_of("http") == 8000


def test_http_errors_count_as_failed(tmp_path):
    """A 401 and a refused connection are failed operations, not skips."""
    from repro.service.client import TransportError
    from repro.service.http import start_server
    from repro.service.service import ProFIPyService

    (tmp_path / "ws").mkdir()
    (tmp_path / "ws" / "tenants.json").write_text(json.dumps(
        {"tenants": {"alice": {"token": "right"}}}))
    service = ProFIPyService(tmp_path / "ws")
    server, thread = start_server(service)
    counter, log = FailureCounter(), RequestLog()
    try:
        BenchClient(server.url, counter, log, token="right").list_jobs()
        with pytest.raises(PermissionError):
            BenchClient(server.url, counter, log, token="wrong").list_jobs()
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(10)
    dead = BenchClient(server.url, counter, log)
    dead.retry_policy = None
    with pytest.raises(TransportError):
        dead.list_jobs()
    assert counter.attempted == {"http": 3}
    assert counter.failed_of("http") == 2
    assert [ok for _group, _seconds, ok in log.entries] == \
        [True, False, False]


# -- request groups and spans ----------------------------------------------------


@pytest.mark.parametrize("method, path, group", [
    ("POST", "/v1/campaigns", "submit"),
    ("GET", "/v1/jobs/job-0001", "metadata"),
    ("GET", "/v1/jobs", "metadata"),
    ("GET", "/v1/jobs/job-0001/summary", "metadata"),
    ("GET", "/v1/jobs/job-0001/wait?timeout=30", "wait"),
    ("GET", "/v1/jobs/job-0001/report", "fetch"),
    ("GET", "/v1/jobs/job-0001/experiments.ndjson", "fetch"),
    ("PUT", "/v1/blobs/" + "a" * 64, "blob"),
    ("GET", "/v1/ping", "other"),
])
def test_route_groups(method, path, group):
    assert route_group(method, path) == group


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"name": "campaign", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "scan", "start": 1.0, "end": 4.0, "parent": 0},
        # Overlaps the scan (two threads): counted once.
        {"name": "scan", "start": 3.0, "end": 5.0, "parent": 0},
        {"name": "report", "start": 8.0, "end": 9.0, "parent": 0},
        {"name": "open", "start": 9.5, "end": None, "parent": 0},
    ]
    times = self_times(spans)
    assert times["campaign"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert times["scan"] == pytest.approx(5.0)
    assert times["report"] == pytest.approx(1.0)


def test_tracer_wraps_classmethods_and_nests():
    class Box:
        @classmethod
        def make(cls, value):
            return cls.inner(value)

        @staticmethod
        def inner(value):
            return value * 2

    tracer = Tracer("test")
    tracer.wrap(Box, "make", "outer")
    tracer.wrap(Box, "inner", "inner")
    assert Box.make(21) == 42
    names = [(span["name"], span["parent"]) for span in tracer.spans]
    assert names == [("outer", None), ("inner", 0)]


# -- oracles ---------------------------------------------------------------------


def _run(experiments, summary=None, report="report"):
    return CampaignRun(label="t", job_id="job-0001", seconds=1.0,
                       submitted=0.0, finished=1.0,
                       summary=summary or {"experiments": len(experiments)},
                       experiments=experiments, report=report, job=None)


def _experiment(experiment_id, round1_fails, round2_fails,
                status="completed"):
    from repro.common.procutil import CommandResult
    from repro.orchestrator.experiment import ExperimentResult
    from repro.workload.runner import RoundResult

    def round_(number, fails):
        return RoundResult(round_no=number, fault_enabled=number == 1,
                           commands=[CommandResult(
                               command="run.py", returncode=int(fails),
                               stdout="", stderr="", duration=0.05)])

    return ExperimentResult(
        experiment_id=experiment_id, point={}, spec_name="WRR",
        status=status,
        rounds=[round_(1, round1_fails), round_(2, round2_fails)])


@pytest.fixture
def small_jobs(tmp_path):
    from workloads import SmallJobs

    return SmallJobs(seed=1, seconds=1, run_dir=tmp_path,
                     counter=FailureCounter())


def test_small_jobs_oracle_accepts_the_predicted_outcome(small_jobs):
    small_jobs.check_first(_run([_experiment("c-01", True, False),
                                 _experiment("c-02", True, False)]))
    assert small_jobs.counter.total_failed() == 0


@pytest.mark.parametrize("experiments", [
    # The return -1 mutant did not fail round 1.
    [_experiment("c-01", False, False), _experiment("c-02", True, False)],
    # The fault persisted after the trigger was turned off.
    [_experiment("c-01", True, True), _experiment("c-02", True, False)],
    # A harness error is never predicted.
    [_experiment("c-01", True, False, status="harness_error"),
     _experiment("c-02", True, False)],
    # One experiment missing.
    [_experiment("c-01", True, False)],
])
def test_small_jobs_oracle_rejects_a_wrong_outcome(small_jobs, experiments):
    small_jobs.check_first(_run(experiments, summary={"experiments": 2}))
    assert small_jobs.counter.total_failed() >= 1


def test_resume_oracle_rejects_a_rewritten_record(small_jobs):
    before = _run([_experiment("c-01", True, False)])
    changed = _experiment("c-01", True, False)
    changed.duration = 99.0
    after = _run([changed, _experiment("c-02", True, False)])
    added = small_jobs.expect_unchanged(before, after)
    assert added == {"c-02"}
    assert small_jobs.counter.total_failed() == 1


def test_toy_target_workload_checks_every_return_value(tmp_path):
    """The generated ``run.py`` fails on a ``return -1`` mutant of any
    function and passes on the pristine app."""
    import random
    import subprocess

    from workloads import toy_function, write_toy_target

    rng = random.Random(3)
    functions = [toy_function(rng, index) for index in range(3)]
    write_toy_target(tmp_path, functions)

    def run():
        return subprocess.run([sys.executable, "run.py"], cwd=tmp_path,
                              capture_output=True, timeout=60).returncode

    assert run() == 0
    app = (tmp_path / "app.py").read_text()
    for index in range(3):
        source = functions[index][0]
        mutant = source.rsplit("    return", 1)[0] + "    return -1\n"
        (tmp_path / "app.py").write_text(app.replace(source, mutant))
        assert run() == 1


def test_etcd_pinned_counts_match_the_client_source(tmp_path):
    """The etcd oracle's pinned experiment counts, recounted from the
    client's text without the program's scanner."""
    import re

    from repro.etcdsim.target import materialize_target
    from workloads import EtcdCaseStudy

    materialize_target(tmp_path / "target")
    source = (tmp_path / "target" / "pyetcd" / "client.py").read_text()
    key_calls = re.findall(r"^ +\w+ = self\._key_endpoint\(\w+\)$", source,
                           re.MULTILINE)
    prefix_joins = [line for line in re.findall(r'^ +\w+ = "[^"]*" \+ .*$',
                                                source, re.MULTILINE)
                    if " if " not in line]
    assert len(key_calls) == EtcdCaseStudy.first_experiments
    assert len(prefix_joins) == EtcdCaseStudy.added_experiments
