"""The benchmark's three workloads.

Each workload makes its inputs from the seed, starts fleets (``setup``),
runs a first pass of campaigns, edits its inputs, re-runs the campaigns
(``recampaign``), then drives the metadata plane on its own.  Oracles
check every output against what the generated inputs predict.

* ``small-jobs`` — many tiny campaigns from two tenants; the cost is
  interpreter spawns, scheduling, auth and the HTTP hop.
* ``large-tree`` — one campaign over a seeded synthetic tree with the
  120-pattern §V-D faultload, shipped by manifest to two remote workers;
  the cost is scan, mutate, sandbox copy and blob shipping.
* ``etcd-case-study`` — the §V ``wrong_inputs`` campaign on the process
  backend; the cost is mostly the target's own start-up and waiting.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from pathlib import Path

from common import FailureCounter
from harness import (
    BenchClient,
    CampaignRun,
    Fleet,
    FleetLauncher,
    RequestLog,
    closed_loop,
    metadata_phase,
    ping_until_up,
    run_campaign,
    wait_until,
)
from repro.orchestrator.campaign import CampaignConfig
from repro.orchestrator.experiment import STATUS_COMPLETED
from repro.workload.spec import WorkloadSpec

#: The metadata-plane phase makes at least this many requests (p90 then
#: has 210 samples above it) and lasts at least ``API_SECONDS``: the
#: host's speed drifts within seconds, and a longer phase averages it.
API_REQUESTS = 2100
API_SECONDS = 6.0


@dataclasses.dataclass
class Outcome:
    """Raw measurements of one run, before they become metrics."""

    setup_seconds: list[float]
    first: list[CampaignRun]
    recampaign_seconds: float
    recampaign: list[CampaignRun]
    api_latencies: list[float]
    peak_rss_mb: float
    #: perf_counter marks: fleet_start (the cold start of the fleet the
    #: campaigns run on), setup_end, first_end, recampaign_end, api_end.
    marks: dict[str, float]
    fleet: Fleet
    extra: dict = dataclasses.field(default_factory=dict)


class Workload:
    """Skeleton shared by the workloads; subclasses fill in the steps."""

    name = ""
    #: Cold starts per run; ``setup_s`` is their median.  About half
    #: come before the first pass and the rest after the metadata
    #: phase, so the median spans the whole run, not one moment of it.
    setups = 9
    workers = 0
    #: Execution backend, for the traced run's notes.
    backend = "thread"

    def __init__(self, seed: int, seconds: float, run_dir: Path,
                 counter: FailureCounter, tracer=None) -> None:
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir
        self.counter = counter
        self.tracer = tracer
        self.log = RequestLog()
        self.launcher = FleetLauncher(run_dir, trace=tracer is not None)
        self.rng = random.Random(f"{self.name}:{seed}")
        self.inputs = run_dir / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        #: Workload-specific facts reported with the run.
        self.extra: dict = {}

    # -- steps ------------------------------------------------------------------

    def prepare(self) -> None:
        """Generate the inputs from the seed."""

    def tenants_file(self) -> Path | None:
        return None

    def client(self, fleet: Fleet, token: str | None = None) -> BenchClient:
        return BenchClient(fleet.url, self.counter, self.log, self.tracer,
                           token=token)

    def provision(self, fleet: Fleet) -> None:
        """What a user does before the first submit (store the fault
        model, upload blobs)."""

    def first_pass(self, fleet: Fleet) -> list[CampaignRun]:
        raise NotImplementedError

    def edit(self) -> None:
        """Change the inputs between the two passes."""

    def recampaign(self, fleet: Fleet,
                   first: list[CampaignRun]) -> list[CampaignRun]:
        raise NotImplementedError

    def api_client(self, fleet: Fleet) -> BenchClient:
        return self.client(fleet)

    def api_jobs(self, first: list[CampaignRun]) -> list[str]:
        return [run.job_id for run in first]

    # -- the run ----------------------------------------------------------------

    def start_fleet(self) -> Fleet:
        fleet = self.launcher.start(workers=self.workers,
                                    tenants=self.tenants_file())
        try:
            for process in fleet.processes():
                ping_until_up(BenchClient(process.url, self.counter,
                                          self.log, self.tracer))
            if self.workers:
                coordinator = self.client(fleet)
                wait_until(
                    lambda: sum(view["state"] == "alive"
                                for view in coordinator.list_workers())
                    >= self.workers,
                    30.0, "worker registration", interval=0.01)
            self.provision(fleet)
        except BaseException:
            fleet.stop()
            raise
        return fleet

    def cold_start(self) -> tuple[Fleet, float]:
        fleet = self.start_fleet()
        return fleet, time.perf_counter() - fleet.service.started

    def run(self) -> Outcome:
        self.prepare()
        setup_seconds = []
        early = self.setups // 2 + 1
        for attempt in range(early):
            fleet_start = time.perf_counter()
            fleet, seconds = self.cold_start()
            setup_seconds.append(seconds)
            if attempt < early - 1:
                fleet.stop()
        marks = {"fleet_start": fleet_start,
                 "setup_end": time.perf_counter()}
        try:
            first = self.first_pass(fleet)
            marks["first_end"] = time.perf_counter()
            self.edit()
            started = time.perf_counter()
            again = self.recampaign(fleet, first)
            marks["recampaign_end"] = time.perf_counter()
            recampaign_seconds = marks["recampaign_end"] - started
            api = metadata_phase(self.api_client(fleet),
                                 self.api_jobs(first), API_REQUESTS,
                                 API_SECONDS)
            marks["api_end"] = time.perf_counter()
            peak = fleet.peak_rss_mb()
        finally:
            fleet.stop()
        for _attempt in range(self.setups - early):
            late, seconds = self.cold_start()
            late.stop()
            setup_seconds.append(seconds)
        return Outcome(setup_seconds=setup_seconds, first=first,
                       recampaign_seconds=recampaign_seconds,
                       recampaign=again, api_latencies=api,
                       peak_rss_mb=peak, marks=marks, fleet=fleet,
                       extra=self.extra)

    # -- oracle helpers ---------------------------------------------------------

    def expect_rounds(self, run: CampaignRun, experiment,
                      round1_fails: bool, round2_fails: bool) -> None:
        ok = (experiment.status == STATUS_COMPLETED
              and experiment.failed_round1 == round1_fails
              and experiment.failed_round2 == round2_fails)
        self.counter.record(
            "experiment", ok,
            f"{run.label} {experiment.experiment_id}: status "
            f"{experiment.status}, round failures "
            f"({experiment.failed_round1}, {experiment.failed_round2}), "
            f"expected ({round1_fails}, {round2_fails}) {experiment.error}")

    def expect_count(self, run: CampaignRun, expected: int) -> None:
        self.counter.check(
            len(run.experiments) == expected
            and run.summary.get("experiments") == expected,
            f"{run.label}: {len(run.experiments)} experiments listed, "
            f"summary says {run.summary.get('experiments')}, expected "
            f"{expected}")
        self.counter.check(bool(run.report.strip()),
                           f"{run.label}: empty report")

    def expect_unchanged(self, before: CampaignRun, after: CampaignRun
                         ) -> set[str]:
        """Every record of ``before`` appears unchanged in ``after``;
        returns the ids ``after`` added."""
        old = {e.experiment_id: e.to_dict() for e in before.experiments}
        new = {e.experiment_id: e.to_dict() for e in after.experiments}
        for experiment_id, record in old.items():
            self.counter.check(new.get(experiment_id) == record,
                               f"{after.label}: resumed record "
                               f"{experiment_id} changed")
        return set(new) - set(old)


# -- small-jobs ------------------------------------------------------------------


TOY_SPEC = """
change {
    $BLOCK{tag=pre; stmts=1,*}
    return $EXPR#v
} into {
    $BLOCK{tag=pre}
    return -1
}
"""


def toy_function(rng: random.Random, index: int) -> tuple[str, int, int]:
    """Source of one toy function, its argument and its expected value
    (always positive, so a ``return -1`` mutant is always wrong)."""
    a, b, c = rng.randint(2, 9), rng.randint(10, 99), rng.randint(1, 9)
    argument = rng.randint(3, 30)
    source = (f"def f{index}(x):\n"
              f"    acc = x * {a}\n"
              f"    acc = acc + {b}\n"
              f"    return acc - {c}\n")
    return source, argument, argument * a + b - c


def write_toy_target(target: Path, functions: list[tuple[str, int, int]]
                     ) -> None:
    """``app.py`` with the functions and a ``run.py`` workload that
    checks every function's return value."""
    target.mkdir(parents=True, exist_ok=True)
    (target / "app.py").write_text(
        '"""Toy target."""\n\n\n'
        + "\n\n".join(source for source, _arg, _value in functions))
    checks = [(f"f{index}", arg, value)
              for index, (_source, arg, value) in enumerate(functions)]
    (target / "run.py").write_text(
        "import sys\n\nimport app\n\n"
        f"CHECKS = {checks!r}\n"
        "for name, argument, expected in CHECKS:\n"
        "    value = getattr(app, name)(argument)\n"
        "    if value != expected:\n"
        "        print('WORKLOAD FAILURE:', name, value, '!=', expected,\n"
        "              file=sys.stderr)\n"
        "        sys.exit(1)\n"
        "print('WORKLOAD SUCCESS')\n")


class SmallJobs(Workload):
    name = "small-jobs"
    users = 2
    functions = 2
    #: First-pass campaigns per user and per second of ``--seconds``: a
    #: fixed amount of work for a given run length (about the rate a
    #: user reaches on a 2-core host), so the job count — which the
    #: metadata plane's job listing scales with — does not move with
    #: the program's speed.
    campaigns_per_second = 3

    def prepare(self) -> None:
        from repro.dsl.parser import parse_spec
        from repro.faultmodel.model import FaultModel

        self.model = FaultModel(name="toy-wrong-return")
        self.model.add(parse_spec(TOY_SPEC, name="WRR"),
                       description="wrong return value")
        self.tokens = [f"token-{user}-{self.rng.getrandbits(64):016x}"
                       for user in range(self.users)]
        self.tenants = self.inputs / "tenants.json"
        self.tenants.write_text(json.dumps({"tenants": {
            f"tenant{user}": {"token": token}
            for user, token in enumerate(self.tokens)}}))
        self.targets = []
        self.toy: list[list[tuple[str, int, int]]] = []
        for user in range(self.users):
            functions = [toy_function(self.rng, index)
                         for index in range(self.functions)]
            target = self.inputs / f"target-{user}"
            write_toy_target(target, functions)
            self.targets.append(target)
            self.toy.append(functions)

    def tenants_file(self) -> Path:
        return self.tenants

    def user_client(self, fleet: Fleet, user: int) -> BenchClient:
        return self.client(fleet, token=self.tokens[user])

    def provision(self, fleet: Fleet) -> None:
        for user in range(self.users):
            self.user_client(fleet, user).save_model(self.model)

    def config(self, user: int, index: int) -> CampaignConfig:
        return CampaignConfig(
            name=f"small-u{user}-c{index:03d}",
            target_dir=self.targets[user],
            fault_model=self.model,
            workload=WorkloadSpec(commands=["{python} run.py"],
                                  command_timeout=30.0),
            injectable_files=["app.py"],
            coverage=False,
            parallelism=1,
            seed=self.seed,
        )

    def first_pass(self, fleet: Fleet) -> list[CampaignRun]:
        campaigns = max(1, round(self.seconds * self.campaigns_per_second))

        def user_loop(user: int) -> list[CampaignRun]:
            client = self.user_client(fleet, user)
            runs = []
            for _index in range(campaigns):
                run = run_campaign(client, self.counter,
                                   f"u{user}-c{len(runs)}",
                                   self.config(user, len(runs)))
                self.check_first(run)
                runs.append(run)
            return runs

        per_user = closed_loop(self.users, user_loop)
        self.per_user = per_user
        return sorted((run for runs in per_user for run in runs),
                      key=lambda run: run.submitted)

    def check_first(self, run: CampaignRun) -> None:
        self.expect_count(run, self.functions)
        for experiment in run.experiments:
            self.expect_rounds(run, experiment, True, False)

    def edit(self) -> None:
        for user in range(self.users):
            self.toy[user].append(toy_function(self.rng, self.functions))
            write_toy_target(self.targets[user], self.toy[user])

    def recampaign(self, fleet: Fleet,
                   first: list[CampaignRun]) -> list[CampaignRun]:
        def user_loop(user: int) -> list[CampaignRun]:
            client = self.user_client(fleet, user)
            runs = []
            for index, previous in enumerate(self.per_user[user]):
                run = run_campaign(client, self.counter,
                                   f"u{user}-re{index}",
                                   self.config(user, index),
                                   resume_from=previous.job_id)
                self.expect_count(run, self.functions + 1)
                self.counter.check(
                    run.summary.get("resumed") == self.functions,
                    f"{run.label}: resumed {run.summary.get('resumed')}, "
                    f"expected {self.functions}")
                added = self.expect_unchanged(previous, run)
                self.counter.check(len(added) == 1,
                                   f"{run.label}: delta {sorted(added)}")
                for experiment in run.experiments:
                    if experiment.experiment_id in added:
                        self.expect_rounds(run, experiment, True, False)
                runs.append(run)
            return runs

        return [run for runs in closed_loop(self.users, user_loop)
                for run in runs]

    def api_client(self, fleet: Fleet) -> BenchClient:
        return self.user_client(fleet, 0)

    def api_jobs(self, first: list[CampaignRun]) -> list[str]:
        # A tenant sees its own jobs only.
        return [run.job_id for run in self.per_user[0]]


# -- large-tree ------------------------------------------------------------------


SYNTHLIB = {
    "synthlib/__init__.py": '"""Stub of the library the synthetic '
                            'modules import."""\n',
    "synthlib/base.py": (
        "class ServiceError(Exception):\n    pass\n\n\n"
        "class _Client:\n"
        "    def __getattr__(self, name):\n"
        "        return lambda *args, **kwargs: None\n\n\n"
        "client = _Client()\n\n\n"
        "def get_logger():\n    return None\n"),
    "synthlib/utils.py": ("def execute(*args):\n    return args\n\n\n"
                          "def probe(name):\n    return name\n"),
}

IMPORT_ALL = '''"""Import every synthetic module; any import error fails the round."""
import importlib
import pathlib
import sys

count = 0
for path in sorted(pathlib.Path(".").glob("*/mod_*.py")):
    importlib.import_module(".".join(path.with_suffix("").parts))
    count += 1
if count != int(sys.argv[1]):
    print("WORKLOAD FAILURE: imported", count, "modules", file=sys.stderr)
    sys.exit(1)
print("imported", count, "modules")
'''


class SynthTree:
    """One seeded synthetic target: small modules, a 3k-line module, the
    ``synthlib`` stub they import, and an import-everything workload."""

    def __init__(self, root: Path, seed: int, small_files: int) -> None:
        from repro.synth import SynthConfig, generate_codebase, generate_module

        self.root = root
        stats = generate_codebase(root, SynthConfig(
            files=small_files, functions_per_file=3,
            statements_per_function=4, seed=seed))
        self.small = [path.relative_to(root).as_posix()
                      for path in stats.paths]
        big = SynthConfig(files=1, functions_per_file=150,
                          statements_per_function=10, seed=seed)
        rel, source = generate_module(big, "nova", 9000)
        (root / rel).write_text(source)
        self.modules = [*self.small, rel]
        for rel, source in SYNTHLIB.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        (root / "run.py").write_text(IMPORT_ALL)
        self.manifest: dict | None = None

    def lines(self) -> int:
        return sum((self.root / rel).read_text().count("\n")
                   for rel in self.modules)

    def upload(self, client: BenchClient) -> tuple[int, int]:
        """Ship the blobs the service lacks; (bytes sent, tree bytes)."""
        from repro.service.blobs import ImageManifest

        manifest = ImageManifest.from_tree(self.root)
        paths = {entry["digest"]: rel
                 for rel, entry in manifest.entries.items()}
        sent = 0
        for digest in client.missing_blobs(manifest.digests()):
            data = (self.root / paths[digest]).read_bytes()
            client.put_blob(digest, data)
            sent += len(data)
        self.manifest = manifest.to_dict()
        return sent, manifest.total_bytes()


class LargeTree(Workload):
    name = "large-tree"
    setups = 5
    workers = 2
    backend = "remote"
    #: First-pass campaigns, each over its own tree (so each scans and
    #: ships cold); ``campaign_s`` is their median.
    trees = 4
    small_files = 24
    sample = 6
    grow = 3

    def prepare(self) -> None:
        from repro.faultmodel.library import expand_api_faults
        from repro.synth import scan_pattern_apis

        self.tree_list = [SynthTree(self.inputs / f"tree-{index}",
                                    self.seed * self.trees + index,
                                    self.small_files)
                          for index in range(self.trees)]
        self.model = expand_api_faults(scan_pattern_apis(), kinds=None,
                                       model_name="vd2-faultload")
        self.extra["tree_files"] = len(self.tree_list[0].modules)
        self.extra["tree_lines"] = [tree.lines() for tree in self.tree_list]

    def provision(self, fleet: Fleet) -> None:
        client = self.client(fleet)
        client.save_model(self.model)
        for tree in self.tree_list:
            tree.upload(client)

    def config(self, fleet: Fleet, tree: SynthTree,
               sample: int) -> CampaignConfig:
        return CampaignConfig(
            name=f"large-{tree.root.name}",
            # Absent on purpose: the service materializes the tree from
            # the manifest, as it would on a host that never saw it.
            target_dir=self.run_dir / "absent-target",
            fault_model=self.model,
            workload=WorkloadSpec(
                commands=[f"{{python}} run.py {len(tree.modules)}"],
                command_timeout=60.0),
            injectable_files=list(tree.modules),
            coverage=False,
            sample=sample,
            backend="remote",
            shards=2,
            parallelism=2,
            registry_url=fleet.url,
            image_manifest=tree.manifest,
            seed=self.seed,
        )

    def check(self, run: CampaignRun, expected: int) -> None:
        self.expect_count(run, expected)
        for experiment in run.experiments:
            self.expect_rounds(run, experiment, False, False)

    def first_pass(self, fleet: Fleet) -> list[CampaignRun]:
        client = self.client(fleet)
        runs = []
        for tree in self.tree_list:
            run = run_campaign(client, self.counter, tree.root.name,
                               self.config(fleet, tree, self.sample))
            self.check(run, self.sample)
            runs.append(run)
        return runs

    def edit(self) -> None:
        """Append a function with API calls to one small module of each
        tree."""
        for tree in self.tree_list:
            path = tree.root / self.rng.choice(tree.small)
            path.write_text(path.read_text()
                            + "\n\ndef edited_task(ctx):\n"
                              "    base.client.delete_port(ctx, ctx)\n"
                              "    result = base.client.create_volume(ctx)\n"
                              "    return result\n")

    def recampaign(self, fleet: Fleet,
                   first: list[CampaignRun]) -> list[CampaignRun]:
        # The stream of a manifest-submitted campaign is keyed by the
        # tree digest, so an edited tree is a new campaign: it re-uses
        # the scan cache and the blob store, not the first job's stream.
        client = self.client(fleet)
        runs = []
        sent = total = 0
        for tree in self.tree_list:
            tree_sent, tree_total = tree.upload(client)
            sent += tree_sent
            total += tree_total
            run = run_campaign(client, self.counter, f"{tree.root.name}-re",
                               self.config(fleet, tree,
                                           self.sample + self.grow))
            self.check(run, self.sample + self.grow)
            runs.append(run)
        self.extra["dedup_ratio"] = (total - sent) / total
        self.extra["edited_files"] = len(self.tree_list)
        return runs


# -- etcd-case-study -------------------------------------------------------------


class EtcdCaseStudy(Workload):
    name = "etcd-case-study"
    backend = "process"
    #: The fixed sample: every point of these specs.  The re-campaign
    #: grows it by the points of one more spec.
    first_specs = ["B_NONE_KEY"]
    grown_specs = ["B_NONE_KEY", "B_CORRUPT_PATH_PREFIX"]
    #: Injection points of those specs in ``pyetcd/client.py``, counted
    #: by hand from its source: the nine ``path = self._key_endpoint(key)``
    #: assignments, and the four assignments of a string literal plus an
    #: expression.  Pinned here so that a scanner or coverage change that
    #: drops points fails the oracle instead of shrinking the work.
    first_experiments = 9
    added_experiments = 4

    def prepare(self) -> None:
        from repro.casestudy import (
            CASE_STUDY_COMPONENTS,
            CASE_STUDY_RULES,
            case_study_config,
        )

        base = case_study_config("wrong_inputs", self.inputs,
                                 command_timeout=30.0, coverage=True,
                                 seed=self.seed)
        self.base_config = dataclasses.replace(
            base, workspace=None, backend="process", shards=2,
            parallelism=2)
        self.rules = CASE_STUDY_RULES
        self.components = CASE_STUDY_COMPONENTS

    def provision(self, fleet: Fleet) -> None:
        self.client(fleet).save_model(self.base_config.fault_model)

    def campaign(self, client: BenchClient, label: str, specs: list[str],
                 resume_from: str | None = None) -> CampaignRun:
        config = dataclasses.replace(self.base_config, spec_filter=specs)
        return run_campaign(client, self.counter, label, config,
                            rules=self.rules, components=self.components,
                            resume_from=resume_from)

    def check_recorded_once(self, client: BenchClient,
                            run: CampaignRun) -> bytes:
        """Each planned experiment is recorded exactly once, none as a
        harness error; returns the stream's canonical bytes."""
        from repro.orchestrator.stream import ExperimentStream

        raw = client.raw_stream(run.job_id)
        counts: dict[str, int] = {}
        for line in raw.decode("utf-8").splitlines():
            entry = json.loads(line)
            if "meta" in entry:
                continue
            counts[entry["experiment_id"]] = counts.get(
                entry["experiment_id"], 0) + 1
        self.counter.check(
            set(counts) == {e.experiment_id for e in run.experiments}
            and set(counts.values()) == {1},
            f"{run.label}: {len(counts)} ids recorded "
            f"({sorted(set(counts.values()))} times each), "
            f"{len(run.experiments)} listed")
        for experiment in run.experiments:
            self.counter.record(
                "experiment", experiment.status == STATUS_COMPLETED,
                f"{run.label} {experiment.experiment_id}: "
                f"{experiment.status} {experiment.error}")
        path = self.run_dir / f"{run.job_id}.jsonl"
        path.write_bytes(raw)
        return ExperimentStream(path).canonical_bytes()

    def first_pass(self, fleet: Fleet) -> list[CampaignRun]:
        client = self.client(fleet)
        run = self.campaign(client, "etcd", self.first_specs)
        self.expect_count(run, self.first_experiments)
        self.first_bytes = self.check_recorded_once(client, run)
        return [run]

    def recampaign(self, fleet: Fleet,
                   first: list[CampaignRun]) -> list[CampaignRun]:
        client = self.client(fleet)
        run = self.campaign(client, "etcd-re", self.grown_specs,
                            resume_from=first[0].job_id)
        self.expect_count(run, self.first_experiments
                          + self.added_experiments)
        grown = self.check_recorded_once(client, run)
        added = self.expect_unchanged(first[0], run)
        self.counter.check(len(added) == self.added_experiments
                           and run.summary.get("resumed")
                           == self.first_experiments,
                           f"{run.label}: delta {len(added)}, resumed "
                           f"{run.summary.get('resumed')}")
        kept = b"".join(
            line + b"\n" for line in grown.splitlines()
            if json.loads(line)["experiment_id"] not in added)
        self.counter.check(kept == self.first_bytes,
                           f"{run.label}: canonical stream changed beyond "
                           "the grown delta")
        return [run]


WORKLOADS = {cls.name: cls for cls in (SmallJobs, LargeTree, EtcdCaseStudy)}
