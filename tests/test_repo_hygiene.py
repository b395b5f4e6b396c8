"""Repository hygiene checks.

Guards against the class of rot that produced the stale
``src/repro/elastic/`` leftover (a package directory holding only a
``__pycache__``, invisible to git but shadowing imports): every package
directory under ``src/repro`` must contain real source files and an
``__init__.py`` that git actually tracks.
"""

import subprocess
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"


def _git_tracked_files() -> set:
    """Paths (relative to the repo root) git tracks, or None when the
    test runs outside a git checkout (e.g. an unpacked sdist)."""
    try:
        out = subprocess.run(
            ["git", "ls-files", "-z", "src/repro"],
            cwd=REPO_ROOT,
            capture_output=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return {p for p in out.stdout.decode().split("\0") if p}


def _package_dirs() -> list:
    """Every directory under src/repro (inclusive) that is, or should
    be, a python package — i.e. not a __pycache__."""
    dirs = [SRC_REPRO]
    for path in sorted(SRC_REPRO.rglob("*")):
        if path.is_dir() and path.name != "__pycache__":
            dirs.append(path)
    return dirs


def test_every_package_dir_has_init():
    missing = [
        str(d.relative_to(REPO_ROOT))
        for d in _package_dirs()
        if not (d / "__init__.py").is_file()
    ]
    assert not missing, f"package dirs without __init__.py: {missing}"


def test_every_package_init_is_tracked_in_git():
    tracked = _git_tracked_files()
    if tracked is None:
        return  # not a git checkout; the filesystem check above suffices
    untracked = []
    for d in _package_dirs():
        rel = (d / "__init__.py").relative_to(REPO_ROOT).as_posix()
        if rel not in tracked:
            untracked.append(rel)
    assert not untracked, f"package __init__.py not tracked by git: {untracked}"


def test_no_pycache_only_package_dirs():
    """A directory whose only content is __pycache__ is a stale leftover
    of a deleted package (the src/repro/elastic failure mode)."""
    stale = []
    for path in sorted(SRC_REPRO.rglob("*")):
        if not path.is_dir() or path.name == "__pycache__":
            continue
        entries = [p for p in path.iterdir() if p.name != "__pycache__"]
        if not entries:
            stale.append(str(path.relative_to(REPO_ROOT)))
    assert not stale, f"stale __pycache__-only package dirs: {stale}"


def test_partition_server_has_one_pump_and_no_baseline_fork():
    """``core/server.py`` runs one scheduler with one per-command state
    table and one service clock, and knows no baseline: the names of the
    forks it used to carry must not come back."""
    source = (SRC_REPRO / "core" / "server.py").read_text()
    banned = (
        "_pump_serial", "_pump_lanes", "_head_state", "_next_free",
        "_dssmr_", "self.mode",
    )
    assert [name for name in banned if name in source] == []


def test_replaced_log_and_result_cache_names_are_gone():
    """One truncation rule and one client table: the checkpoint-minimum
    messages and the per-command result cache they replaced must not
    come back under ``src/``."""
    banned = (
        "_node_uids", "_exec_entries_for", "_merge_exec_entries",
        "TruncateLog", "WatermarkNotice",
    )
    found = sorted(
        (name, str(path.relative_to(REPO_ROOT)))
        for path in SRC_REPRO.rglob("*.py")
        for name in banned
        if name in path.read_text()
    )
    assert found == []


def test_partition_server_keeps_execution_only():
    """One ingress gate (``core.admission.IngressGate``), one record per
    attempt (``_attempts`` / ``_closed``) and the read path in
    ``repro.compartment.serverside``: the three gates, eight tables and
    the lease / feed / probe methods they replaced must not come back
    under ``src/``, nor the lines into ``core/server.py``."""
    banned = (
        "_admit_retiring", "_has_claimed_borrows", "_on_proxied_submit",
        "recv_transfers", "recv_returns", "transfer_failures", "aborted_cmds",
        "_finished_cmds", "_cmd_states", "_nodes_cache", "_fp_cache",
        "_feed_versions", "_must_defer_probe",
    )
    found = sorted(
        (name, str(path.relative_to(REPO_ROOT)))
        for path in SRC_REPRO.rglob("*.py")
        for name in banned
        if name in path.read_text()
    )
    assert found == []
    server = (SRC_REPRO / "core" / "server.py").read_text()
    assert len(server.splitlines()) <= 1350
    busy_sites = [
        str(path.relative_to(SRC_REPRO))
        for path in SRC_REPRO.rglob("*.py")
        for _ in range(path.read_text().count("ServerBusy("))
    ]
    assert busy_sites == ["core/admission.py"]  # built by the gate, nowhere else
    compartment_imports = {
        line.split()[1]
        for line in server.splitlines()
        if line.startswith("from repro.compartment")
    }
    assert compartment_imports <= {
        "repro.compartment.config",
        "repro.compartment.messages",
        "repro.compartment.serverside",
    }


def test_perf_is_the_exact_gate_and_nothing_else():
    """``repro.experiments.perf`` replays seeded runs and compares them
    with committed digests.  The single-shot wall-clock figures it used
    to carry, and the replay-twice loops and flags of the subsystem CLIs
    that its registry replaced, must not come back under ``src/``."""
    banned = (
        "events_per_sec", "peak_rss_kb", "BENCH_", "micro_", "check_determinism",
        "--check-determinism", "--strict-baseline", "--skip-macro",
    )
    found = sorted(
        (name, str(path.relative_to(REPO_ROOT)))
        for path in SRC_REPRO.rglob("*.py")
        for name in banned
        if name in path.read_text()
    )
    assert found == []
    perf = (SRC_REPRO / "experiments" / "perf.py").read_text()
    assert len(perf.splitlines()) <= 350


def test_names_the_benchmark_patches_from_outside_exist():
    """``benchmarks/e2e/hostspans.py`` wraps these by name for its traced
    pass; it may not be edited together with ``src/``, so a rename here
    breaks the benchmark of the very change that makes it."""
    import repro.core.oracle
    import repro.core.server
    import repro.smr.statemachine
    from repro.consensus.paxos import PaxosReplica
    from repro.core import OracleReplica, PartitionServer
    from repro.multicast.basecast import MulticastReplica

    assert callable(repro.core.server.copy_value)
    assert callable(repro.smr.statemachine.copy_value)
    assert callable(repro.core.oracle.partition_graph)
    assert "on_message" in vars(PaxosReplica)
    handlers = {"on_other_message", "on_app_message", "deliver_value", "adeliver"}
    defined = set()
    for cls in (PaxosReplica, MulticastReplica, PartitionServer, OracleReplica):
        defined |= handlers & set(vars(cls))
    assert defined == handlers


def test_design_module_map_names_modules_that_import():
    """DESIGN.md §3 once listed five modules that did not exist and
    omitted four packages: every back-quoted name in the table's third
    column must import as a module of the package in its second, and
    every package under ``src/repro`` must have a row."""
    import importlib
    import re

    text = (REPO_ROOT / "DESIGN.md").read_text()
    section = text.split("## 3. System inventory", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|") and "`repro." in line
    ]
    packages = set()
    for _subsystem, package, contents in rows:
        package = package.strip("`")
        packages.add(package)
        for module in re.findall(r"`([^`]+)`", contents):
            importlib.import_module(f"{package}.{module}")
    on_disk = {
        ".".join(d.relative_to(SRC_REPRO.parent).parts)
        for d in _package_dirs()
        if any(p.suffix == ".py" and p.name != "__init__.py" for p in d.iterdir())
    }
    assert packages == on_disk


def test_nothing_under_src_copies_a_stored_value():
    """A value is immutable once it is in a ``VariableStore`` and every
    holder shares it (DESIGN.md §5), so no module has a reason to
    copy one.  ``smr/fastcopy.py`` is the test oracle of that contract
    and the only place a copy may be spelled; a defensive copy added
    anywhere else has to delete this test to land."""
    import re

    call = re.compile(r"\b(copy_value|deepcopy|insert_copy)\s*\(")
    found = sorted(
        f"{path.relative_to(REPO_ROOT)}:{number}"
        for path in SRC_REPRO.rglob("*.py")
        if path != SRC_REPRO / "smr" / "fastcopy.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if call.search(line)
    )
    assert found == []


def test_one_verdict_one_runner():
    """``harness.check_run`` is the one statement of what a correct run
    is and ``python -m repro.experiments`` the one scenario command line:
    the partial checks, the per-scenario CLIs and the flags that made
    checking optional must not come back."""
    import re

    banned = (
        "verify_consistency", "--check-consistency", "--check-scaling",
        "stuck_clients", "run_flash_crowd", "build_flash_crowd",
    )
    sources = {
        path: path.read_text()
        for root in (SRC_REPRO, REPO_ROOT / "tests", REPO_ROOT / "examples")
        for path in root.rglob("*.py")
        if path != Path(__file__)
    }
    found = sorted(
        (name, str(path.relative_to(REPO_ROOT)))
        for path, text in sources.items()
        for name in banned
        if name in text
    )
    assert found == []
    helpers = ("assert_replicas_agree", "assert_no_stuck_clients",
               "assert_conservation", "assert_variables_conserved")
    assert [n for n in helpers for text in sources.values() if n in text] == []

    src = {p: t for p, t in sources.items() if SRC_REPRO in p.parents}
    entry_points = sorted(
        str(path.relative_to(SRC_REPRO))
        for path, text in src.items()
        if '__name__ == "__main__"' in text
    )
    assert entry_points == [
        "experiments/__main__.py", "experiments/perf.py",
        "experiments/run_all.py", "obs/explain.py", "obs/report.py",
    ]
    flags = [
        flag
        for text in src.values()
        for flag in re.findall(r'add_argument\(\s*"(--[a-z-]+)"', text)
    ]
    assert len(flags) <= 30, flags
    # --check-reconfig / --check-reads judge a *report*, not a run.
    assert {f for f in flags if f.startswith("--check-")} == {
        "--check-reconfig", "--check-reads", "--check-integrity",
    }


def test_knobs_nobody_set_stay_constants():
    import dataclasses

    from repro.core import SystemConfig

    fields = {field.name for field in dataclasses.fields(SystemConfig)}
    assert not fields & {"admission_ttl", "client_rate_burst", "client_breaker_jitter"}
    assert len(fields) <= 39  # a simplification PR adds no option


def test_config_fields_nobody_set_twice_stay_constants():
    """A config field names a consumer that needs a second value; the
    sixteen that no workload, experiment or benchmark set to more than
    one are module constants beside their consumers (or, the elastic
    bounds, live on only in the nested ``ElasticConfig``) and must not
    come back, neither as fields nor under their old names."""
    import dataclasses
    import re

    from repro.compartment import CompartmentConfig
    from repro.consensus.paxos import ReplicaConfig
    from repro.core import SystemConfig
    from repro.elastic import ElasticConfig

    removed = {
        SystemConfig: {
            "admission_headroom", "admission_retry_after",
            "client_retry_budget_ratio", "client_breaker_cooldown",
            "elastic_split_factor", "elastic_merge_factor",
            "elastic_eval_interval", "elastic_cooldown",
            "max_partitions", "min_partitions",
        },
        ReplicaConfig: {
            "watermark_ttl", "snapshot_retry", "snapshot_giveup",
            "snapshot_chunk_init", "snapshot_chunk_max",
        },
        ElasticConfig: {"min_split_nodes"},
    }
    fields = {
        cls: {field.name for field in dataclasses.fields(cls)}
        for cls in (SystemConfig, ReplicaConfig, CompartmentConfig, ElasticConfig)
    }
    assert sum(len(names) for names in fields.values()) <= 65
    assert {cls: names & fields[cls] for cls, names in removed.items()} == {
        cls: set() for cls in removed
    }

    gone = set().union(*removed.values()) - {"max_partitions", "min_partitions"}
    assert len(gone) == 14
    word = re.compile(r"\b(" + "|".join(sorted(gone)) + r")\b")
    found = sorted(
        (match, str(path.relative_to(REPO_ROOT)))
        for root in ("src", "tests", "examples", "benchmarks")
        for path in (REPO_ROOT / root).rglob("*.py")
        if path != Path(__file__)
        for match in word.findall(path.read_text())
    )
    assert found == []
    quoted = sorted(
        (match, doc)
        for doc in ("README.md", "DESIGN.md")
        for span in re.findall(r"`([^`\n]+)`", (REPO_ROOT / doc).read_text())
        for match in word.findall(span)
    )
    assert quoted == []
