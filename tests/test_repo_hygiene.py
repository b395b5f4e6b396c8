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
