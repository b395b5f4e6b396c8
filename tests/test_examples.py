"""The example scripts must run clean end to end (they are the first
thing a new user executes).  The three long ones take ``--duration``:
tier-1 runs them for a few virtual seconds — same code path, same output
sections — and the weekly CI job at their full length."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, monkeypatch, capsys, *args):
    """Execute an example as __main__ (with ``args`` as its command
    line) and return its stdout."""
    path = EXAMPLES / name
    assert path.exists(), path
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self, monkeypatch, capsys):
        out = run_example("quickstart.py", monkeypatch, capsys)
        assert "completed=5" in out
        assert "failed=0" in out
        assert "multi-partition commands: 2" in out

    def test_social_network(self, monkeypatch, capsys):
        out = run_example("social_network.py", monkeypatch, capsys, "--duration", "6")
        assert "plans applied" in out
        assert "per-partition load" in out

    def test_tpcc_benchmark(self, monkeypatch, capsys):
        out = run_example("tpcc_benchmark.py", monkeypatch, capsys, "--duration", "4")
        assert "DynaStar (random start)" in out
        assert "S-SMR* (aligned)" in out

    def test_dynamic_celebrity(self, monkeypatch, capsys):
        out = run_example("dynamic_celebrity.py", monkeypatch, capsys, "--duration", "8")
        assert "celebrity user" in out
        assert "repartitionings" in out
