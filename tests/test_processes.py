"""braidlift in a fresh interpreter: the CLI's import footprint, and the
benchmark's trace harness (bench/trace_child.py) against the plain CLI.

The harness wraps package functions and methods by name from outside, so a
refactor that drops or renames one of them fails here, not only in a traced
benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def python(*argv):
    # -S: no site-packages start-up hooks, as the benchmark runs the CLI.
    return subprocess.run(
        [sys.executable, "-S", *argv], cwd=ROOT, env=ENV, capture_output=True, text=True
    )


def test_cli_import_loads_no_dataclasses_typing_or_inspect():
    probe = python(
        "-c",
        "import braidlift.cli, sys; "
        "print(sorted(m for m in ('dataclasses', 'typing', 'inspect') if m in sys.modules))",
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ("classify", "--group", "S(4)"),
    ("check-subgroup", "--group", "S(4)", "--generators",
     "perm=[2,3,1,4];exp=[0,0,0,0];perm=[1,3,4,2];exp=[0,0,0,0]"),
])
def test_trace_harness_matches_the_plain_cli(tmp_path, argv):
    trace_path = tmp_path / "trace.json"
    plain = python("-m", "braidlift.cli", *argv)
    traced = python(str(ROOT / "bench" / "trace_child.py"), str(trace_path), *argv)
    assert traced.returncode == plain.returncode, traced.stderr
    assert traced.stdout == plain.stdout
    trace = json.loads(trace_path.read_text())
    calls, _total, _self = trace["leaves"]["monomial.mul"]
    assert calls > 0
    assert "monomial.element_init" in trace["counts"]
    if argv[0] == "check-subgroup":
        # two generators parsed through the validating constructor
        assert trace["counts"]["monomial.element_init"] >= 2
