"""braidlift in a fresh interpreter: the CLI's import footprint, and the
benchmark's trace harness (bench/trace_child.py) against the plain CLI.

The harness wraps package functions and methods by name from outside, so a
refactor that drops or renames one of them fails here, not only in a traced
benchmark run.
"""

import ast
import json
import os
import re
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


#: Modules that no command below needs: the argument parsing of argparse and
#: what it pulls in, the value types' old dataclass machinery, --json output,
#: regular expressions and the enum module they import, and the cocycle and
#: verify code.
UNNEEDED = (
    "argparse", "gettext", "shutil", "dataclasses", "typing", "inspect", "json", "random",
    "re", "enum", "braidlift.lattice", "braidlift.intlinalg", "braidlift.acceptance",
)
#: What --json may add, as top-level names without a leading underscore: json,
#: and the regular expressions its decoder compiles (re, _sre) with what they
#: import.
JSON_IMPORTS = {"json", "re", "sre", "enum", "copyreg"}


def modules_after(argv):
    """The modules loaded once a fresh interpreter has run the CLI on argv."""
    probe = python(
        "-c",
        "import sys; from braidlift.cli import run; "
        f"code = run({list(argv)!r}); print(code, sorted(sys.modules))",
    )
    assert probe.returncode == 0, probe.stderr
    code, modules = probe.stdout.splitlines()[-1].split(" ", 1)
    assert code == "0", probe.stdout
    return set(ast.literal_eval(modules))


@pytest.mark.parametrize("argv", [
    ("classify", "--group", "S(4)"),
    ("check-subgroup", "--group", "S(4)", "--generators", "perm=[2,3,1,4];exp=[0,0,0,0]"),
    ("frobenius", "--p", "7", "--q", "3"),
    ("survey", "--grid", "d<=1,e<=1,r<=2"),
    ("--help",),
])
def test_cli_import_loads_no_dataclasses_typing_or_inspect(argv):
    plain = modules_after(argv)
    assert plain.isdisjoint(UNNEEDED), sorted(plain.intersection(UNNEEDED))
    if argv[0] == "--help":
        # help runs no group arithmetic, so it loads none of it
        math = {"braidlift.arrangement", "braidlift.classify", "braidlift.lifting",
                "braidlift.monomial"}
        assert plain.isdisjoint(math), sorted(plain & math)
        return  # help prints no result, so there is no --json output to add
    added = modules_after((*argv, "--json")) - plain
    assert "json" in added and {m.lstrip("_").split(".")[0] for m in added} <= JSON_IMPORTS, added


def mask_elapsed(stdout):
    """stdout with verify's elapsed times ("in 0.2s)") masked, as the
    benchmark's ``normalize`` does."""
    return re.sub(r"\bin \d+(?:\.\d+)?s\)", "in <elapsed>s)", stdout)


@pytest.mark.parametrize("argv", [
    ("classify", "--group", "S(4)"),
    ("check-subgroup", "--group", "S(4)", "--generators",
     "perm=[2,3,1,4];exp=[0,0,0,0];perm=[1,3,4,2];exp=[0,0,0,0]"),
    ("frobenius", "--p", "7", "--q", "3"),
    ("verify",),
    # -1 is central in G(2,1,2): the answer is "faithful: False"
    ("check-subgroup", "--group", "G(2,1,2)", "--generators", "perm=[1,2];exp=[1,1]"),
    ("cocycle", "--group", "S(5)", "--generators", "perm=[2,3,4,5,1];exp=[0,0,0,0,0]",
     "--random", "3", "--seed", "1"),
    # the oracle's power walk and the fast criterion, compared by the handler
    ("check-element", "--group", "S(5)", "--element", "perm=[2,3,1,4,5];exp=[0,0,0,0,0]",
     "--method", "both"),
])
def test_trace_harness_matches_the_plain_cli(tmp_path, argv):
    trace_path = tmp_path / "trace.json"
    plain = python("-m", "braidlift.cli", *argv)
    traced = python(str(ROOT / "bench" / "trace_child.py"), str(trace_path), *argv)
    assert traced.returncode == plain.returncode, traced.stderr
    assert mask_elapsed(traced.stdout) == mask_elapsed(plain.stdout)
    trace = json.loads(trace_path.read_text())
    calls, _total, _self = trace["leaves"]["monomial.mul"]
    assert calls > 0
    assert "monomial.element_init" in trace["counts"]
    if argv[0] == "check-subgroup":
        # each generator parsed through the validating constructor
        assert trace["counts"]["monomial.element_init"] >= argv[-1].count("perm=")
