"""braidlift in a fresh interpreter: the CLI's import footprint, the cyclic
garbage its commands leave, the collector policy and exit path of its entry
point, and the benchmark's trace harness (bench/trace_child.py) against the
plain CLI.

The harness wraps package functions and methods by name from outside, so a
refactor that drops or renames one of them fails here, not only in a traced
benchmark run.
"""

import ast
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from braidlift.cli import run

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def python(*argv):
    # -S: no site-packages start-up hooks, as the benchmark runs the CLI.
    return subprocess.run(
        [sys.executable, "-S", *argv], cwd=ROOT, env=ENV, capture_output=True, text=True
    )


#: Modules that no command below needs: the argument parsing of argparse and
#: what it pulls in, the value types' old dataclass machinery, --json output,
#: regular expressions and the enum module they import, the deferred
#: annotations of __future__ and the abc generics, random (cocycle and verify
#: draw from its C core, _random), and the cocycle and verify code.
UNNEEDED = (
    "argparse", "gettext", "shutil", "dataclasses", "typing", "inspect", "json", "random",
    "re", "enum", "__future__", "collections.abc",
    "braidlift.lattice", "braidlift.intlinalg", "braidlift.acceptance",
)
#: The modules of UNNEEDED that cocycle and verify run.
RUNS = {
    "cocycle": {"braidlift.lattice", "braidlift.intlinalg"},
    "verify": {"braidlift.lattice", "braidlift.intlinalg", "braidlift.acceptance"},
}
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
    ("cocycle", "--group", "S(4)", "--generators", "perm=[2,3,1,4];exp=[0,0,0,0]",
     "--random", "3"),
    ("verify",),
])
def test_cli_import_loads_no_dataclasses_typing_or_inspect(argv):
    plain = modules_after(argv)
    unneeded = set(UNNEEDED) - RUNS.get(argv[0], set())
    assert plain.isdisjoint(unneeded), sorted(plain & unneeded)
    if argv[0] == "--help":
        # help runs no group arithmetic, so it loads none of it
        math = {"braidlift.arrangement", "braidlift.classify", "braidlift.lifting",
                "braidlift.monomial"}
        assert plain.isdisjoint(math), sorted(plain & math)
    if argv[0] in ("--help", "verify"):
        return  # neither prints a result that --json could format
    added = modules_after((*argv, "--json")) - plain
    assert "json" in added and {m.lstrip("_").split(".")[0] for m in added} <= JSON_IMPORTS, added


def garbage_after(argv):
    """The exit code of run(argv) in a fresh interpreter, and the objects that
    gc.collect() then finds, with every module imported beforehand and the
    collector off while the command runs."""
    probe = python(
        "-c",
        "import gc, importlib, json, pkgutil, random, braidlift\n"
        "for info in pkgutil.iter_modules(braidlift.__path__):\n"
        "    importlib.import_module('braidlift.' + info.name)\n"
        "from braidlift.cli import run\n"
        "gc.collect(); gc.disable()\n"
        f"code = run({list(argv)!r})\n"
        "print(code, gc.collect())",
    )
    assert probe.returncode == 0, probe.stderr
    return tuple(map(int, probe.stdout.splitlines()[-1].split()))


# The values are integer tuples and frozensets with no reference cycles, so
# reference counting frees them all: cli.main runs with the collector off.
@pytest.mark.parametrize("argv, code", [
    (("classify", "--group", "G(2,1,3)"), 0),
    (("survey", "--grid", "d<=2,e<=2,r<=3"), 0),
    (("check-element", "--group", "S(5)", "--element", "perm=[2,3,1,4,5];exp=[0,0,0,0,0]",
      "--method", "both"), 0),
    # a transposition fixes a hyperplane it acts on by -1: the refusal path
    (("check-element", "--group", "S(4)", "--element", "perm=[2,1,3,4];exp=[0,0,0,0]"), 3),
    (("check-subgroup", "--group", "S(5)", "--generators",
      "perm=[2,3,4,5,1];exp=[0,0,0,0,0];perm=[2,1,3,4,5];exp=[0,0,0,0,0]"), 3),
    (("frobenius", "--p", "7", "--q", "3"), 0),
    (("cocycle", "--group", "S(5)", "--generators", "perm=[2,3,4,5,1];exp=[0,0,0,0,0]",
      "--random", "3", "--seed", "1"), 0),
    (("verify",), 0),
    (("frobenius", "--p", "-7", "--q", "3"), 2),
    (("frobenius", "--p", "1009", "--q", "3"), 4),
])
def test_commands_leave_no_cyclic_garbage(argv, code):
    assert garbage_after(argv) == (code, 0)


def test_json_garbage_does_not_grow_with_the_input():
    # the stdlib encoder's mutually recursive closures, a fixed count per dump
    small, large = (garbage_after(("classify", "--group", g, "--json")) for g in ("S(3)", "S(8)"))
    assert small[0] == large[0] == 0 and small[1] == large[1], (small, large)


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_the_collector_to_its_caller(capsys, enabled):
    frozen = gc.get_freeze_count()
    try:
        if not enabled:
            gc.disable()
        assert run(["classify", "--group", "S(4)"]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        gc.enable()
    capsys.readouterr()


@pytest.mark.parametrize("argv, code", [
    (("classify", "--group", "S(4)"), 0),
    (("classify", "--group", "S(0)"), 2),
    (("check-element", "--group", "S(4)", "--element", "perm=[2,1,3,4];exp=[0,0,0,0]"), 3),
    (("frobenius", "--p", "1009", "--q", "3"), 4),
])
def test_main_runs_with_the_collector_off_and_ends_at_os_exit(argv, code):
    probe = python(
        "-c",
        "import gc, os, sys; from braidlift.cli import main\n"
        "before, real_exit = gc.isenabled(), os._exit\n"
        "def _exit(code):\n"
        "    print(before, gc.isenabled(), gc.get_freeze_count(), code, flush=True)\n"
        "    real_exit(code)\n"
        "os._exit = _exit\n"
        f"sys.argv = ['braidlift', *{list(argv)!r}]\n"
        "main()\n"
        "print('main returned')",
    )
    assert probe.stdout.splitlines()[-1] == f"True False 0 {code}", probe.stderr
    assert probe.returncode == code


@pytest.mark.parametrize("argv, stream", [
    # 12 KB, more than the 8 KiB buffer: the command's own print fails
    (("survey", "--grid", "d<=4,e<=4,r<=4", "--json"), "stdout"),
    # a line or two, held in the buffer until main flushes it
    (("classify", "--group", "S(4)"), "stdout"),
    (("check-element", "--group", "S(4)", "--element", "perm=[2,1,3,4];exp=[0,0,0,0]"), "stdout"),
    # the parse error's line on stderr
    (("classify", "--group", "S(0)"), "stderr"),
])
def test_a_closed_output_pipe_exits_141_without_a_traceback(argv, stream):
    read, write = os.pipe()
    os.close(read)
    # Output is buffered, as for an installed CLI.
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: write}
    try:
        proc = subprocess.run(
            [sys.executable, "-S", "-m", "braidlift.cli", *argv], cwd=ROOT, env=env, **streams)
    finally:
        os.close(write)
    # nothing on the stream left open either: no traceback, no "Exception ignored"
    captured = proc.stderr if stream == "stdout" else proc.stdout
    assert (proc.returncode, captured) == (141, b"")


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
def test_trace_harness_matches_the_plain_cli(tmp_path, capsys, argv):
    trace_path = tmp_path / "trace.json"
    code = run(list(argv))
    plain = capsys.readouterr().out
    traced = python(str(ROOT / "bench" / "trace_child.py"), str(trace_path), *argv)
    assert traced.returncode == code, traced.stderr
    assert mask_elapsed(traced.stdout) == mask_elapsed(plain)
    trace = json.loads(trace_path.read_text())
    # every command runs under the cli.run span, its parent -1
    assert any(span[1:3] == [-1, "cli.run"] for span in trace["spans"])
    calls, _total, _self = trace["leaves"]["monomial.mul"]
    assert calls > 0
    assert "monomial.element_init" in trace["counts"]
    if argv[0] == "check-subgroup":
        # each generator parsed through the validating constructor
        assert trace["counts"]["monomial.element_init"] >= argv[-1].count("perm=")
