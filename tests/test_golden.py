"""Every benchmark command, run in-process and as a fresh CLI process, against
its golden exit code and output.

The command lists, the output normalization and the golden record all come
from ``bench/``, which is loaded read-only, so the benchmark's "outputs
unchanged" check also holds in the test suite.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from braidlift.cli import run

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _load_bench_runner():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up by name while the class body runs.
    sys.modules[spec.name] = module
    # No byte-code cache is written next to the benchmark's sources.
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


bench = _load_bench_runner()
GOLDEN = bench.load_golden()
COMMANDS = [cmd for name in bench.WORKLOADS for cmd in bench.workload_commands(name, seed=0)]


@pytest.mark.parametrize("cmd", COMMANDS, ids=[cmd.label for cmd in COMMANDS])
def test_command_matches_its_golden_record(cmd, capsys):
    code = run(list(cmd.argv))
    out = capsys.readouterr().out
    if cmd.allowed_exits is not None:
        assert code in cmd.allowed_exits
    else:
        record = GOLDEN[cmd.label]
        assert (code, bench.digest(out)) == (record["exit"], record["stdout_sha256"])


#: Output buffered, as the benchmark runs the CLI.
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = str(ROOT / "src")


def cli_process(argv, stdout=subprocess.PIPE):
    """``python -S -m braidlift.cli argv``, run to completion with stderr captured."""
    return subprocess.run([sys.executable, "-S", "-m", "braidlift.cli", *argv], cwd=ROOT,
                          env=ENV, stdin=subprocess.DEVNULL, stdout=stdout,
                          stderr=subprocess.PIPE)


@pytest.mark.parametrize("cmd", COMMANDS, ids=[cmd.label for cmd in COMMANDS])
def test_cli_process_matches_its_golden_record(cmd):
    # Output that main never flushed would be missing here, not in-process.
    proc = cli_process(cmd.argv)
    outcome = bench.Outcome(cmd.label, proc.returncode, 0.0, 0,
                            proc.stdout.decode(), proc.stderr.decode())
    assert bench.judge(cmd, outcome, GOLDEN) == (False, False), (proc.returncode, proc.stderr)


#: 12 KB of output, more than the 8 KiB buffer of stdout.
LARGE = ("survey", "--grid", "d<=4,e<=4,r<=4", "--json")


@pytest.mark.parametrize("sink", ["pipe", "file"])
def test_large_output_is_whole_on_a_pipe_and_in_a_file(sink, capsys, tmp_path):
    assert run(list(LARGE)) == 0
    expected = capsys.readouterr().out.encode()
    assert len(expected) > 8192
    if sink == "pipe":
        proc = cli_process(LARGE)
        out = proc.stdout
    else:
        path = tmp_path / "stdout"
        with open(path, "wb") as fh:
            proc = cli_process(LARGE, stdout=fh)
        out = path.read_bytes()
    assert (proc.returncode, proc.stderr, out) == (0, b"", expected)
