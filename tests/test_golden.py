"""Every benchmark command, run in-process, against its golden exit code and output.

The command lists, the output normalization and the golden record all come
from ``bench/``, which is loaded read-only, so the benchmark's "outputs
unchanged" check also holds in the test suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from braidlift.cli import run

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
