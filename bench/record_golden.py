"""Record the golden exit code and stdout digest of every golden command.

    python3 bench/record_golden.py

Run at the commit whose answers are taken as correct; it rewrites
``bench/golden.json``.  Each command runs under two seeds and must give the
same normalized stdout under both, since only ``cocycle --seed`` sees the
seed and its text output does not depend on it.  Error-path commands are
judged by the exit-code contract and are not recorded.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    golden = {}
    for workload in run.WORKLOADS:
        by_seed = [run.workload_commands(workload, seed) for seed in (1, 2)]
        for cmd, twin in zip(*by_seed):
            if cmd.allowed_exits is not None:
                continue
            outcomes = [run.spawn(run.cli_argv(c), c.label, run.RUN_BUDGET_S) for c in (cmd, twin)]
            digests = {run.digest(o.stdout) for o in outcomes}
            codes = {o.exit_code for o in outcomes}
            if len(digests) != 1 or len(codes) != 1:
                print(f"{cmd.label}: output depends on the seed", file=sys.stderr)
                return 1
            golden[cmd.label] = {"exit": codes.pop(), "stdout_sha256": digests.pop()}
            print(f"{cmd.label}: exit {golden[cmd.label]['exit']}")
    run.GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
