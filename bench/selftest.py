"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that:

* every metric named in BENCHMARK.json is emitted, with its unit, for every
  workload, both untraced (end-to-end, all above zero) and traced
  (per-layer);
* every ``.calls``, ``.products``, ``.rows`` and ``.yielded`` count of the
  traced run repeats exactly under two ``PYTHONHASHSEED`` values;
* a corrupted stdout, an undocumented exit code and a traceback are each
  counted as failed commands, and verify's elapsed times are masked;
* the benchmark exits non-zero, printing no result, in a directory that
  holds only BENCHMARK.json and the benchmark's own files.

Takes about three minutes on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", ".products", ".rows", ".yielded")


def bench(root, workload: str, trace: int, hashseed: str | None = None):
    env = dict(os.environ)
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["attempted"] >= 1, result
    return result


def check_metrics(result: dict, specs: list[dict], where: str) -> None:
    emitted = result["metrics"]
    expected = {m["name"]: m["unit"] for m in specs}
    assert set(emitted) == set(expected), (
        f"{where}: missing {sorted(set(expected) - set(emitted))}, "
        f"extra {sorted(set(emitted) - set(expected))}")
    for name, unit in expected.items():
        assert emitted[name]["unit"] == unit, (where, name, emitted[name])


def check_judging() -> None:
    golden = run.load_golden()
    cmd = run.workload_commands("classify-sweep", 0)[4]
    good = run.spawn(run.cli_argv(cmd), cmd.label, 60)
    corrupted = run.Outcome(**{**vars(good), "stdout": good.stdout.replace("True", "False", 1)})
    undocumented = run.Outcome(**{**vars(good), "exit_code": 1})
    crashed = run.Outcome(**{**vars(good), "stderr": run.TRACEBACK})
    tally = run.Tally(golden)
    for outcome in (good, corrupted, undocumented, crashed):
        tally.add(cmd, outcome)
    assert (tally.attempted, tally.failed, tally.wrong) == (4, 3, 2), vars(tally)
    assert tally.fail_frac == 0.75
    error_path = run.workload_commands("verify-cocycle", 0)[2]
    assert run.judge(error_path, run.Outcome(error_path.label, 5, 0.1, 0, "", ""), golden) == (
        True, False)
    assert run.judge(error_path, run.Outcome(error_path.label, 2, 0.1, 0, "", ""), golden) == (
        False, False)
    line = "[PASS] criterion  1: oracle/fast equivalence (4 elements across 17 groups in {}s)"
    assert run.normalize(line.format("0.2")) == run.normalize(line.format("13.75"))
    print("judging: corrupted stdout, undocumented exit and traceback all counted")


def check_bare_directory() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare, run.WORKLOADS[0], 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print(f"bare directory: exit {proc.returncode}, no result printed")


def check_workloads() -> None:
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(run.WORKLOADS), names
    for workload in names:
        untraced = result_of(bench(run.ROOT, workload, 0))
        check_metrics(untraced, SPEC["end_to_end"], workload)
        assert all(m["value"] > 0 for m in untraced["metrics"].values()), untraced
        traced = [result_of(bench(run.ROOT, workload, 1, seed)) for seed in ("1", "2")]
        for result in traced:
            check_metrics(result, SPEC["per_layer"], f"{workload} traced")
        counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
                  for r in traced]
        assert counts[0] == counts[1], (workload, counts)
        print(f"{workload}: all metrics emitted; {len(counts[0])} counts repeat across "
              "PYTHONHASHSEED 1 and 2")


def main() -> int:
    check_judging()
    check_bare_directory()
    check_workloads()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
