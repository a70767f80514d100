#!/usr/bin/env python3
"""End-to-end benchmark of the braidlift command line, with a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; only the standard library is used.
Every command of a workload runs as a fresh ``python -m braidlift.cli``
process, one at a time (a closed loop with a single client), because a CLI
user pays interpreter start-up, imports and cold caches on every call.

Each command's exit code and normalized stdout are checked against
``bench/golden.json`` (recorded by ``bench/record_golden.py``); the
error-path commands are judged by the documented exit-code contract instead
(0 success, 2 parse error, 3 does not lift, 4 guard exceeded, 5 invariant
violated, never a traceback).

``failed`` in the result counts every command that misses its expectation;
``correct`` is false only when a golden command gives a different answer.

``--trace 0`` repeats passes over the command list until ``--seconds`` have
elapsed and reports the end-to-end metrics.  On a shared machine the speed
of the whole machine drifts by tens of percent within minutes, so an
untraced pass also runs ``bench/reference.py``, a fixed task independent of
braidlift, before and after each command, and ``braidlift --help`` before
each command.  A command's wall time is divided by the mean of the two
reference runs around it, a set-up probe's by the reference run just
before it, and both are multiplied by ``REFERENCE_S``: times are reported
in seconds at a fixed reference speed, so that runs made minutes apart
compare.

* ``wall_s``: one pass over the command list, the sum of each command's
  median over the passes.
* ``setup_s``: time to a ready CLI, the median over the ``--help`` probes.
* ``peak_rss_mb``: the largest max-RSS of any command in a pass, from
  ``os.wait4``, median over the passes.

The raw wall times, the reference times and ``fail_frac`` (failed over
attempted commands) go into the run record.

``--trace 1`` makes one pass through ``bench/trace_child.py``, which wraps
each module's public functions from outside the package, then untraced
passes for the rest of the time, and reports the per-layer metrics;
``trace.overhead_s`` is the traced pass's raw wall time minus the untraced
one's.  The next-to-last stdout line is a run record (machine, source,
seed, per-command outcomes); the last line is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "braidlift"
GOLDEN = BENCH / "golden.json"

DOCUMENTED_EXITS = frozenset({0, 2, 3, 4, 5})
TRACEBACK = "Traceback (most recent call last)"
#: Wall time of ``bench/reference.py`` on a quiet two-core Xeon with Python
#: 3.11.  Times are reported at this reference speed (see the module doc).
REFERENCE_S = 0.05
#: A run must end within 180 s; commands still running at this point are
#: killed and counted as failed.
RUN_BUDGET_S = 165.0


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    #: None: judged against the golden record.  Otherwise the exit codes the
    #: documented contract allows for this error-path input.
    allowed_exits: tuple[int, ...] | None = None


def _affine_z31(f) -> str:
    images = ",".join(str(f(x) % 31 + 1) for x in range(31))
    return f"perm=[{images}];exp=[{','.join(['0'] * 31)}]"


#: x -> x + 1 and x -> 2x on Z/31 generate Z/31 : Z/5 inside S(31).
AFFINE_Z31 = _affine_z31(lambda x: x + 1) + ";" + _affine_z31(lambda x: 2 * x)


def workload_commands(name: str, seed: int) -> list[Command]:
    """The fixed command list of a workload; the seed feeds ``cocycle --seed``."""
    if name == "classify-sweep":
        groups = ("S(8)", "G(2,1,6)", "G(6,3,4)", "G(24,1,2)", "G(32,2,2)")
        return [
            *(Command(f"classify {g}", ("classify", "--group", g)) for g in groups),
            Command("survey d<=2,e<=2,r<=5", ("survey", "--grid", "d<=2,e<=2,r<=5")),
            # An empty grid is either an empty table or a parse error.
            Command("survey d<=0,e<=1,r<=1", ("survey", "--grid", "d<=0,e<=1,r<=1"), (0, 2)),
            Command("classify S(0)", ("classify", "--group", "S(0)"), (2,)),
        ]
    if name == "subgroup-scan":
        return [
            Command("check-subgroup S(6)", (
                "check-subgroup", "--group", "S(6)", "--generators",
                "perm=[2,3,4,5,6,1];exp=[0,0,0,0,0,0];perm=[2,1,3,4,5,6];exp=[0,0,0,0,0,0]")),
            Command("check-subgroup G(6,3,3)", (
                "check-subgroup", "--group", "G(6,3,3)", "--generators",
                "perm=[2,1,3];exp=[0,0,0];perm=[1,3,2];exp=[0,0,0];"
                "perm=[2,1,3];exp=[5,1,0];perm=[1,2,3];exp=[3,0,0]")),
            Command("check-subgroup S(31) affine", (
                "check-subgroup", "--group", "S(31)", "--generators", AFFINE_Z31)),
            Command("frobenius 61 5", ("frobenius", "--p", "61", "--q", "5")),
        ]
    if name == "verify-cocycle":
        return [
            Command("verify", ("verify",)),
            Command("cocycle S(31) affine", (
                "cocycle", "--group", "S(31)", "--generators", AFFINE_Z31,
                "--random", "20", "--seed", str(seed))),
            # A negative trip count is a bad argument, so exit 2.
            Command("cocycle random -1", (
                "cocycle", "--group", "S(3)", "--generators", "perm=[2,3,1];exp=[0,0,0]",
                "--random", "-1"), (2,)),
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("classify-sweep", "subgroup-scan", "verify-cocycle")

#: ``verify`` times criteria 1 and 9 itself ("... in 0.2s)").
_ELAPSED_RE = re.compile(r"\bin \d+(?:\.\d+)?s\)")


def normalize(stdout: str) -> str:
    return _ELAPSED_RE.sub("in <elapsed>s)", stdout)


def digest(stdout: str) -> str:
    return hashlib.sha256(normalize(stdout).encode()).hexdigest()


@dataclass
class Outcome:
    label: str
    exit_code: int
    wall_s: float
    max_rss_kb: int
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # Byte-code is cached as for an installed CLI, and output is buffered.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def spawn(argv: list[str], label: str, timeout_s: float) -> Outcome:
    """Run one process to completion and take its rusage from ``os.wait4``."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        # A killed command exits by signal, outside the documented codes.
        killer = threading.Timer(max(timeout_s, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return Outcome(label, proc.returncode, wall, usage.ru_maxrss,
                   out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def judge(cmd: Command, outcome: Outcome, golden: dict) -> tuple[bool, bool]:
    """(failed, wrong_answer) for one command's outcome.

    A command fails if its exit code is outside the documented set, if its
    stderr holds a traceback, or if it misses its expectation: the golden
    exit code and stdout digest, or for error-path inputs the exit codes
    the contract allows.  A wrong answer is a miss on a golden command.
    """
    broken = (outcome.exit_code not in DOCUMENTED_EXITS
              or TRACEBACK in outcome.stderr)
    if cmd.allowed_exits is not None:
        return broken or outcome.exit_code not in cmd.allowed_exits, False
    record = golden[cmd.label]
    wrong = (outcome.exit_code != record["exit"]
             or digest(outcome.stdout) != record["stdout_sha256"])
    return broken or wrong, wrong


class Tally:
    """Attempted, failed and wrong-answer counts over a run."""

    def __init__(self, golden: dict) -> None:
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.per_command: dict[str, dict] = {}

    def add(self, cmd: Command, outcome: Outcome) -> None:
        failed, wrong = judge(cmd, outcome, self.golden)
        self.attempted += 1
        self.failed += failed
        self.wrong += wrong
        entry = self.per_command.setdefault(
            cmd.label, {"exit_codes": [], "wall_s": [], "failed": 0})
        entry["exit_codes"].append(outcome.exit_code)
        entry["wall_s"].append(outcome.wall_s)
        entry["failed"] += failed

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ``-S`` keeps start-up hooks of the host's site-packages out of every
# timing; braidlift itself has no dependencies.
PYTHON = (sys.executable, "-S")
HELP_ARGV = (*PYTHON, "-m", "braidlift.cli", "--help")
REFERENCE_ARGV = (*PYTHON, str(BENCH / "reference.py"))


def cli_argv(cmd: Command) -> list[str]:
    return [*PYTHON, "-m", "braidlift.cli", *cmd.argv]


def traced_argv(cmd: Command, trace_path: Path) -> list[str]:
    return [*PYTHON, str(BENCH / "trace_child.py"), str(trace_path), *cmd.argv]


def probe(argv: tuple[str, ...], deadline: float) -> float:
    """Wall time of a helper process that must succeed for the run to mean
    anything: ``braidlift --help`` or the reference task."""
    out = spawn(list(argv), argv[-1], deadline - time.perf_counter())
    if out.exit_code != 0 or TRACEBACK in out.stderr:
        raise SystemExit(f"{' '.join(argv[1:])} failed with exit {out.exit_code}:\n{out.stderr}")
    return out.wall_s


def run_pass(cmds: list[Command], tally: Tally, deadline: float,
             trace_dir: Path | None = None) -> tuple[list[Outcome], list[float], list[float]]:
    """One pass over the command list; returns the outcomes, the reference
    task's wall times and the set-up probes' wall times.

    An untraced pass runs the reference task before each command and once
    more at the end, and a set-up probe between the reference task and each
    command, so that both are sampled across the whole run, next to the
    commands they are compared with.  A traced pass runs no probes.
    """
    outcomes, references, setups = [], [], []
    for k, cmd in enumerate(cmds):
        if trace_dir is None:
            references.append(probe(REFERENCE_ARGV, deadline))
            setups.append(probe(HELP_ARGV, deadline))
            argv = cli_argv(cmd)
        else:
            argv = traced_argv(cmd, trace_dir / f"{k:02d}.json")
        outcome = spawn(argv, cmd.label, deadline - time.perf_counter())
        tally.add(cmd, outcome)
        outcomes.append(outcome)
    if trace_dir is None:
        references.append(probe(REFERENCE_ARGV, deadline))
    return outcomes, references, setups


def machine_record(workload: str, seed: int, trace: int) -> dict:
    """Machine and source details; ``seed`` is the one ``cocycle --seed`` gets."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    files = sorted(SRC.rglob("*.py"))
    source = hashlib.sha256()
    for path in files:
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_sha256": source.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


#: Per-layer metrics read straight off one aggregate field, named
#: ``<module>.<function>.<suffix>``; the suffix picks the field.
LAYER_FIELDS = (
    "monomial.mul.calls", "monomial.mul.self_s", "monomial.element_init.calls",
    "monomial.enumerate_elements.yielded", "monomial.closure.total_s",
    "monomial.subgroup_init.total_s", "monomial.subgroup_init.products",
    "monomial.center.total_s",
    "permutations.compose.calls", "permutations.mulclose.total_s",
    "arrangement.act.calls", "arrangement.act.self_s", "arrangement.scalar_on_normal.calls",
    "arrangement.orbits.total_s", "arrangement.acts_faithfully_on_arrangement.total_s",
    "lifting.element_lifts_oracle.calls", "lifting.element_lifts_oracle.total_s",
    "lifting.element_lifts_fast.total_s", "lifting.subgroup_lifts.total_s",
    "classify.bieberbach_bruteforce.total_s", "classify.permutation_group_init.total_s",
    "classify.permutation_group_init.products", "classify.frobenius_coset_action.total_s",
    "classify.as_symmetric_subgroup.total_s", "classify.cayley_embedding.total_s",
    "lattice.trivialize_cocycle.calls", "lattice.trivialize_cocycle.total_s",
    "lattice.trivialize_cocycle.self_s", "lattice.small_generating_set.calls",
    "lattice.small_generating_set.total_s", "lattice.coboundary.total_s",
    "lattice.permute_vector.calls", "lattice.fixed_lattice_rank.total_s",
    "intlinalg.solve.calls", "intlinalg.solve.total_s", "intlinalg.solve.rows",
    "intlinalg.rank.total_s",
    *(f"acceptance.criterion_{k:02d}.total_s" for k in range(1, 13)),
    "cli.run.total_s",
)
_SUFFIX_FIELD = {"calls": "calls", "yielded": "calls", "rows": "size", "products": "mul",
                 "total_s": "total", "self_s": "self"}
_FIELD_UNIT = {"total": "s", "self": "s"}


def aggregate(traces: list[dict]) -> tuple[dict[str, dict[str, float]], float]:
    """Sum the traces of one pass per function; also return the products of
    closure's BFS, i.e. without those of the Subgroup checks nested in it."""
    agg: dict[str, dict[str, float]] = {}

    def entry(name: str) -> dict[str, float]:
        return agg.setdefault(name, dict.fromkeys(
            ("calls", "total", "self", "mul", "act", "compose", "size"), 0))

    closure_bfs_products = 0
    for tr in traces:
        for name, (calls, total, self_s) in tr["leaves"].items():
            e = entry(name)
            e["calls"] += calls
            e["total"] += total
            e["self"] += self_s
        for name, calls in tr["counts"].items():
            entry(name)["calls"] += calls
        names = {sid: name for sid, _parent, name, *_ in tr["spans"]}
        for _sid, parent, name, _start, dur, self_s, mul, act, comp, size in tr["spans"]:
            e = entry(name)
            e["calls"] += 1
            e["total"] += dur
            e["self"] += self_s
            e["mul"] += mul
            e["act"] += act
            e["compose"] += comp
            e["size"] += size or 0
            if name == "monomial.closure":
                closure_bfs_products += mul
            elif name == "monomial.subgroup_init" and names.get(parent) == "monomial.closure":
                closure_bfs_products -= mul
    return agg, closure_bfs_products


def layer_metrics(traces: list[dict], overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the trace files of one traced pass."""
    agg, closure_bfs_products = aggregate(traces)

    def get(name: str, field: str) -> float:
        return agg.get(name, {}).get(field, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for metric in LAYER_FIELDS:
        name, suffix = metric.rsplit(".", 1)
        field = _SUFFIX_FIELD[suffix]
        if name == "classify.permutation_group_init" and field == "mul":
            field = "compose"
        m[metric] = (get(name, field), _FIELD_UNIT.get(field, "count"))
    caches = [tr["caches"]["lattice.hyperplane_permutation"] for tr in traces]
    hits = sum(c["hits"] for c in caches)
    m.update({
        "monomial.closure.products_per_element": (
            ratio(closure_bfs_products, get("monomial.closure", "size")), "products/element"),
        "lifting.element_lifts_oracle.acts_per_call": (
            ratio(get("lifting.element_lifts_oracle", "act"),
                  get("lifting.element_lifts_oracle", "calls")), "acts/call"),
        "lifting.subgroup_lifts.acts_per_element": (
            ratio(get("lifting.subgroup_lifts", "act"), get("lifting.subgroup_lifts", "size")),
            "acts/element"),
        "lattice.hyperplane_permutation.cache_entries": (
            max((c["currsize"] for c in caches), default=0), "count"),
        "lattice.hyperplane_permutation.hit_ratio": (
            ratio(hits, hits + sum(c["misses"] for c in caches)), "ratio"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return m


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def benchmark(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run one workload; returns (result, run record)."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    cmds = workload_commands(workload, seed)
    tally = Tally(load_golden())
    probe(HELP_ARGV, deadline)  # warm-up: writes the byte-code cache
    record = machine_record(workload, seed, trace)
    if trace:
        trace_dir = WORK / "trace" / f"{workload}-seed{seed}"
        trace_dir.mkdir(parents=True, exist_ok=True)
        for old in trace_dir.glob("*.json"):
            old.unlink()
        traced, _, _ = run_pass(cmds, tally, deadline, trace_dir)
        traced_wall = sum(o.wall_s for o in traced)
        traces = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
    walls: dict[str, list[float]] = {cmd.label: [] for cmd in cmds}
    relative_walls: dict[str, list[float]] = {cmd.label: [] for cmd in cmds}
    setups, relative_setups, rss = [], [], []
    passes = 0
    measure_start = time.perf_counter()
    while time.perf_counter() < deadline:
        outcomes, refs, pass_setups = run_pass(cmds, tally, deadline)
        passes += 1
        for k, o in enumerate(outcomes):
            walls[o.label].append(o.wall_s)
            relative_walls[o.label].append(o.wall_s / ((refs[k] + refs[k + 1]) / 2))
            relative_setups.append(pass_setups[k] / refs[k])
        setups += pass_setups
        rss.append(max(o.max_rss_kb for o in outcomes) / 1024)
        if time.perf_counter() - measure_start >= seconds:
            break
    raw_wall = sum(statistics.median(w) for w in walls.values())
    if trace:
        metrics = layer_metrics(traces, traced_wall - raw_wall)
        record["traced_pass_wall_s"] = traced_wall
    else:
        metrics = {
            "wall_s": (REFERENCE_S * sum(statistics.median(r) for r in relative_walls.values()),
                       "s"),
            "setup_s": (REFERENCE_S * statistics.median(relative_setups), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }
    record.update({
        "passes": passes,
        "raw_wall_s": raw_wall,
        "raw_setup_s": statistics.median(setups),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong_answers": tally.wrong,
        "fail_frac": tally.fail_frac,
        "commands": tally.per_command,
    })
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "braidlift" / "cli.py").is_file() or not GOLDEN.is_file():
        print(f"no braidlift sources under {SRC} or no golden record: "
              "run from the root of a braidlift checkout", file=sys.stderr)
        return 2
    result, record = benchmark(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
