"""Run one braidlift CLI command with its layers traced from the outside.

    PYTHONPATH=src python3 bench/trace_child.py TRACE.json CLI-ARGS...

Behaves like ``python -m braidlift.cli CLI-ARGS...`` (same stdout, stderr
and exit code) and writes the trace to TRACE.json, even when the command
raises.  Nothing inside the package changes: each traced function object is
replaced by a wrapper wherever a ``braidlift.*`` module binds it, and four
methods are wrapped on their classes.

Coarse calls become parent-linked spans ``[id, parent, name, start, dur,
self, mul, act, compose, size]``: ``self`` is ``dur`` minus the time of
traced calls nested in it, ``mul``/``act``/``compose`` count the hot-leaf
calls made inside it, and ``size`` is a per-function work size (elements of
a closure, elements scanned, solver rows).  Hot leaves only aggregate
``[calls, total, self]`` so the trace stays small.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path
from time import perf_counter

import braidlift.cli  # noqa: F401  (imports every module of the package)
from braidlift import (
    acceptance,
    arrangement,
    classify,
    cli,
    intlinalg,
    lattice,
    lifting,
    monomial,
    permutations,
)


class Tracer:
    def __init__(self) -> None:
        # Each timed call pushes a cell that its nested timed calls add their
        # durations to; the root cell absorbs top-level calls.
        self.frames: list[list[float]] = [[0.0]]
        self.open_spans: list[int] = []
        self.ids = itertools.count()
        self.leaves: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.mul = self.leaf_aggregate("monomial.mul")
        self.act = self.leaf_aggregate("arrangement.act")
        self.compose = self.leaf_aggregate("permutations.compose")

    def leaf_aggregate(self, name: str) -> list:
        return self.leaves.setdefault(name, [0, 0.0, 0.0])

    def count(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count_yields(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def leaf(self, name: str, fn):
        agg = self.leaf_aggregate(name)
        frames = self.frames

        def wrapper(*args, **kwargs):
            cell = [0.0]
            frames.append(cell)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                frames.pop()
                frames[-1][0] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - cell[0]

        return wrapper

    def span(self, name: str, fn, size=None):
        frames, open_spans, spans, ids = self.frames, self.open_spans, self.spans, self.ids
        mul, act, compose = self.mul, self.act, self.compose

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(sid)
            cell = [0.0]
            frames.append(cell)
            m0, a0, c0 = mul[0], act[0], compose[0]
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = perf_counter() - start
                frames.pop()
                frames[-1][0] += dur
                open_spans.pop()
                spans.append((sid, parent, name, start, dur, dur - cell[0],
                              mul[0] - m0, act[0] - a0, compose[0] - c0,
                              size(args, result) if size else None))

        return wrapper

    def to_json(self) -> dict:
        info = lattice.hyperplane_permutation.cache_info()
        return {
            "leaves": self.leaves,
            "counts": self.counts,
            "spans": self.spans,
            "caches": {"lattice.hyperplane_permutation": info._asdict()},
        }


def rebind(original, wrapper) -> None:
    """Replace every binding of ``original`` in the loaded braidlift modules,
    including inside module-level tuples such as the criteria table."""
    for name, module in list(sys.modules.items()):
        if name != "braidlift" and not name.startswith("braidlift."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif type(value) is tuple and any(v is original for v in value):
                setattr(module, attr, tuple(wrapper if v is original else v for v in value))


def _len_result(args, result) -> int:
    return len(result) if result is not None else 0


def _len_first_arg(args, result) -> int:
    return len(args[0])


def install() -> Tracer:
    tracer = Tracer()
    methods = (
        (monomial.MonomialElement, "__mul__", tracer.leaf, "monomial.mul"),
        (monomial.MonomialElement, "__post_init__", tracer.count, "monomial.element_init"),
        (monomial.Subgroup, "__post_init__", tracer.span, "monomial.subgroup_init"),
        (classify.PermutationGroup, "__post_init__", tracer.span,
         "classify.permutation_group_init"),
    )
    for cls, attr, kind, name in methods:
        setattr(cls, attr, kind(name, getattr(cls, attr)))
    functions = [
        (tracer.leaf, arrangement.act, "arrangement.act"),
        (tracer.leaf, arrangement.scalar_on_normal, "arrangement.scalar_on_normal"),
        (tracer.leaf, permutations.compose, "permutations.compose"),
        (tracer.leaf, lattice.permute_vector, "lattice.permute_vector"),
        (tracer.count_yields, monomial.enumerate_elements, "monomial.enumerate_elements"),
        (tracer.span, monomial.center, "monomial.center"),
        (tracer.span, permutations.mulclose, "permutations.mulclose"),
        (tracer.span, arrangement.orbits, "arrangement.orbits"),
        (tracer.span, arrangement.acts_faithfully_on_arrangement,
         "arrangement.acts_faithfully_on_arrangement"),
        (tracer.span, lifting.element_lifts_oracle, "lifting.element_lifts_oracle"),
        (tracer.span, lifting.element_lifts_fast, "lifting.element_lifts_fast"),
        (tracer.span, classify.bieberbach_bruteforce, "classify.bieberbach_bruteforce"),
        (tracer.span, classify.frobenius_coset_action, "classify.frobenius_coset_action"),
        (tracer.span, classify.as_symmetric_subgroup, "classify.as_symmetric_subgroup"),
        (tracer.span, classify.cayley_embedding, "classify.cayley_embedding"),
        (tracer.span, lattice.trivialize_cocycle, "lattice.trivialize_cocycle"),
        (tracer.span, lattice.small_generating_set, "lattice.small_generating_set"),
        (tracer.span, lattice.coboundary, "lattice.coboundary"),
        (tracer.span, lattice.fixed_lattice_rank, "lattice.fixed_lattice_rank"),
        (tracer.span, intlinalg.rank, "intlinalg.rank"),
        (tracer.span, cli.run, "cli.run"),
    ]
    functions += [
        (tracer.span, getattr(acceptance, f"criterion_{k}"), f"acceptance.criterion_{k:02d}")
        for k in range(1, 13)
    ]
    for kind, fn, name in functions:
        rebind(fn, kind(name, fn))
    sized = (
        (monomial.closure, "monomial.closure", _len_result),
        (lifting.subgroup_lifts, "lifting.subgroup_lifts", _len_first_arg),
        (intlinalg.solve, "intlinalg.solve", _len_first_arg),
    )
    for fn, name, size in sized:
        rebind(fn, tracer.span(name, fn, size))
    return tracer


def main() -> None:
    trace_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = install()
    try:
        code = cli.run(argv)
    finally:
        trace_path.write_text(json.dumps(tracer.to_json()))
    sys.exit(code)


if __name__ == "__main__":
    main()
