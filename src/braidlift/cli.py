"""Command-line frontend for the lifting criteria and classifications.

Exit codes: 0 success (and "lifts" for the check commands), 2 parse error,
3 the element or subgroup does not lift, 4 enumeration guard exceeded,
5 internal invariant violation (two provably-equal routes disagreed).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Sequence
from itertools import product
from random import Random

from . import acceptance
from .arrangement import hyperplane_count, orbits, acts_faithfully_on_arrangement
from .classify import (
    FrobeniusSpec,
    OracleBudget,
    as_symmetric_subgroup,
    bieberbach_bruteforce,
    frobenius_coset_action,
    has_free_cycle_type,
    has_odd_lift_property,
    is_bieberbach_series,
)
from .errors import GuardExceeded, InvariantViolation, MismatchError, ParseError
from .lattice import coboundary_roundtrips
from .lifting import LiftReport, element_lifts_fast, element_lifts_oracle, subgroup_lifts
from .monomial import (
    ENUMERATION_GUARD,
    GroupDescriptor,
    center_order,
    closure,
    parse_element,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NO_LIFT = 3
EXIT_GUARD = 4
EXIT_INVARIANT = 5

_GRID_RE = re.compile(
    r"^\s*d\s*(?:<=|≤)\s*(\d+)\s*,\s*e\s*(?:<=|≤)\s*(\d+)\s*,\s*r\s*(?:<=|≤)\s*(\d+)\s*$"
)


def _parse_generators(descriptor: GroupDescriptor, text: str) -> list:
    """Split a semicolon-joined list of element strings.

    The element format itself contains one semicolon, so tokens are paired
    back up: perm=[...];exp=[...];perm=[...];exp=[...] is two generators.
    """
    tokens = [t.strip() for t in text.split(";") if t.strip()]
    if len(tokens) % 2:
        raise ParseError(f"generator list {text!r} has an odd number of perm=/exp= parts")
    gens = []
    for k in range(0, len(tokens), 2):
        gens.append(parse_element(descriptor, f"{tokens[k]};{tokens[k + 1]}"))
    if not gens:
        raise ParseError("empty generator list")
    return gens


def _guarded_closure(descriptor: GroupDescriptor, gens: list):
    """The closure of gens, refused once its elements x hyperplanes pass the guard.

    Both commands then may do work per element and hyperplane: the scan
    that names a subgroup's witness, or the coboundary vectors of the
    cocycle round trips.
    """
    width = max(1, hyperplane_count(descriptor))
    return closure(descriptor, gens, max_size=ENUMERATION_GUARD // width)


def _print_report(report: LiftReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_json(), indent=2))
        return
    verdict = "lifts" if report.lifts else "does not lift"
    line = f"{report.subject}: {verdict} [{report.method}]"
    if report.witness is not None:
        w = report.witness.to_json()
        parts = [f"hyperplane {w['hyperplane']}"]
        if "power" in w:
            parts.append(f"power {w['power']}")
        if "element" in w:
            parts.append(f"element {w['element']}")
        line += f" witness: {', '.join(parts)}"
    print(line)


def cmd_check_element(args: argparse.Namespace) -> int:
    desc = GroupDescriptor.parse(args.group)
    w = parse_element(desc, args.element)
    reports: list[LiftReport] = []
    if args.method in ("oracle", "both"):
        reports.append(element_lifts_oracle(w))
    if args.method in ("fast", "both"):
        reports.append(LiftReport(str(w), element_lifts_fast(w), None, "fast"))
    if args.method == "both" and reports[0].lifts != reports[1].lifts:
        print(f"method mismatch on {w}: oracle={reports[0].lifts} fast={reports[1].lifts}",
              file=sys.stderr)
        return EXIT_INVARIANT
    if args.json:
        docs = [r.to_json() for r in reports]
        print(json.dumps(docs[0] if len(docs) == 1 else docs, indent=2))
    else:
        for r in reports:
            _print_report(r, as_json=False)
    return EXIT_OK if reports[0].lifts else EXIT_NO_LIFT


def cmd_check_subgroup(args: argparse.Namespace) -> int:
    desc = GroupDescriptor.parse(args.group)
    G = _guarded_closure(desc, _parse_generators(desc, args.generators))
    report = subgroup_lifts(G)
    try:
        faithful = acts_faithfully_on_arrangement(G)
    except ValueError:
        faithful = None
    summary = {
        "group": str(desc),
        "order": len(G),
        "orbits": len(orbits(G)),
        "faithful": faithful,
    }
    if args.json:
        print(json.dumps({**summary, **report.to_json()}, indent=2))
    else:
        print(f"subgroup of {desc}: order {summary['order']}, "
              f"{summary['orbits']} hyperplane orbits, faithful: {faithful}")
        _print_report(report, as_json=False)
    return EXIT_OK if report.lifts else EXIT_NO_LIFT


def _classify_row(desc: GroupDescriptor, budget: OracleBudget | None = None) -> dict:
    """One classification row; every column but the brute force is a closed form.

    Above the enumeration guard the brute-force column is None, printed as
    "skipped", and the row is still reported.  The brute force charges its
    oracle calls to ``budget``, if one is given, and a spent budget raises.
    """
    bruteforce = None
    if not desc.order_exceeds(ENUMERATION_GUARD):
        bruteforce = bieberbach_bruteforce(desc, budget=budget)
    return {
        "descriptor": str(desc),
        "bieberbach_formula": is_bieberbach_series(desc),
        "bieberbach_bruteforce": bruteforce,
        "odd_lift_property": has_odd_lift_property(desc),
        "arrangement_size": hyperplane_count(desc),
        "center_size": center_order(desc),
    }


_COLUMNS = ("descriptor", "bieberbach_formula", "bieberbach_bruteforce",
            "odd_lift_property", "arrangement_size", "center_size")


def _print_rows(rows: list[dict], as_json: bool) -> None:
    if as_json:
        print(json.dumps(rows, indent=2))
        return
    cells = [{c: "skipped" if r[c] is None else str(r[c]) for c in _COLUMNS} for r in rows]
    widths = {c: max(len(c), *(len(r[c]) for r in cells)) for c in _COLUMNS}
    print("  ".join(c.ljust(widths[c]) for c in _COLUMNS))
    for r in cells:
        print("  ".join(r[c].ljust(widths[c]) for c in _COLUMNS))


def cmd_classify(args: argparse.Namespace) -> int:
    desc = GroupDescriptor.parse(args.group)
    _print_rows([_classify_row(desc)], args.json)
    return EXIT_OK


def cmd_survey(args: argparse.Namespace) -> int:
    m = _GRID_RE.match(args.grid)
    if not m:
        raise ParseError(f"cannot parse grid bounds {args.grid!r}; expected 'd<=D,e<=E,r<=R'")
    dmax, emax, rmax = map(int, m.groups())
    if min(dmax, emax, rmax) < 1:
        raise ParseError(f"grid bounds {args.grid!r} must all be at least 1")
    # Each row's brute-force column walks one representative per conjugacy
    # class, building at most 3|G| multisets of cycles on the way
    # (monomial.class_representatives), so the sum of the orders still
    # bounds the walks.  Every order is at least 1: the row count is checked
    # first, and the sum stops at the first row that crosses the guard.
    if dmax * emax * rmax > ENUMERATION_GUARD:
        raise GuardExceeded(f"grid {args.grid!r} has more than {ENUMERATION_GUARD} rows")
    grid, work = [], 0
    for d, e, r in product(range(1, dmax + 1), range(1, emax + 1), range(1, rmax + 1)):
        desc = GroupDescriptor(d, e, r)
        if desc.order_exceeds(ENUMERATION_GUARD - work):
            raise GuardExceeded(
                f"grid {args.grid!r} enumerates more than {ENUMERATION_GUARD} elements by {desc}"
            )
        work += desc.order()
        grid.append(desc)
    # The rows share one budget of oracle steps: a prime d costs about d^2.
    budget = OracleBudget(ENUMERATION_GUARD)
    _print_rows([_classify_row(desc, budget) for desc in grid], args.json)
    return EXIT_OK


def cmd_frobenius(args: argparse.Namespace) -> int:
    p, q = args.p, args.q
    # p*q elements times the p(p-1)/2 hyperplanes of S(p).  The lifting scan
    # reads one hyperplane per orbit, but the coset action builds and checks
    # all p*q permutations of degree p, so the guard bounds the group up front.
    if p > 0 and q > 0 and p * q * (p * (p - 1) // 2) > ENUMERATION_GUARD:
        raise GuardExceeded(
            f"Z/{p} : Z/{q} has {p * q} elements x "
            f"{p * (p - 1) // 2} hyperplanes, above the guard {ENUMERATION_GUARD}"
        )
    try:
        spec = FrobeniusSpec.find(p, q)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    group = frobenius_coset_action(spec)
    free_type = all(has_free_cycle_type(g) for g in group)
    lifts = subgroup_lifts(as_symmetric_subgroup(group)).lifts
    doc = {
        "p": spec.p,
        "q": spec.q,
        "multiplier": spec.m,
        "order": spec.p * spec.q,
        "degree": group.degree,
        "cycle_structure_verified": True,  # construction raises otherwise
        "free_cycle_types": free_type,
        "lifts": lifts,
    }
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(f"Frobenius group Z/{spec.p} : Z/{spec.q} (multiplier {spec.m}), "
              f"order {doc['order']}, coset action of degree {doc['degree']}")
        print(f"cycle structure verified: {doc['cycle_structure_verified']}; "
              f"free cycle types: {free_type}; lifts in G(1,1,{group.degree}): {lifts}")
    return EXIT_OK


def cmd_cocycle(args: argparse.Namespace) -> int:
    if args.random < 0:
        raise ParseError(f"--random must be non-negative, got {args.random}")
    desc = GroupDescriptor.parse(args.group)
    G = _guarded_closure(desc, _parse_generators(desc, args.generators))
    # Every trip draws and solves one entry per hyperplane, then checks the
    # answer on every element, so both products are bounded before the first draw.
    if args.random * len(G) > ENUMERATION_GUARD:
        raise GuardExceeded(
            f"{args.random} round trips over {len(G)} elements exceed the guard {ENUMERATION_GUARD}"
        )
    width = hyperplane_count(desc)
    if args.random * width > ENUMERATION_GUARD:
        raise GuardExceeded(
            f"{args.random} round trips over {width} hyperplanes exceed the guard {ENUMERATION_GUARD}"
        )
    # A failed solve raises NoIntegralSolution (exit 5), so every trip succeeds.
    sample = coboundary_roundtrips(G, args.random, Random(args.seed))
    doc = {
        "group": str(desc),
        "order": len(G),
        "trips": args.random,
        "successes": args.random,
        "sample_solution": list(sample) if sample is not None else None,
    }
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(f"cocycle round trips for a subgroup of {desc} with {len(G)} elements: "
              f"{args.random}/{args.random} solved")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = acceptance.run_all()
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidlift",
        description="Torsion-lifting criteria for the monomial reflection groups G(de,e,r).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-element", help="test one element for a finite-order lifting")
    p.add_argument("--group", required=True, help='e.g. "G(3,3,2)" or "S(4)"')
    p.add_argument("--element", required=True, help='e.g. "perm=[1,2];exp=[1,2]"')
    p.add_argument("--method", choices=("oracle", "fast", "both"), default="both")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_element)

    p = sub.add_parser("check-subgroup", help="test a generated subgroup for lifting")
    p.add_argument("--group", required=True)
    p.add_argument("--generators", required=True,
                   help="semicolon-joined elements: perm=[...];exp=[...];perm=[...];exp=[...]")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_subgroup)

    p = sub.add_parser("classify", help="Bieberbach and odd-lift classification of one group")
    p.add_argument("--group", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("survey", help="classification table over a grid of descriptors")
    p.add_argument("--grid", required=True, help='bounds like "d<=2,e<=3,r<=2"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("frobenius", help="coset action of the affine group Z/p : Z/q")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("cocycle", help="random cocycle generate-and-solve round trips")
    p.add_argument("--group", required=True)
    p.add_argument("--generators", required=True)
    p.add_argument("--random", type=int, default=10, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cocycle)

    p = sub.add_parser("verify", help="run the whole verification suite")
    p.set_defaults(func=cmd_verify)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MismatchError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
