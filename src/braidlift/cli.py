"""Command-line frontend for the lifting criteria and classifications.

Exit codes: 0 success (and "lifts" for the check commands), 2 parse or
usage error, 3 the element or subgroup does not lift, 4 enumeration guard
exceeded, 5 internal invariant violation (two provably-equal routes disagreed),
and from ``main`` only 141, the output pipe was closed (128 + SIGPIPE).
"""

import gc
import sys
from itertools import islice, product
from types import SimpleNamespace

# Each handler imports the math modules it runs, so --help loads none of them.
from . import errors
from .errors import Budget, GuardExceeded, InvariantViolation, ParseError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NO_LIFT = 3
EXIT_GUARD = 4
EXIT_INVARIANT = 5
EXIT_BROKEN_PIPE = 141


def parse_grid(text: str) -> tuple[int, int, int]:
    """The bounds D, E, R of "d<=D,e<=E,r<=R"; "≤" may stand for "<="."""
    from .monomial import _fields

    fields = _fields(text, "", "", ",")
    if len(fields) == 3:
        bounds = []
        for name, field in zip("der", fields):
            head, _, bound = field.replace("≤", "<=").partition("<=")
            bounds.append(bound.strip() if head.rstrip() == name else "")
        if all(map(str.isdecimal, bounds)):
            return tuple(map(int, bounds))
    raise ParseError(f"cannot parse grid bounds {text!r}; expected 'd<=D,e<=E,r<=R'")


def _parse_generators(descriptor: "GroupDescriptor", text: str) -> list:
    """Split a semicolon-joined list of element strings.

    The element format itself contains one semicolon, so tokens are paired
    back up: perm=[...];exp=[...];perm=[...];exp=[...] is two generators.
    """
    from .monomial import parse_element

    tokens = [t.strip() for t in text.split(";") if t.strip()]
    if len(tokens) % 2:
        raise ParseError(f"generator list {text!r} has an odd number of perm=/exp= parts")
    gens = []
    for k in range(0, len(tokens), 2):
        gens.append(parse_element(descriptor, f"{tokens[k]};{tokens[k + 1]}"))
    if not gens:
        raise ParseError("empty generator list")
    return gens


def _capped_subgroup(descriptor: "GroupDescriptor", gens: list):
    """The unclosed subgroup of gens, capped so that reading its elements
    raises GuardExceeded once its elements x hyperplanes pass the guard.

    ``check-subgroup`` reads its order before its scan; ``cocycle`` only for
    its ``order`` field, after the round trips, which read the generators.
    """
    from .arrangement import hyperplane_count
    from .monomial import Subgroup

    width = max(1, hyperplane_count(descriptor))
    return Subgroup(descriptor, gens, max_size=errors.ENUMERATION_GUARD // width)


def _print_json(doc) -> None:
    """``print(json.dumps(doc, indent=2))``, written 4,096 chunks at a time,
    so the whole text is never held at once.  (``json.dump`` writes chunk by
    chunk: it took 1.9x as long on a 100,000-row survey.)"""
    import json  # only --json output needs it

    chunks = json.JSONEncoder(indent=2).iterencode(doc)
    while text := "".join(islice(chunks, 4096)):
        sys.stdout.write(text)
    print()


def _print_report(report: "LiftReport") -> None:
    verdict = "lifts" if report.lifts else "does not lift"
    line = f"{report.subject}: {verdict} [{report.method}]"
    if report.witness is not None:
        parts = (f"{k} {v}" for k, v in report.witness.to_json().items())
        line += f" witness: {', '.join(parts)}"
    print(line)


def cmd_check_element(args: SimpleNamespace) -> int:
    from .lifting import LiftReport, element_lifts_fast, element_lifts_oracle
    from .monomial import GroupDescriptor, parse_element

    desc = GroupDescriptor.parse(args.group)
    w = parse_element(desc, args.element)
    reports: list[LiftReport] = []
    if args.method in ("oracle", "both"):
        reports.append(element_lifts_oracle(w))
    if args.method in ("fast", "both"):
        reports.append(LiftReport(str(w), element_lifts_fast(w), None, "fast"))
    if args.method == "both" and reports[0].lifts != reports[1].lifts:
        raise InvariantViolation(
            f"method mismatch on {w}: oracle={reports[0].lifts} fast={reports[1].lifts}")
    if args.json:
        docs = [r.to_json() for r in reports]
        _print_json(docs[0] if len(docs) == 1 else docs)
    else:
        for r in reports:
            _print_report(r)
    return EXIT_OK if reports[0].lifts else EXIT_NO_LIFT


def cmd_check_subgroup(args: SimpleNamespace) -> int:
    from .arrangement import acts_faithfully_on_arrangement, orbit_count
    from .lifting import subgroup_lifts
    from .monomial import GroupDescriptor

    desc = GroupDescriptor.parse(args.group)
    G = _capped_subgroup(desc, _parse_generators(desc, args.generators))
    report = subgroup_lifts(G)
    try:
        faithful = acts_faithfully_on_arrangement(G)
    except ValueError:
        faithful = None
    summary = {
        "group": str(desc),
        "order": len(G),
        "orbits": orbit_count(G),
        "faithful": faithful,
    }
    if args.json:
        _print_json({**summary, **report.to_json()})
    else:
        print(f"subgroup of {desc}: order {summary['order']}, "
              f"{summary['orbits']} hyperplane orbits, faithful: {faithful}")
        _print_report(report)
    return EXIT_OK if report.lifts else EXIT_NO_LIFT


#: The cells of a ``_classify_row``, one per column.
_ROW_CELLS = 6


def _classify_row(desc: "GroupDescriptor", budget: Budget | None = None) -> dict:
    """One classification row; every column but the brute force is a closed form.

    The brute force charges its walks to ``budget``, which raises once spent.
    Without one the row gets its own, and when that runs out the column is
    None, printed as "skipped", and the row is still reported.
    """
    from .arrangement import hyperplane_count
    from .classify import bieberbach_bruteforce, has_odd_lift_property, is_bieberbach_series
    from .monomial import center_order

    try:
        bruteforce = bieberbach_bruteforce(desc, budget)  # a fresh Budget for None
    except GuardExceeded:
        if budget is not None:
            raise
        bruteforce = None
    return {
        "descriptor": str(desc),
        "bieberbach_formula": is_bieberbach_series(desc),
        "bieberbach_bruteforce": bruteforce,
        "odd_lift_property": has_odd_lift_property(desc),
        "arrangement_size": hyperplane_count(desc),
        "center_size": center_order(desc),
    }


def _print_rows(rows: list[dict], as_json: bool) -> None:
    if as_json:
        _print_json(rows)
        return
    columns = list(rows[0])  # _classify_row's keys, in order
    cells = [{c: "skipped" if r[c] is None else str(r[c]) for c in columns} for r in rows]
    widths = {c: max(len(c), *(len(r[c]) for r in cells)) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for r in cells:
        print("  ".join(r[c].ljust(widths[c]) for c in columns))


def cmd_classify(args: SimpleNamespace) -> int:
    from .monomial import GroupDescriptor

    desc = GroupDescriptor.parse(args.group)
    _print_rows([_classify_row(desc)], args.json)
    return EXIT_OK


def cmd_survey(args: SimpleNamespace) -> int:
    from .monomial import GroupDescriptor

    dmax, emax, rmax = parse_grid(args.grid)
    if min(dmax, emax, rmax) < 1:
        raise ParseError(f"grid bounds {args.grid!r} must all be at least 1")
    # The table prints once every row is built, so the rows' cells are held
    # together: the guard bounds the cells, six a row, before the first row.
    # The rows share one budget for their class walks and oracle scans, so a
    # spent budget stops the grid (exit 4) before anything is printed.
    rows = dmax * emax * rmax
    Budget().spend(rows * _ROW_CELLS, f"the {rows} rows x {_ROW_CELLS} cells of grid {args.grid!r}")
    budget = Budget()
    grid = product(range(1, dmax + 1), range(1, emax + 1), range(1, rmax + 1))
    _print_rows([_classify_row(GroupDescriptor(*der), budget) for der in grid], args.json)
    return EXIT_OK


def cmd_frobenius(args: SimpleNamespace) -> int:
    from .classify import FrobeniusSpec, frobenius_coset_action, has_free_cycle_type
    from .lifting import subgroup_lifts

    p, q = args.p, args.q
    # p*q elements times the p(p-1)/2 hyperplanes of S(p).  The lifting scan
    # reads one hyperplane per orbit, but the closure builds all p*q elements
    # of degree p and checks each one's cycle type, and a witness scan would
    # pair elements with hyperplanes, so the guard bounds the group up front.
    if p > 0 and q > 0:
        width = p * (p - 1) // 2
        Budget().spend(p * q * width, f"Z/{p} : Z/{q}'s {p * q} elements x {width} hyperplanes")
    try:
        spec = FrobeniusSpec.find(p, q)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    group, types = frobenius_coset_action(spec)
    free_type = all(map(has_free_cycle_type, types))
    lifts = subgroup_lifts(group).lifts
    doc = {
        "p": spec.p,
        "q": spec.q,
        "multiplier": spec.m,
        "order": spec.p * spec.q,
        "degree": spec.p,
        "cycle_structure_verified": True,  # construction raises otherwise
        "free_cycle_types": free_type,
        "lifts": lifts,
    }
    if args.json:
        _print_json(doc)
    else:
        print(f"Frobenius group Z/{spec.p} : Z/{spec.q} (multiplier {spec.m}), "
              f"order {doc['order']}, coset action of degree {doc['degree']}")
        print(f"cycle structure verified: {doc['cycle_structure_verified']}; "
              f"free cycle types: {free_type}; lifts in G(1,1,{spec.p}): {lifts}")
    return EXIT_OK


def cmd_cocycle(args: SimpleNamespace) -> int:
    if args.random < 0:
        raise ParseError(f"--random must be non-negative, got {args.random}")
    from _random import Random

    from .arrangement import hyperplane_count
    from .lattice import coboundary_roundtrips
    from .monomial import GroupDescriptor

    desc = GroupDescriptor.parse(args.group)
    G = _capped_subgroup(desc, _parse_generators(desc, args.generators))
    # Every trip draws and solves one entry per hyperplane, and costs a step
    # even on an empty arrangement.  The trips read G's generators and forest;
    # len(G) below first closes G, so past the cap nothing is printed (exit 4).
    width = hyperplane_count(desc)
    Budget().spend(args.random * max(1, width), f"{args.random} round trips x {width} hyperplanes")
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
        _print_json(doc)
    else:
        print(f"cocycle round trips for a subgroup of {desc} with {len(G)} elements: "
              f"{args.random}/{args.random} solved")
    return EXIT_OK


def cmd_verify(args: SimpleNamespace) -> int:
    from . import acceptance

    results = acceptance.run_all()
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else EXIT_INVARIANT


_GROUP = ("group", str, ..., 'a descriptor, e.g. "G(3,3,2)" or "S(4)"')
_GENERATORS = ("generators", str, ...,
               "semicolon-joined elements: perm=[...];exp=[...];perm=[...];exp=[...]")
_JSON = ("json", bool, False, "print the result as JSON")

#: command -> (handler, help line, options).  An option is (name, kind,
#: default, help): kind is str, int, a tuple of choices, or bool for a flag
#: that takes no value, and a default of ... makes the option required.
COMMANDS = {
    "check-element": (cmd_check_element, "test one element for a finite-order lifting", (
        _GROUP, ("element", str, ..., 'e.g. "perm=[1,2];exp=[1,2]"'),
        ("method", ("oracle", "fast", "both"), "both", "the oracle, the fast criterion or both"),
        _JSON)),
    "check-subgroup": (cmd_check_subgroup, "test a generated subgroup for lifting",
                       (_GROUP, _GENERATORS, _JSON)),
    "classify": (cmd_classify, "Bieberbach and odd-lift classification of one group",
                 (_GROUP, _JSON)),
    "survey": (cmd_survey, "classification table over a grid of descriptors",
               (("grid", str, ..., 'bounds like "d<=2,e<=3,r<=2"'), _JSON)),
    "frobenius": (cmd_frobenius, "coset action of the affine group Z/p : Z/q", (
        ("p", int, ..., "an odd prime"), ("q", int, ..., "an odd divisor > 1 of p - 1"), _JSON)),
    "cocycle": (cmd_cocycle, "random cocycle generate-and-solve round trips", (
        _GROUP, _GENERATORS, ("random", int, 10, "the number of round trips"),
        ("seed", int, 0, "the seed of the random cocycles"), _JSON)),
    "verify": (cmd_verify, "run the whole verification suite", ()),
}
_HELP = ("-h", "--help")


def cmd_help(args: SimpleNamespace) -> int:
    """Print the commands, or the options of args.command, to stdout."""
    if args.command is None:
        lines = ["usage: braidlift COMMAND [--OPTION VALUE ...]",
                 "Torsion-lifting criteria for the monomial reflection groups G(de,e,r).",
                 "", "commands:"]
        lines += [f"  {name:16}{text}" for name, (_, text, _) in COMMANDS.items()]
        lines.append("'braidlift COMMAND --help' lists the options of COMMAND.")
    else:
        _, text, options = COMMANDS[args.command]
        lines = [f"usage: braidlift {args.command} [--OPTION VALUE ...]", text, "", "options:"]
        for name, kind, default, about in options:
            value = (f" {{{','.join(kind)}}}" if type(kind) is tuple
                     else {int: " N", str: " TEXT"}.get(kind, ""))
            note = (" (required)" if default is ...
                    else f" (default {default})" if kind is not bool else "")
            lines.append(f"  {'--' + name + value:30}{about}{note}")
    print("\n".join(lines))
    return EXIT_OK


def parse_args(argv: "Sequence[str]") -> SimpleNamespace:
    """The options of a command line, with its handler as ``func``.

    Options are written ``--option value``; -h or --help anywhere selects
    ``cmd_help``.  Every usage error raises ParseError (exit 2).
    """
    if argv and argv[0] in _HELP:
        return SimpleNamespace(func=cmd_help, command=None)
    if not argv or argv[0] not in COMMANDS:
        got = f"{argv[0]!r} is not a command" if argv else "no command given"
        raise ParseError(f"{got}; 'braidlift --help' lists the commands")
    command, tokens = argv[0], iter(argv[1:])
    handler, _, options = COMMANDS[command]
    kinds = {f"--{name}": (name, kind) for name, kind, _, _ in options}
    values = {}
    for token in tokens:
        if token in _HELP:
            return SimpleNamespace(func=cmd_help, command=command)
        if token not in kinds:
            raise ParseError(f"unrecognized argument {token!r} for {command}; "
                             f"'braidlift {command} --help' lists its options")
        name, kind = kinds[token]
        if name in values:
            raise ParseError(f"{token} is given twice")
        if kind is bool:
            values[name] = True
            continue
        text = next(tokens, None)
        if text is None or text.startswith("--"):
            raise ParseError(f"{token} expects a value")
        if type(kind) is tuple and text not in kind:
            raise ParseError(f"{token} must be one of {', '.join(kind)}, not {text!r}")
        try:
            values[name] = text if type(kind) is tuple else kind(text)
        except ValueError:
            raise ParseError(f"{token} expects an integer, not {text!r}") from None
    for name, _, default, _ in options:
        if default is ... and name not in values:
            raise ParseError(f"{command} needs --{name}")
        values.setdefault(name, default)
    return SimpleNamespace(func=handler, **values)


def run(argv: "Sequence[str]") -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
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
    """The console entry point. Integer tuples and frozensets hold no
    reference cycles, so the cyclic collector stays off for the command. With
    the output flushed, ``os._exit`` ends the process without the interpreter's
    teardown; a closed output pipe exits EXIT_BROKEN_PIPE, writing nothing
    more. `run` leaves the collector and the process to its caller."""
    import os  # runpy has loaded it already under -m

    gc.disable()
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    os._exit(code)


if __name__ == "__main__":
    main()
