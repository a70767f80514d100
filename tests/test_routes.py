"""The two routes kept apart: a command that names one route runs with the
other route raising, and prints the same bytes.

The combinatorial route reads cycle data: ``permutations.cycle_sums``, the
fast criterion ``lifting.element_lifts_fast``, and ``MonomialElement.order``,
which reads ``cycle_sums``.  The oracle route reads stabilizers and normal
scalars: ``_normal_scalar``, ``_least_violation``, the numbering
``_index_permutation`` and its cache ``hyperplane_permutation``, the action
``act``, the orbit forest ``orbits``, and the power walk of ``lifting``
(``_powers``, ``_violations``).  Both may share only the substrate that they
stand on, which these tests leave alone: the parsers (``parse``), element
and permutation products (``__mul__``, ``compose``), ``hyperplane_count``,
closure (``permutations.mulclose``) and the ``Budget`` guards.  A static
check holds the bodies of the oracle route and of closure to no cycle data,
and the fast criterion to no oracle function.
"""

import ast
import inspect

import pytest

from braidlift import arrangement, cli, lifting
from braidlift import permutations as perms
from braidlift.monomial import MonomialElement

from test_package import names_read


def _perm(images, exps=None):
    exps = exps or [0] * len(images)
    return f"perm=[{','.join(map(str, images))}];exp=[{','.join(map(str, exps))}]"


def _affine_z31(f):
    return _perm([f(x) % 31 + 1 for x in range(31)])


def _sylow3_s27():
    """Generators of the Sylow 3-subgroup of S(27), Z/3 wr Z/3 wr Z/3, of order 3^13."""
    gens = []
    for size in (1, 3, 9):  # cycle the first three blocks of this size
        images = list(range(1, 28))
        for k in range(size):
            images[k], images[size + k], images[2 * size + k] = (
                size + k + 1, 2 * size + k + 1, k + 1)
        gens.append(_perm(images))
    return ";".join(gens)


S4_THREE_CYCLE = ("check-element", "--group", "S(4)", "--element", _perm([2, 3, 1, 4]))
G442_DIAG = ("check-element", "--group", "G(4,4,2)", "--element", _perm([1, 2], [1, 3]))
AFFINE_Z31 = _affine_z31(lambda x: x + 1) + ";" + _affine_z31(lambda x: 2 * x)


def case(argv, code, name=None):
    """A command and its exit code, named by its argv unless that is long."""
    return pytest.param(argv, code, id=name or " ".join(argv))


#: Each command that names the oracle route: the brute-force Bieberbach
#: column on the benchmark's classify sweep, on groups past the element guard
#: and on a torsion-free group with many classes; the oracle on single
#: elements; the whole-subgroup scan; the cocycle round trips.
ORACLE_COMMANDS = [
    *(case(("classify", "--group", g), 0) for g in (
        "S(8)", "G(2,1,6)", "G(6,3,4)", "G(24,1,2)", "G(32,2,2)",
        "S(10)", "G(2,1,12)", "G(707,1,2)")),
    case(("survey", "--grid", "d<=2,e<=2,r<=5"), 0),
    case((*S4_THREE_CYCLE, "--method", "oracle"), 0, "check-element S(4) 3-cycle"),
    case(("check-element", "--group", "S(4)", "--element", _perm([2, 1, 3, 4]),
          "--method", "oracle", "--json"), 3, "check-element S(4) transposition --json"),
    case((*G442_DIAG, "--method", "oracle"), 3, "check-element G(4,4,2) diag(i,-i)"),
    case(("check-element", "--group", "S(1000)", "--element",
          _perm([2, 3, 1, *range(4, 1001)]), "--method", "oracle"), 4,
         "check-element S(1000) 3-cycle"),
    case(("check-subgroup", "--group", "S(6)", "--generators",
          _perm([2, 3, 4, 5, 6, 1]) + ";" + _perm([2, 1, 3, 4, 5, 6])), 3,
         "check-subgroup S(6)"),
    case(("check-subgroup", "--group", "G(6,3,3)", "--generators",
          "perm=[2,1,3];exp=[0,0,0];perm=[1,3,2];exp=[0,0,0];"
          "perm=[2,1,3];exp=[5,1,0];perm=[1,2,3];exp=[3,0,0]"), 3, "check-subgroup G(6,3,3)"),
    case(("check-subgroup", "--group", "S(31)", "--generators", AFFINE_Z31), 0,
         "check-subgroup S(31) affine"),
    case(("check-subgroup", "--group", "S(27)", "--generators", _sylow3_s27()), 4,
         "check-subgroup S(27) Sylow 3"),
    case(("cocycle", "--group", "S(31)", "--generators", AFFINE_Z31,
          "--random", "20", "--seed", "3", "--json"), 0, "cocycle S(31) affine"),
]

#: ``frobenius`` checks its construction against cycle types, read through
#: ``permutations.cycle_sums``; everything else of the combinatorial route raises.
FROBENIUS_COMMANDS = [
    ("frobenius", "--p", "61", "--q", "5"),
    ("frobenius", "--p", "7", "--q", "3", "--json"),
]

#: The fast criterion on single elements, with every oracle function raising.
FAST_COMMANDS = [
    case((*S4_THREE_CYCLE, "--method", "fast"), 0, "check-element S(4) 3-cycle"),
    case((*G442_DIAG, "--method", "fast", "--json"), 3, "check-element G(4,4,2) diag(i,-i)"),
    case(("check-element", "--group", "S(2001)", "--element", _perm([*range(2, 2002), 1]),
          "--method", "fast"), 0, "check-element S(2001) 2001-cycle"),
]

#: The oracle route's bodies (module, function) and the names that none may read.
ORACLE_ROUTE = [
    (lifting, "_powers"), (lifting, "_violations"), (lifting, "element_lifts_oracle"),
    (lifting, "oracle_verdicts"), (lifting, "subgroup_lifts"),
    (perms, "mulclose"), (perms, "_powers"), (perms, "_extend"),
]
CYCLE_DATA = {"cycle_sums", "cycle_type", "order", "element_lifts_fast"}
ORACLE_FUNCTIONS = {"_normal_scalar", "_least_violation", "_index_permutation", "act",
                    "hyperplane_permutation", "orbits"}


def poisoned(name):
    def raises(*args, **kwargs):
        raise AssertionError(f"the other route reached {name}")
    return raises


def invoke(capsys, argv):
    code = cli.run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def poison_cycle_data(monkeypatch, keep_cycle_sums=False):
    if not keep_cycle_sums:
        monkeypatch.setattr(perms, "cycle_sums", poisoned("cycle_sums"))
    monkeypatch.setattr(lifting, "cycle_sums", poisoned("cycle_sums"))
    monkeypatch.setattr(lifting, "element_lifts_fast", poisoned("element_lifts_fast"))
    monkeypatch.setattr(MonomialElement, "order", poisoned("MonomialElement.order"))


@pytest.mark.parametrize("argv, code", ORACLE_COMMANDS)
def test_oracle_commands_run_without_the_combinatorial_route(argv, code, capsys, monkeypatch):
    expected = invoke(capsys, argv)
    poison_cycle_data(monkeypatch)
    assert invoke(capsys, argv) == expected
    assert expected[0] == code


@pytest.mark.parametrize("argv", FROBENIUS_COMMANDS, ids=" ".join)
def test_frobenius_reads_only_cycle_types_of_the_combinatorial_route(argv, capsys, monkeypatch):
    expected = invoke(capsys, argv)
    poison_cycle_data(monkeypatch, keep_cycle_sums=True)
    assert invoke(capsys, argv) == expected
    assert expected[0] == 0


@pytest.mark.parametrize("argv, code", FAST_COMMANDS)
def test_fast_commands_run_without_the_oracle_route(argv, code, capsys, monkeypatch):
    expected = invoke(capsys, argv)
    for module in (arrangement, lifting):
        for name in ORACLE_FUNCTIONS | {"_powers", "_violations"}:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, poisoned(name))
    assert invoke(capsys, argv) == expected
    assert expected[0] == code


def body_names(module, name):
    return names_read(ast.parse(inspect.getsource(getattr(module, name))))


@pytest.mark.parametrize("module, name", ORACLE_ROUTE,
                         ids=[f"{m.__name__.rpartition('.')[2]}.{n}" for m, n in ORACLE_ROUTE])
def test_oracle_route_names_no_cycle_data(module, name):
    assert body_names(module, name) & CYCLE_DATA == set()


def test_fast_criterion_names_no_oracle_function():
    assert body_names(lifting, "element_lifts_fast") & ORACLE_FUNCTIONS == set()
