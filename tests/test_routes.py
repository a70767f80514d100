"""The two routes kept apart: a command that names the oracle route runs with
the combinatorial route raising, and prints the same bytes.

The combinatorial route reads cycle data: ``permutations.cycle_sums``, the
fast criterion ``lifting.element_lifts_fast``, and ``MonomialElement.order``,
which reads ``cycle_sums``.  The oracle route may share only the substrate
that both routes stand on, which this test leaves alone: the parsers
(``parse``), element and permutation products (``__mul__``, ``compose``),
``hyperplane_count`` and the ``Budget`` guards.
"""

import pytest

from braidlift import cli, lifting
from braidlift import permutations as perms
from braidlift.monomial import MonomialElement

#: The brute-force Bieberbach column: the benchmark's classify sweep, groups
#: past the element guard, and a torsion-free group with many classes.
ORACLE_COMMANDS = [
    *(("classify", "--group", g) for g in (
        "S(8)", "G(2,1,6)", "G(6,3,4)", "G(24,1,2)", "G(32,2,2)",
        "S(10)", "G(2,1,12)", "G(707,1,2)")),
    ("survey", "--grid", "d<=2,e<=2,r<=5"),
]


def poisoned(name):
    def raises(*args, **kwargs):
        raise AssertionError(f"the oracle route reached {name}")
    return raises


def invoke(capsys, argv):
    code = cli.run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", ORACLE_COMMANDS, ids=" ".join)
def test_oracle_commands_run_without_the_combinatorial_route(argv, capsys, monkeypatch):
    expected = invoke(capsys, argv)
    monkeypatch.setattr(perms, "cycle_sums", poisoned("cycle_sums"))
    monkeypatch.setattr(lifting, "cycle_sums", poisoned("cycle_sums"))
    monkeypatch.setattr(lifting, "element_lifts_fast", poisoned("element_lifts_fast"))
    monkeypatch.setattr(MonomialElement, "order", poisoned("MonomialElement.order"))
    assert invoke(capsys, argv) == expected
    assert expected[0] == 0
