"""Run every verification criterion at its stated tolerance (all exact).

Each test prints the one-line verdict for its criterion, so a verbose run
reads as the full scorecard.
"""

import pytest

from braidlift import acceptance

TITLES = {
    1: "oracle/fast equivalence",
    2: "headline diagonal examples",
    3: "even order never lifts",
    4: "Bieberbach classification",
    5: "symmetric groups: lift iff odd order",
    6: "free action equivalence in S_5",
    7: "free action equivalence, monomial",
    8: "Frobenius coset actions",
    9: "Cayley embeddings lift",
    10: "constructive H^1 vanishing",
    11: "normalizer lattice rank",
    12: "stability under padding",
}


@pytest.mark.parametrize("number", sorted(TITLES))
def test_criterion(number):
    result = acceptance._CRITERIA[number - 1]()
    print(result.line())
    assert result.title == TITLES[number]
    assert result.passed, result.detail


def test_run_all_covers_every_criterion():
    results = acceptance.run_all()
    assert [r.number for r in results] == list(range(1, 13))
    assert all(r.passed for r in results)
