"""The command-line frontend: output shapes and exit codes."""

import io
import json
import shlex
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidlift import cli, errors, lifting
from braidlift.arrangement import format_hyperplane, hyperplanes
from braidlift.cli import run
from braidlift.errors import MismatchError
from braidlift.monomial import GroupDescriptor, parse_element


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_element_lifting(capsys):
    code, out, _ = invoke(
        capsys, "check-element", "--group", "G(3,3,2)", "--element", "perm=[1,2];exp=[1,2]"
    )
    assert code == 0
    assert out.count("lifts") == 2  # oracle and fast reports


def test_check_element_refusal_with_witness(capsys):
    code, out, _ = invoke(
        capsys,
        "check-element", "--group", "S(4)",
        "--element", "perm=[2,1,3,4];exp=[0,0,0,0]",
        "--method", "oracle", "--json",
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["lifts"] is False
    assert doc["witness"] == {"hyperplane": "H[1,2;0]", "power": 1}
    # emitted strings parse back to the original values
    desc = GroupDescriptor.parse("S(4)")
    assert parse_element(desc, doc["element"]).sigma == (1, 0, 2, 3)
    assert doc["witness"]["hyperplane"] in {format_hyperplane(H) for H in hyperplanes(desc)}


def test_check_element_text_witness(capsys):
    code, out, _ = invoke(
        capsys,
        "check-element", "--group", "S(4)",
        "--element", "perm=[2,1,3,4];exp=[0,0,0,0]", "--method", "oracle",
    )
    assert code == 3
    assert out == ("perm=[2,1,3,4];exp=[0,0,0,0]: does not lift [oracle] "
                   "witness: hyperplane H[1,2;0], power 1\n")


def test_check_element_oracle_guard(capsys):
    # A 2001-cycle in S(2001): its first power's 2,001,000 hyperplanes alone
    # pass the oracle's guard, so it is refused before its scan; the fast
    # criterion needs no guard.
    n = 2001
    cycle = f"perm=[{','.join(map(str, [*range(2, n + 1), 1]))}];exp=[{','.join(['0'] * n)}]"
    start = time.perf_counter()
    for method in ("oracle", "both"):
        code, out, err = invoke(
            capsys, "check-element", "--group", f"S({n})", "--element", cycle, "--method", method
        )
        assert code == 4 and out == "", method
        assert ("1 oracle powers x 2001000 hyperplanes = 2001000 steps exceed the guard 1000000"
                in err), method
    assert time.perf_counter() - start < 5
    code, out, _ = invoke(
        capsys, "check-element", "--group", f"S({n})", "--element", cycle, "--method", "fast"
    )
    assert code == 0 and out.endswith("lifts [fast]\n")


def test_check_element_oracle_guard_numbers_no_power(capsys, monkeypatch):
    # A 3-cycle in S(1000): 3 powers x 499,500 hyperplanes, refused before
    # the walk numbers its first power.
    def refuse(u):
        raise AssertionError(f"power {u} numbered past the guard")

    monkeypatch.setattr(lifting, "_index_permutation", refuse)
    n = 1000
    cycle = f"perm=[2,3,1,{','.join(map(str, range(4, n + 1)))}];exp=[{','.join(['0'] * n)}]"
    for method in ("oracle", "both"):
        code, out, err = invoke(
            capsys, "check-element", "--group", f"S({n})", "--element", cycle, "--method", method
        )
        assert code == 4 and out == "", method
        assert "3 oracle powers x 499500 hyperplanes = 1498500 steps exceed the guard 1000000" in err


def test_check_element_parse_errors(capsys):
    code, _, err = invoke(
        capsys, "check-element", "--group", "G(4,3,2)", "--element", "perm=[1,2];exp=[0,0]"
    )
    assert code == 2 and "parse error" in err
    code, _, err = invoke(
        capsys, "check-element", "--group", "G(3,3,2)", "--element", "perm=[1,2];exp=[1,1]"
    )
    assert code == 2


def test_check_subgroup(capsys):
    code, out, _ = invoke(
        capsys,
        "check-subgroup", "--group", "S(3)",
        "--generators", "perm=[2,3,1];exp=[0,0,0]", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 3 and doc["orbits"] == 1 and doc["faithful"] is True
    assert doc["lifts"] is True

    code, out, _ = invoke(
        capsys,
        "check-subgroup", "--group", "S(3)",
        "--generators", "perm=[2,1,3];exp=[0,0,0]", "--json",
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["lifts"] is False and doc["witness"]["element"] == "perm=[2,1,3];exp=[0,0,0]"


def test_check_subgroup_two_generators(capsys):
    code, out, _ = invoke(
        capsys,
        "check-subgroup", "--group", "G(2,1,2)",
        "--generators", "perm=[2,1];exp=[0,0];perm=[1,2];exp=[1,0]", "--json",
    )
    assert code == 3
    assert json.loads(out)["order"] == 8


def test_classify(capsys):
    code, out, _ = invoke(capsys, "classify", "--group", "G(4,4,2)", "--json")
    assert code == 0
    (row,) = json.loads(out)
    assert row["bieberbach_formula"] is True and row["bieberbach_bruteforce"] is True
    assert row["arrangement_size"] == 4 and row["center_size"] == 2

    code, out, _ = invoke(capsys, "classify", "--group", "G(3,3,2)")
    assert code == 0 and "False" in out


def test_classify_guard_exceeded(capsys):
    # Past the guard the brute-force column walks only prime-order classes:
    # S(10) and G(2,1,12) stop at their first, three 3-cycles and four.
    code, out, _ = invoke(capsys, "classify", "--group", "S(10)", "--json")
    assert code == 0
    assert json.loads(out) == [{
        "descriptor": "G(1,1,10)", "bieberbach_formula": False, "bieberbach_bruteforce": False,
        "odd_lift_property": True, "arrangement_size": 45, "center_size": 1,
    }]
    code, out, _ = invoke(capsys, "classify", "--group", "G(2,1,12)")
    assert code == 0
    assert out.splitlines()[1].split() == ["G(2,1,12)", "False", "False", "True", "144", "2"]
    # Only a spent row budget skips the column; the closed forms are still
    # reported.  S(5000)'s first class costs a scan of its 12,497,500
    # hyperplanes, and 5000! has too many digits to print: neither is built.
    start = time.perf_counter()
    code, out, _ = invoke(capsys, "classify", "--group", "S(5000)")
    assert code == 0 and "skipped" in out and "12497500" in out
    assert time.perf_counter() - start < 1
    # The first class is charged its r coordinates before it is built, and
    # the order is never computed in full.
    for group in ("S(1000000)", "G(2,1,3000000)", "G(99999999999,1,99999999)"):
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "classify", "--group", group)
        assert code == 0 and out.splitlines()[1].split()[2] == "skipped"
        assert time.perf_counter() - start < 1


def test_classify_walks_one_class_per_galois_orbit(capsys):
    # Torsion-free, so every class is walked: G(707,1,2) has 5,178
    # prime-order classes in 58 orbits of the units mod 707, and the cyclic
    # G(1000000,1,1) has 999,999 nonidentity classes, of which five have
    # prime order, in two orbits.
    for group in ("G(707,1,2)", "G(1000000,1,1)"):
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "classify", "--group", group, "--json")
        assert code == 0
        (row,) = json.loads(out)
        assert row["bieberbach_bruteforce"] is True is row["bieberbach_formula"]
        assert time.perf_counter() - start < 3


def test_classify_scans_only_prime_order_elements(capsys):
    # 497,664 elements, 4,271 of prime order; handing every element to the
    # oracle takes about a minute.
    code, out, _ = invoke(capsys, "classify", "--group", "G(12,1,4)", "--json")
    assert code == 0
    (row,) = json.loads(out)
    assert row["bieberbach_bruteforce"] is False
    assert row["bieberbach_bruteforce"] == row["bieberbach_formula"]


def test_classify_scans_one_element_per_conjugacy_class(capsys):
    # G(11,1,4): 351,384 elements, and 14,663 oracle calls on prime-order
    # elements come before the first that lifts in element order (about
    # 12 s); one of the first class representatives is a lifting 3-cycle.
    # The classes are generated with their colour sum already 0 mod e:
    # walking all G(de,1,r) classes and filtering would take 10^9 steps for
    # the trivial group G(10^9,10^9,1), and about m^2/2 for G(m,m,2) of
    # order 2m.
    for group, bieberbach in (
        ("G(11,1,4)", False), ("G(1000000000,1000000000,1)", True), ("G(20000,20000,2)", False)
    ):
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "classify", "--group", group, "--json")
        assert code == 0
        (row,) = json.loads(out)
        assert row["bieberbach_bruteforce"] is bieberbach
        assert row["bieberbach_bruteforce"] == row["bieberbach_formula"]
        assert time.perf_counter() - start < 5


def test_survey_class_walks_do_not_grow_with_e(capsys):
    # 20,000 rows of order 1 pass both guards; each row walks one class.
    start = time.perf_counter()
    code, out, _ = invoke(capsys, "survey", "--grid", "d<=1,e<=20000,r<=1", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 20000 and all(row["bieberbach_bruteforce"] for row in rows)
    assert time.perf_counter() - start < 10


def test_survey_charges_the_cells_of_its_rows_before_the_first_row(capsys, monkeypatch):
    # The table holds every row's cells until it prints, so the guard bounds
    # rows x cells: 10**6 rows of G(1,e,1) are refused before any row is
    # built, as are 166,667, one row past 10**6 / 6.
    assert len(cli._classify_row(GroupDescriptor(1, 1, 2))) == cli._ROW_CELLS == 6
    built = []

    def stub_row(desc, budget=None):
        built.append(desc)
        return dict.fromkeys("abcdef", 0)

    monkeypatch.setattr(cli, "_classify_row", stub_row)
    for grid in ("d<=1,e<=1000000,r<=1", "d<=1,e<=166667,r<=1"):
        code, out, err = invoke(capsys, "survey", "--grid", grid)
        assert code == 4 and out == "" and "cells" in err and not built
    # At a guard of 60, ten rows of six cells pass and eleven do not.
    monkeypatch.setattr(errors, "ENUMERATION_GUARD", 60)
    code, out, _ = invoke(capsys, "survey", "--grid", "d<=2,e<=5,r<=1")
    assert code == 0 and len(out.splitlines()) == 1 + 10 and len(built) == 10
    code, out, _ = invoke(capsys, "survey", "--grid", "d<=1,e<=11,r<=1")
    assert code == 4 and out == "" and len(built) == 10


def test_json_output_is_the_text_of_json_dumps(capsys):
    # Written in batches of 4,096 chunks: this document has about 30,000.
    doc = [{"row": k, "cells": [True, None, "é", -k]} for k in range(2000)]
    cli._print_json(doc)
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


def test_survey(capsys):
    code, out, _ = invoke(capsys, "survey", "--grid", "d<=2,e<=2,r<=2", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 8
    by_name = {row["descriptor"]: row for row in rows}
    assert by_name["G(2,2,2)"]["bieberbach_formula"] is True
    assert by_name["G(1,1,2)"]["odd_lift_property"] is True
    code, out, _ = invoke(capsys, "survey", "--grid", "d≤2,e≤1,r≤2")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 4  # header plus four rows


def test_survey_bad_grid(capsys):
    code, _, err = invoke(capsys, "survey", "--grid", "n<=4")
    assert code == 2
    code, out, err = invoke(capsys, "survey", "--grid", "d<=0,e<=1,r<=1")
    assert code == 2 and out == "" and "at least 1" in err


def test_survey_guard_exceeded(capsys):
    # 10**9 rows are refused up front.  S(1) .. S(10**6) pass the row count,
    # but the oracle scans the r(r-1)/2 hyperplanes three times for the
    # first class of S(r), so the shared budget is spent by S(100) or so.
    for grid in ("d<=1000000000,e<=1,r<=1", "d<=1,e<=1,r<=1000000"):
        code, out, err = invoke(capsys, "survey", "--grid", grid)
        assert code == 4 and out == "" and "guard" in err


def test_survey_past_the_element_sum(capsys):
    # 40 rows adding up to more than 10**6 elements: G(2,1,10) alone has
    # 3,715,891,200.
    code, out, _ = invoke(capsys, "survey", "--grid", "d<=2,e<=2,r<=10", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 40
    assert all(row["bieberbach_bruteforce"] == row["bieberbach_formula"] for row in rows)


def test_survey_oracle_budget_exceeded(capsys):
    # The groups G(d,1,r), d <= 300, r <= 2, are all torsion-free, so every
    # class is walked, and the walks and oracle scans, about 1.7 * 10**6
    # steps, run past the shared budget of 10**6 steps.
    start = time.perf_counter()
    code, out, err = invoke(capsys, "survey", "--grid", "d<=300,e<=1,r<=2")
    assert code == 4 and out == ""
    assert "the brute-force scans' oracle steps exceed the guard" in err
    assert time.perf_counter() - start < 30


def test_survey_oracle_budget_charges_only_the_powers_scanned(capsys):
    # Each verdict walk stops at w's first violating power, and this grid
    # costs about 93,000 steps.  Charged order(w) x |A| per walk, its
    # classes would cost 3.3 * 10**6 and run out of budget.
    code, out, _ = invoke(capsys, "survey", "--grid", "d<=100,e<=1,r<=2", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 200
    assert all(row["bieberbach_bruteforce"] == row["bieberbach_formula"] for row in rows)


def test_frobenius(capsys):
    code, out, _ = invoke(capsys, "frobenius", "--p", "7", "--q", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "p": 7, "q": 3, "multiplier": 2, "order": 21, "degree": 7,
        "cycle_structure_verified": True, "free_cycle_types": True, "lifts": True,
    }
    code, _, err = invoke(capsys, "frobenius", "--p", "9", "--q", "3")
    assert code == 2


def test_frobenius_guard_exceeded(capsys):
    # 3027 elements x 508536 hyperplanes: refused before any group is built
    code, out, err = invoke(capsys, "frobenius", "--p", "1009", "--q", "3")
    assert code == 4 and out == "" and "guard" in err


@pytest.mark.parametrize("p", ["-7", "2"])
def test_frobenius_blames_p_below_3(capsys, p):
    # p - 1 is -8 or 1, which q = 3 does not divide: p is tested first
    code, out, err = invoke(capsys, "frobenius", "--p", p, "--q", "3")
    assert code == 2 and out == ""
    assert f"p = {p} must be an odd prime" in err and "q =" not in err, err


def test_cocycle_roundtrips(capsys):
    code, out, _ = invoke(
        capsys,
        "cocycle", "--group", "S(3)",
        "--generators", "perm=[2,3,1];exp=[0,0,0]",
        "--random", "5", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["successes"] == doc["trips"] == 5
    code, _, err = invoke(
        capsys,
        "cocycle", "--group", "S(3)",
        "--generators", "perm=[2,3,1];exp=[0,0,0]",
        "--random", "-1",
    )
    assert code == 2 and "non-negative" in err
    code, _, err = invoke(
        capsys,
        "cocycle", "--group", "S(3)",
        "--generators", "perm=[2,3,1];exp=[0,0,0]",
        "--random", "1000000000",
    )
    assert code == 4 and "guard" in err


def test_closure_guard_exceeded(capsys, monkeypatch):
    from braidlift import errors

    # S(6) has 15 hyperplanes, so its closures stop at 1500 // 15 = 100 elements.
    monkeypatch.setattr(errors, "ENUMERATION_GUARD", 1500)
    s6 = "perm=[2,3,4,5,6,1];exp=[0,0,0,0,0,0];perm=[2,1,3,4,5,6];exp=[0,0,0,0,0,0]"
    for command in ("check-subgroup", "cocycle"):
        code, out, err = invoke(capsys, command, "--group", "S(6)", "--generators", s6)
        assert code == 4 and out == "" and "exceeds 100 elements" in err, command


def test_closure_guard_counts_hyperplanes(capsys):
    # All of S(8) is 40,320 elements x 28 hyperplanes, above the 10**6 guard.
    # So is the Sylow 3-subgroup of S(27), 3^13 elements x 351 hyperplanes:
    # cocycle runs its round trips on the generators, then reads the order.
    s8 = "perm=[2,3,4,5,6,7,8,1];exp=[0,0,0,0,0,0,0,0];perm=[2,1,3,4,5,6,7,8];exp=[0,0,0,0,0,0,0,0]"
    sylow = ";".join(
        "perm=[" + ",".join(str((x + 3**k) % 3**(k + 1) + 1 if x < 3**(k + 1) else x + 1)
                            for x in range(27)) + "];exp=[" + ",".join("0" * 27) + "]"
        for k in range(3))
    for group, gens, cap in (("S(8)", s8, 35714), ("S(27)", sylow, 2849)):
        for command in ("check-subgroup", "cocycle"):
            code, out, err = invoke(capsys, command, "--group", group, "--generators", gens)
            assert code == 4 and out == "", (group, command)
            assert err == f"guard exceeded: closure exceeds {cap} elements\n", (group, command)


def test_verify_runs_all_criteria(capsys):
    code, out, _ = invoke(capsys, "verify")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("[")]
    assert len(lines) == 12
    assert all(line.startswith("[PASS]") for line in lines)
    assert "12/12 criteria passed" in out


def test_failed_criterion_maps_to_invariant_exit_code(capsys, monkeypatch):
    from braidlift import acceptance
    from braidlift.acceptance import CriterionResult

    monkeypatch.setattr(
        acceptance, "run_all",
        lambda: [CriterionResult(1, "forced", False, "forced failure")],
    )
    code, out, _ = invoke(capsys, "verify")
    assert code == 5 and "[FAIL]" in out


def test_failed_solve_maps_to_invariant_exit_code(capsys, monkeypatch):
    from braidlift import lattice
    from braidlift.errors import NoIntegralSolution

    def unsolvable(forest, values):
        raise NoIntegralSolution("forced failure")

    monkeypatch.setattr(lattice, "_solve_on_generators", unsolvable)
    for argv in (
        ["cocycle", "--group", "S(3)", "--generators", "perm=[2,3,1];exp=[0,0,0]"],
        ["verify"],  # through criterion 10
    ):
        code, _, err = invoke(capsys, *argv)
        assert code == 5, argv
        assert "internal invariant violated" in err and "Traceback" not in err


def test_wrong_solution_fails_the_whole_group_check(capsys, monkeypatch):
    from braidlift import lattice

    solve = lattice._solve_on_generators

    def off_by_one(forest, values):
        x = list(solve(forest, values))
        # The first edge's target shares its orbit with a root, so is not one.
        x[forest.target[0]] += 1
        return tuple(x)

    monkeypatch.setattr(lattice, "_solve_on_generators", off_by_one)
    for argv in (
        ["cocycle", "--group", "S(3)", "--generators", "perm=[2,3,1];exp=[0,0,0]"],
        ["verify"],  # through criterion 10
    ):
        code, _, err = invoke(capsys, *argv)
        assert code == 5, argv
        assert "the coboundary equation fails at" in err and "Traceback" not in err


def test_moved_orbit_labels_map_to_invariant_exit_code(capsys, monkeypatch):
    from braidlift import arrangement, lattice

    def every_hyperplane_a_root(G):
        width = arrangement.hyperplane_count(G.descriptor)
        steps = arrangement.orbits(G).permutations
        return arrangement.Orbits(tuple(range(width)), [], [], [], steps)

    # the cocycle code's binding of arrangement.orbits
    monkeypatch.setattr(lattice, "orbits", every_hyperplane_a_root)
    for argv in (
        ["cocycle", "--group", "S(3)", "--generators", "perm=[2,3,1];exp=[0,0,0]"],
        ["verify"],  # through criterion 10
    ):
        code, _, err = invoke(capsys, *argv)
        assert code == 5, argv
        assert "orbit labels" in err and "Traceback" not in err


def test_joined_orbit_labels_map_to_invariant_exit_code(capsys, monkeypatch):
    from braidlift import arrangement, lattice

    def one_label(G):
        forest = arrangement.orbits(G)
        return forest._replace(root=(0,) * len(forest.root))

    # The forest's edges, with one label for every orbit: no generator moves
    # the labels, and a solved trip is fixed by G but not constant on them.
    monkeypatch.setattr(lattice, "orbits", one_label)
    for argv in (
        ["cocycle", "--group", "S(4)", "--generators", "perm=[2,1,3,4];exp=[0,0,0,0]",
         "--random", "3"],
        ["verify"],  # criterion 10: a 5-cycle of S(5), two orbits
    ):
        code, _, err = invoke(capsys, *argv)
        assert code == 5, argv
        assert "orbit labels" in err and "join orbits" in err and "Traceback" not in err


def test_check_element_method_mismatch_maps_to_invariant_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(lifting, "element_lifts_fast", lambda w: not w.is_identity)
    code, out, err = invoke(capsys, "check-element", "--group", "S(3)",
                            "--element", "perm=[1,2,3];exp=[0,0,0]", "--method", "both")
    assert code == 5 and out == ""
    assert err.startswith("internal invariant violated: method mismatch") and "Traceback" not in err


@pytest.mark.parametrize("error", [MismatchError, ValueError])
def test_value_errors_from_a_handler_exit_2(capsys, monkeypatch, error):
    def handler(args):
        raise error("forced")

    monkeypatch.setitem(cli.COMMANDS, "verify", (handler, "forced", ()))
    code, out, err = invoke(capsys, "verify")
    assert (code, out, err) == (2, "", "input error: forced\n")


def test_cocycle_on_arrangements_of_at_most_one_hyperplane(capsys):
    for group, generators, solution in (
        ("S(1)", "perm=[1];exp=[0]", []),
        ("S(2)", "perm=[2,1];exp=[0,0]", [0]),
        ("G(2,1,1)", "perm=[1];exp=[1]", [0]),
    ):
        code, out, _ = invoke(
            capsys, "cocycle", "--group", group, "--generators", generators,
            "--random", "3", "--json",
        )
        assert code == 0, group
        assert json.loads(out)["sample_solution"] == solution, group
    # With no hyperplane a trip still costs a step, so the trips stay bounded.
    code, out, err = invoke(
        capsys, "cocycle", "--group", "S(1)", "--generators", "perm=[1];exp=[0]",
        "--random", "1000000000",
    )
    assert code == 4 and out == "" and "guard" in err


def test_cocycle_guard_counts_hyperplanes_per_trip(capsys):
    # S(1000) has 499,500 hyperplanes; a transposition generates only 2
    # elements, but every trip draws and solves a vector over all of them.
    n = 1000
    transposition = (f"perm=[{','.join(map(str, [2, 1, *range(3, n + 1)]))}];"
                     f"exp=[{','.join(['0'] * n)}]")
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "cocycle", "--group", f"S({n})", "--generators", transposition,
        "--random", "1000",
    )
    assert code == 4 and out == "" and "499500 hyperplanes" in err
    assert time.perf_counter() - start < 5


def test_cocycle_guard_charges_trips_by_hyperplanes_not_elements(capsys):
    # All of S(7): 2000 trips x 21 hyperplanes pass the guard, though
    # 2000 trips x 5040 elements would not.
    s7 = "perm=[2,3,4,5,6,7,1];exp=[0,0,0,0,0,0,0];perm=[2,1,3,4,5,6,7];exp=[0,0,0,0,0,0,0]"
    code, out, err = invoke(
        capsys, "cocycle", "--group", "S(7)", "--generators", s7, "--random", "2000"
    )
    assert code == 0 and err == ""
    assert out.endswith("with 5040 elements: 2000/2000 solved\n")


def readme_block(heading, language):
    """The first fenced block of a README section."""
    section = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = section.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs(capsys):
    # the example's names resolve through the package's lazy attributes
    exec(readme_block("Library example", "python"), {})
    assert capsys.readouterr().out.splitlines()[0] == "3"


def test_readme_command_line_examples_exit_as_documented(capsys):
    commands = [shlex.split(line)[1:] for line in readme_block("Command line", "sh").splitlines()
                if line.startswith("braidlift ")]
    assert len(commands) == 10
    for argv in commands:
        code, _, err = invoke(capsys, *argv)
        # the transposition example does not lift
        assert code == (3 if "perm=[2,1,3,4];exp=[0,0,0,0]" in argv else 0), (argv, err)


# --- fuzzing: every input ends in a documented exit code, never a traceback --

DOCUMENTED_EXITS = {0, 2, 3, 4, 5}
COMMAND_NAMES = (
    "check-element", "check-subgroup", "classify", "survey", "frobenius", "cocycle", "verify"
)
#: Every G(de, e, r) with de <= 12 and r <= 8.  classify's brute force runs
#: on each one inside the guard; the slowest, G(11,1,2), takes about 25 ms.
FUZZ_GROUPS = [
    GroupDescriptor.from_deer(de, e, r)
    for de in range(1, 13) for e in range(1, de + 1) if de % e == 0 for r in range(1, 9)
]
#: Descriptors out of range: empty, zero, e not dividing de, above the guard.
BAD_GROUPS = ("", "S(0)", "S(-1)", "G(0,0,0)", "G(4,3,2)", "G(2,1,0)", "S(13)", "G(2,1,40)")
DIGITS = "0123456789"
#: Characters the mangler writes into descriptors and grids.  Leaving out the
#: digits means a mangled descriptor can only name a smaller group.
PUNCTUATION = "()[],;=<+- GSdeprmx\t"
#: Above every guard and every sensible count.
HUGE = 10**18 + 9


@st.composite
def mangled(draw, text, alphabet):
    """text with one to three characters inserted, deleted or replaced."""
    chars = list(text)
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        if op == "insert":
            chars.insert(k, draw(st.sampled_from(alphabet)))
        elif k < len(chars) and op == "delete":
            del chars[k]
        elif k < len(chars):
            chars[k] = draw(st.sampled_from(alphabet))
    return "".join(chars)


def mostly(valid, *invalid):
    """Draw from valid three times in four, else from one of invalid."""
    return st.sampled_from((True, True, True, False)).flatmap(
        lambda ok: valid if ok else st.one_of(*invalid)
    )


def group_text(desc):
    text = str(desc)
    return mostly(
        st.just(text), mangled(text, PUNCTUATION), st.sampled_from(BAD_GROUPS), st.text(max_size=8)
    )


@st.composite
def element_text(draw, desc):
    """An element of desc, with exponents out of [0, de), maybe mangled."""
    images = draw(st.permutations(range(1, desc.r + 1)))
    exps = draw(st.lists(st.integers(-30, 30), min_size=desc.r, max_size=desc.r))
    exps[-1] -= sum(exps) % desc.e
    text = f"perm=[{','.join(map(str, images))}];exp=[{','.join(map(str, exps))}]"
    return draw(mostly(st.just(text), mangled(text, DIGITS + PUNCTUATION)))


def int_text(values):
    return mostly(values.map(str), st.text(max_size=4))


@st.composite
def argvs(draw):
    """A command line for one subcommand, its values mangled or out of range."""
    command = draw(st.sampled_from(COMMAND_NAMES[:-1]))  # verify takes no options
    desc = draw(st.sampled_from(FUZZ_GROUPS))
    gens = ";".join(draw(st.lists(element_text(desc), min_size=1, max_size=3)))
    if command == "check-element":
        method = draw(mostly(st.sampled_from(("oracle", "fast", "both")), st.just("none")))
        argv = ["--group", draw(group_text(desc)), "--element", draw(element_text(desc)),
                "--method", method]
    elif command == "check-subgroup":
        argv = ["--group", draw(group_text(desc)), "--generators", gens]
    elif command == "classify":
        argv = ["--group", draw(group_text(desc))]
    elif command == "survey":
        d, e, r = (draw(mostly(st.integers(1, 2), st.sampled_from((-1, 0, HUGE)))) for _ in "der")
        argv = ["--grid", draw(mostly(st.just(f"d<={d},e<={e},r<={r}"),
                                      mangled(f"d<={d},e<={e},r<={r}", PUNCTUATION)))]
    elif command == "frobenius":
        primes = st.sampled_from((7, 11, 13, 19, 31, 37))
        argv = ["--p", draw(int_text(mostly(primes, st.integers(-5, 40), st.just(HUGE)))),
                "--q", draw(int_text(mostly(st.sampled_from((3, 5)), st.integers(-3, 12))))]
    else:
        trips = mostly(st.integers(0, 3), st.sampled_from((-3, -1, HUGE)))
        argv = ["--group", draw(group_text(desc)), "--generators", gens,
                "--random", draw(int_text(trips)), "--seed", draw(int_text(st.integers()))]
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.integers(0, 9)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    if draw(st.integers(0, 9)) == 0:
        junk = draw(st.sampled_from(("--bogus", "--gro", "--json=1", "--", "-x")))
        argv.insert(draw(st.integers(0, len(argv))), junk)
    return [command, *argv]


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


@settings(max_examples=100, deadline=None)
@given(argvs())
def test_cli_fuzz_ends_in_documented_exit_codes(argv):
    code, err = run_quietly(argv)
    assert code in DOCUMENTED_EXITS, (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@pytest.mark.parametrize("argv", [
    ["verify", "extra"], ["verify", "--json"], ["check-element"], ["survey", "--grid"], [],
    ["check-subgroup", "--group", "S(3)", "--generators", "perm=[2,3,1];exp=[0,0,0]",
     "--max-size", "5"],
    ["bogus"], ["classify", "--gro", "S(3)"], ["classify", "--group", "S(3)", "--json=1"],
    ["classify", "--group", "S(3)", "--json", "1"],
    ["check-element", "--group", "S(3)", "--element", "perm=[1,2,3];exp=[0,0,0]",
     "--method", "bogus"],
    ["frobenius", "--p", "x", "--q", "3"], ["classify", "--group"],
    ["classify", "--group", "--json"], ["classify", "--group", "S(3)", "--group", "S(4)"],
])
def test_cli_usage_errors_exit_2(argv):
    code, err = run_quietly(argv)
    assert code == 2 and "Traceback" not in err
    assert len(err.splitlines()) == 1, err


def test_cli_missing_value_names_the_option(capsys):
    for argv in (["classify", "--group"], ["classify", "--group", "--json"]):
        code, _, err = invoke(capsys, *argv)
        assert code == 2 and "--group expects a value" in err, argv


@pytest.mark.parametrize("argv, names", [
    (["--help"], COMMAND_NAMES),
    (["-h"], COMMAND_NAMES),
    (["check-element", "--help"], ("--group", "--element", "--method", "--json")),
    (["check-subgroup", "-h"], ("--group", "--generators", "--json")),
    (["classify", "--group", "S(3)", "--help"], ("--group", "--json")),
    (["survey", "--help"], ("--grid", "--json")),
    (["frobenius", "--help"], ("--p", "--q", "--json")),
    (["cocycle", "--help"], ("--group", "--generators", "--random", "--seed", "--json")),
    (["verify", "--help"], ("verify",)),
])
def test_cli_help_exits_0_and_names_the_choices(capsys, argv, names):
    code, out, err = invoke(capsys, *argv)
    assert code == 0 and err == ""
    assert all(name in out for name in names), out


def refuse_arrangement(desc):
    raise AssertionError(f"built the arrangement of {desc}")


def test_cocycle_builds_no_arrangement(capsys, monkeypatch):
    # The round trips number hyperplanes by arithmetic, so a subgroup of two
    # elements in S(200) (19,900 hyperplanes) needs no tuple of Swap planes.
    from braidlift import arrangement

    monkeypatch.setattr(arrangement, "hyperplanes", refuse_arrangement)
    n = 200
    transposition = (f"perm=[{','.join(map(str, [2, 1, *range(3, n + 1)]))}];"
                     f"exp=[{','.join(['0'] * n)}]")
    code, out, _ = invoke(
        capsys, "cocycle", "--group", f"S({n})", "--generators", transposition,
        "--random", "2", "--json",
    )
    assert code == 0 and json.loads(out)["successes"] == 2


def test_subgroup_commands_build_no_arrangement(capsys, monkeypatch):
    # check-subgroup and frobenius decode hyperplane indices by arithmetic, so
    # neither builds the tuple of Swap planes, and each searches its
    # subgroup's orbits once: that search numbers each generator's permutation.
    from braidlift import arrangement

    numbered = []
    number = arrangement.hyperplane_permutation

    def counting(g):
        numbered.append(g)
        return number(g)

    monkeypatch.setattr(arrangement, "hyperplane_permutation", counting)
    monkeypatch.setattr(arrangement, "hyperplanes", refuse_arrangement)
    n = 200
    transposition = (f"perm=[{','.join(map(str, [2, 1, *range(3, n + 1)]))}];"
                     f"exp=[{','.join(['0'] * n)}]")
    code, out, _ = invoke(
        capsys, "check-subgroup", "--group", f"S({n})", "--generators", transposition, "--json",
    )
    doc = json.loads(out)
    # orbits: {1,2}, each pair {1,k} with {2,k}, and each pair inside {3..n}
    assert code == 3 and doc["orbits"] == 1 + (n - 2) + (n - 2) * (n - 3) // 2
    assert doc["witness"]["hyperplane"] == "H[1,2;0]"
    assert len(numbered) == 1  # one generator, one orbit search
    code, out, _ = invoke(capsys, "frobenius", "--p", "61", "--q", "5", "--json")
    assert code == 0 and json.loads(out)["lifts"] is True
    assert len(numbered) == 3  # x -> x + 1 and x -> m x, one orbit search
