"""The command-line frontend: output shapes and exit codes."""

import json

from braidlift.arrangement import parse_hyperplane
from braidlift.cli import run
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
    assert parse_hyperplane(desc, doc["witness"]["hyperplane"]) is not None


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
    code, _, err = invoke(capsys, "classify", "--group", "G(2,1,12)")
    assert code == 4 and "guard" in err


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


def test_verify_runs_all_criteria(capsys):
    code, out, _ = invoke(capsys, "verify")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("[")]
    assert len(lines) == 12
    assert all(line.startswith("[PASS]") for line in lines)
    assert "12/12 criteria passed" in out


def test_failed_criterion_maps_to_invariant_exit_code(capsys, monkeypatch):
    from braidlift.acceptance import CriterionResult
    from braidlift import cli as cli_module

    monkeypatch.setattr(
        cli_module.acceptance, "run_all",
        lambda: [CriterionResult(1, "forced", False, "forced failure")],
    )
    code, out, _ = invoke(capsys, "verify")
    assert code == 5 and "[FAIL]" in out
