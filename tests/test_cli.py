"""Command line interface: outputs, exit codes, error handling."""

from __future__ import annotations

import json
import math

import pytest

from fuzzyint import (
    TheoremInstance,
    counting_measure,
    dumps_17g,
    FiniteFunction,
    instance_to_json,
    min_op,
    op_to_json,
    probsum_op,
    smallest_op,
)
from fuzzyint.cli import main
from fuzzyint.ops import MAX_GRID_NODES


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(dumps_17g(doc) + "\n", encoding="utf-8")
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


LEB_SQRT = {
    "measure": {"type": "distorted_lebesgue", "distortion": {"kind": "identity"}},
    "function": {"type": "power", "p": 0.5},
}


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def test_integrate_sugeno_golden_value(tmp_path, capsys):
    path = write(tmp_path, "inst.json", LEB_SQRT)
    code, out, err = run_cli(capsys, "integrate", "--instance", path, "--integral", "sugeno")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert abs(doc["value"] - 0.6180339887498949) <= 1e-9


def test_integrate_smallest_e_is_exactly_zero(tmp_path, capsys):
    path = write(tmp_path, "inst.json", LEB_SQRT)
    code, out, _ = run_cli(capsys, "integrate", "--instance", path,
                           "--integral", "smallest-e", "--e", "1.0")
    assert code == 0
    assert json.loads(out)["value"] == 0.0


def test_integrate_universal_takes_op_document(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", LEB_SQRT)
    op = write(tmp_path, "op.json", op_to_json(min_op()))
    code, out, _ = run_cli(capsys, "integrate", "--instance", inst,
                           "--integral", "universal", "--op", op)
    assert code == 0
    assert abs(json.loads(out)["value"] - 0.6180339887498949) <= 1e-9


def test_integrate_missing_op_is_an_input_error(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", LEB_SQRT)
    code, out, err = run_cli(capsys, "integrate", "--instance", inst,
                             "--integral", "universal")
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


def test_integrate_rejects_missing_file(capsys):
    code, _, err = run_cli(capsys, "integrate", "--instance", "/nonexistent.json",
                           "--integral", "sugeno")
    assert code == 2
    assert "error" in json.loads(err)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def holding_instance():
    m = counting_measure(3, normalized=True)
    return TheoremInstance(
        "chebyshev", min_op(1.0), m,
        [FiniteFunction((0.2, 0.5, 0.8)), FiniteFunction((0.1, 0.4, 0.9))],
        star=min_op(1.0),
    )


def failing_instance():
    m = counting_measure(2, normalized=True)
    return TheoremInstance(
        "chebyshev", min_op(1.0), m,
        [FiniteFunction((0.1, 0.9)), FiniteFunction((0.8, 0.2))],
        star=min_op(1.0),
    )


def test_verify_exit_zero_when_inequality_holds(tmp_path, capsys):
    path = write(tmp_path, "inst.json", instance_to_json(holding_instance()))
    code, out, _ = run_cli(capsys, "verify", "--theorem", "chebyshev", "--instance", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True
    assert doc["hypotheses_met"] is True


def test_verify_exit_one_when_inequality_fails(tmp_path, capsys):
    path = write(tmp_path, "inst.json", instance_to_json(failing_instance()))
    code, out, _ = run_cli(capsys, "verify", "--theorem", "chebyshev", "--instance", path)
    doc = json.loads(out)
    if doc["holds"]:
        pytest.skip("instance unexpectedly holds")
    assert code == 1


def test_verify_jensen_without_phi_gives_a_verdict(tmp_path, capsys):
    # a missing phi reads as the identity, in the verdict and in its condition
    inst = TheoremInstance(
        "jensen", min_op(1.0), counting_measure(3, normalized=True),
        [FiniteFunction((0.2, 0.5, 0.8))],
    )
    path = write(tmp_path, "inst.json", instance_to_json(inst))
    code, out, err = run_cli(capsys, "verify", "--theorem", "jensen", "--instance", path)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["holds"] is True and doc["hypotheses_met"] is True


def test_verify_rejects_theorem_mismatch(tmp_path, capsys):
    path = write(tmp_path, "inst.json", instance_to_json(holding_instance()))
    code, _, err = run_cli(capsys, "verify", "--theorem", "holder", "--instance", path)
    assert code == 2
    assert "does not match" in json.loads(err)["error"]


# an interval chebyshev instance whose first function has a NaN parameter
NAN_INSTANCE = {
    "theorem": "chebyshev",
    "op": {"kind": "min", "cap": "inf"},
    "star": {"kind": "min", "cap": "inf"},
    "measure": LEB_SQRT["measure"],
    "functions": [
        {"type": "transformed", "base": {"type": "power", "p": 1},
         "transform": {"kind": "affine", "a": 1, "b": math.nan}},
        {"type": "power", "p": 2},
    ],
}

# a finite chebyshev instance whose table has m({x0}) = 1.5 > m({x0, x1}) = 1
NON_MONOTONE_INSTANCE = {
    "theorem": "chebyshev",
    "op": {"kind": "min", "cap": "inf"},
    "star": {"kind": "min", "cap": "inf"},
    "measure": {"type": "finite", "n": 2, "table": {"0": 0, "1": 1.5, "2": 0.2, "3": 1}},
    "functions": [{"type": "finite", "values": [0.2, 0.5]},
                  {"type": "finite", "values": [0.1, 0.4]}],
}


# a valid finite star_general instance, spoilt one field at a time below
STAR_INSTANCE = dict(
    NON_MONOTONE_INSTANCE,
    theorem="star_general",
    measure={"type": "finite", "n": 2, "table": {"0": 0, "1": 0.5, "2": 0.2, "3": 1}},
)


# STAR_INSTANCE without its star, for statements that compare one function
ONE_FUNCTION_INSTANCE = {k: v for k, v in STAR_INSTANCE.items() if k != "star"}


@pytest.mark.parametrize(
    "argv, doc, why",
    [
        (("verify", "--theorem", "chebyshev"),
         {k: v for k, v in NAN_INSTANCE.items() if k != "op"}, "needs field 'op'"),
        (("integrate", "--integral", "sugeno"), {"measure": LEB_SQRT["measure"], "functions": []},
         "malformed instance document"),
        (("verify", "--theorem", "chebyshev"), NAN_INSTANCE, "got nan"),
        (("verify", "--theorem", "chebyshev"), NON_MONOTONE_INSTANCE, "not monotone"),
        (("verify", "--theorem", "chebyshev"), dict(NAN_INSTANCE, functions=[
            {"type": "transformed", "base": {"type": "power", "p": 1},
             "transform": {"kind": "affine", "a": 1, "b": -0.3}},
            {"type": "power", "p": 2},
        ]), "offset b >= 0"),
        (("integrate", "--integral", "smallest-e"), dict(LEB_SQRT, e="0.5"), "got '0.5'"),
        (("integrate", "--integral", "smallest-e"), dict(LEB_SQRT, e=True), "got True"),
        (("integrate", "--integral", "sugeno", "--tol", "0"), LEB_SQRT, "--tol"),
        (("integrate", "--integral", "sugeno", "--tol", "-1"), LEB_SQRT, "--tol"),
        (("verify", "--theorem", "chebyshev", "--tol", "-1"), instance_to_json(holding_instance()),
         "--tol"),
        (("verify", "--theorem", "chebyshev", "--tol", "inf"), instance_to_json(failing_instance()),
         "--tol"),
        (("verify", "--theorem", "chebyshev", "--tol", "nan"), instance_to_json(holding_instance()),
         "--tol"),
        (("verify", "--theorem", "star_general"), dict(STAR_INSTANCE, exponents={"xi1": [0.5]}),
         "exponent xi1 must be a number"),
        (("verify", "--theorem", "lyapunov"), dict(
            ONE_FUNCTION_INSTANCE, theorem="lyapunov", functions=STAR_INSTANCE["functions"][:1],
            exponents={"r": [2.0]}), "exponent r must be a number"),
        (("verify", "--theorem", "star_general"), dict(STAR_INSTANCE, exponents={"xi1": "0.5"}),
         "got '0.5'"),
        (("verify", "--theorem", "star_general"), dict(STAR_INSTANCE, exponents={"xi1": True}),
         "got True"),
        # a name the family does not read, misspelt or an old alias, is not read as 1
        (("verify", "--theorem", "seminormed_general"),
         dict(STAR_INSTANCE, theorem="seminormed_general", exponents={"lamda": 3.0}),
         "reads no exponent lamda"),
        (("verify", "--theorem", "seminormed_general"),
         dict(STAR_INSTANCE, theorem="seminormed_general", exponents={"lam": 3.0}),
         "reads no exponent lam"),
        # a misspelt top-level key is refused, not skipped so that λ reads as 1
        (("verify", "--theorem", "seminormed_general"),
         dict(STAR_INSTANCE, theorem="seminormed_general", exponent={"lambda": 3.0}),
         "unknown fields 'exponent'"),
        # a misspelt key inside an op or function is refused, not read as its default
        (("verify", "--theorem", "seminormed_general"),
         dict(STAR_INSTANCE, theorem="seminormed_general", op={"kind": "min", "cpa": 1}),
         "unknown fields 'cpa'"),
        (("verify", "--theorem", "chebyshev"), dict(NAN_INSTANCE, functions=[
            {"type": "power", "p": 2, "scale": 3}, {"type": "power", "p": 2}]),
         "unknown fields 'scale'"),
        # a field the statement does not read is refused, not left to change the tol
        (("verify", "--theorem", "jensen"),
         dict(STAR_INSTANCE, theorem="jensen", functions=STAR_INSTANCE["functions"][:1]),
         "jensen reads no star"),
        # phi(1e300) = 1e300 ** 2 is beyond the float range
        (("verify", "--theorem", "jensen"), dict(
            ONE_FUNCTION_INSTANCE, theorem="jensen",
            functions=[{"type": "finite", "values": [1e300, 0.5]}],
            phi=[{"kind": "power", "p": 2}]), "float overflow"),
        (("integrate", "--integral", "sugeno"),
         dict(LEB_SQRT, function={"type": "lattice", "mode": "min", "parts": []}),
         "at least one part"),
        # an H whose monotonicity check could not finish is refused as it is read
        (("verify", "--theorem", "thm32"), dict(
            ONE_FUNCTION_INSTANCE, theorem="thm32", functions=STAR_INSTANCE["functions"][:1] * 6,
            H={"kind": "wmean", "weights": [1] * 6}), "at most arity 5"),
    ],
    ids=["verify-without-op", "integrate-without-functions", "verify-nan-parameter",
         "verify-non-monotone-table", "verify-negative-affine-offset", "integrate-e-string",
         "integrate-e-bool", "integrate-tol-zero", "integrate-tol-negative",
         "verify-tol-negative", "verify-tol-inf", "verify-tol-nan", "verify-exponent-list",
         "verify-moment-order-list", "verify-exponent-string", "verify-exponent-bool",
         "verify-unread-exponent", "verify-lam-alias", "verify-unknown-key",
         "verify-op-cpa", "verify-function-scale",
         "verify-unread-star",
         "verify-power-overflow", "lattice-empty-parts", "verify-H-arity-6"],
)
def test_bad_instance_document_exits_two(tmp_path, capsys, argv, doc, why):
    path = tmp_path / "inst.json"
    # json.dumps spells nan as NaN, which JSON readers accept
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, *argv, "--instance", str(path))
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    error = json.loads(err)
    assert set(error) == {"error"}
    # each document reaches the refusal it is named for, not an earlier one
    assert why in error["error"]


# ---------------------------------------------------------------------------
# falsify
# ---------------------------------------------------------------------------


def falsify_config_doc(trials=120):
    return {
        "theorem": "star_general",
        "seed": 99,
        "trials": trials,
        "carrier": "finite",
        "n_range": [2, 6],
        "measure_family": "random_table",
        "op_pool": [op_to_json(min_op(1.0))],
        "star_pool": [op_to_json(min_op(1.0))],
        "exponent_ranges": {"xi1": [0.3, 0.8], "xi2": [0.3, 0.8]},
        "respect_hypotheses": False,
        "normalize_measure": True,
    }


def test_falsify_streams_ndjson_and_exits_one(tmp_path, capsys):
    path = write(tmp_path, "config.json", falsify_config_doc())
    code, out, _ = run_cli(capsys, "falsify", "--theorem", "star_general",
                           "--config", path)
    assert code == 1
    lines = out.strip().split("\n")
    records = [json.loads(line) for line in lines]
    assert records[0]["record"] == "header"
    assert records[-1]["record"] == "summary"
    kinds = {r["record"] for r in records}
    assert "violation" in kinds
    assert records[-1]["trials"] == 120


def test_falsify_clean_campaign_exits_zero(tmp_path, capsys):
    doc = falsify_config_doc(trials=40)
    doc["theorem"] = "chebyshev"
    doc.pop("exponent_ranges")
    doc["respect_hypotheses"] = True
    path = write(tmp_path, "config.json", doc)
    code, out, _ = run_cli(capsys, "falsify", "--theorem", "chebyshev", "--config", path)
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert records[-1]["violations"] == []


# configs that some trial cannot run whatever its data, each with the
# entries the refusal names; without the pre-header probe of the trial code
# each of them wrote its header first
_INTERVAL_CHEB = {"theorem": "chebyshev", "carrier": "lebesgue_power", "measure_family": "distorted",
                  "op_pool": [{"kind": "min"}], "exponent_ranges": {}, "seed": 5, "trials": 50}
_SMALLEST = [{"kind": "smallest", "neutral": 0.5}]
PROBE_REFUSED = {
    "interval-smallest-star": (dict(_INTERVAL_CHEB, star_pool=_SMALLEST), "star smallest"),
    "interval-drastic-star": (dict(_INTERVAL_CHEB, star_pool=[{"kind": "drastic"}]), "star drastic"),
    "interval-table-H": (
        dict(_INTERVAL_CHEB, theorem="thm32",
             H_pool=[{"kind": "table", "arity": 2, "nodes": [0, 1], "values": [0, 0, 0, 1]}]),
        "H table",
    ),
    "one-transform-phi": (
        {"theorem": "thm33", "phi_pool": [[{"kind": "power", "p": 2}]], "exponent_ranges": {}},
        "phi power",
    ),
    "extended-overflow": (
        {"scale": "extended", "measure_family": "counting", "normalize_measure": False,
         "op_pool": [{"kind": "prod"}], "star_pool": [{"kind": "prod"}],
         "exponent_ranges": {"xi0": [300, 400], "omega0": [300, 400]}},
        "op prod (cap inf) with star prod (cap inf): float overflow",
    ),
    "zero-trials-smallest-star": (dict(_INTERVAL_CHEB, star_pool=_SMALLEST, trials=0), "star smallest"),
}


@pytest.mark.parametrize(
    "patch",
    [
        {"trials": "many"},
        {"n_range": [5, 2]},
        {"n_range": [30, 30]},
        {"seed": -1},
        {"seed": None},
        {"op_pool": [{"kind": "prod", "cap": 1}], "scale": "extended", "seed": 3,
         "theorem": "chebyshev", "exponent_ranges": {}},
        {"op_pool": [{"kind": "min", "cap": 0.5}]},
        {"theorem": "rev_minkowski", "exponent_ranges": {"k": [0.5, 2.0]}},
        {"op_pool": [{"kind": "max", "cap": 1}]},
        dict(_INTERVAL_CHEB, star_pool=[{"kind": "prod", "cap": 0}]),
        {"respect_hypothesis": False},
        {"theorem": "thm32", "exponent_ranges": {"xi_iner": [0.5, 2.0]}},
        {"theorem": "thm32", "exponent_ranges": {}, "H_pool": [{"kind": "min", "arity": 6}]},
    ] + [patch for patch, _ in PROBE_REFUSED.values()],
    ids=["trials-string", "n-range-reversed", "n-range-too-large", "negative-seed",
         "null-seed", "extended-cap-one", "unit-cap-half", "reverse-family-forward-op",
         "forward-family-reverse-op", "interval-star-cap-zero", "config-unknown-field",
         "config-undrawn-range", "config-H-arity-6",
         *PROBE_REFUSED],
)
def test_falsify_bad_config_exits_two_before_any_output(tmp_path, capsys, patch):
    doc = dict(falsify_config_doc(), **patch)
    path = write(tmp_path, "config.json", doc)
    code, out, err = run_cli(capsys, "falsify", "--theorem", doc["theorem"], "--config", path)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert set(json.loads(err)) == {"error"}


@pytest.mark.parametrize("case", PROBE_REFUSED)
def test_falsify_refusal_names_the_entries_it_probed(tmp_path, capsys, case):
    patch, names = PROBE_REFUSED[case]
    doc = dict(falsify_config_doc(), **patch)
    path = write(tmp_path, "config.json", doc)
    code, out, err = run_cli(capsys, "falsify", "--theorem", doc["theorem"], "--config", path)
    assert (code, out) == (2, "")
    assert names in json.loads(err)["error"]


@pytest.mark.xfail(strict=True, reason="a power past the float range after trial 0 exits 2 mid-stream")
def test_falsify_overflow_after_the_probe_exits_two_before_any_output(tmp_path, capsys):
    # trial 0 passes the probe; a later trial's sides overflow
    doc = {
        "theorem": "star_general", "seed": 0, "trials": 200, "scale": "extended",
        "measure_family": "counting", "normalize_measure": False, "respect_hypotheses": False,
        "op_pool": [{"kind": "prod"}], "star_pool": [{"kind": "prod"}],
        "exponent_ranges": {"xi0": [1, 20], "omega0": [1, 20]},
    }
    path = write(tmp_path, "config.json", doc)
    code, out, err = run_cli(capsys, "falsify", "--theorem", "star_general", "--config", path)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""


def test_falsify_config_without_seed_exits_two(tmp_path, capsys):
    doc = falsify_config_doc()
    del doc["seed"]
    path = write(tmp_path, "config.json", doc)
    code, out, err = run_cli(capsys, "falsify", "--theorem", "star_general", "--config", path)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "campaign config needs field 'seed'"}


def test_falsify_config_with_a_misspelt_field_names_it(tmp_path, capsys):
    doc = dict(falsify_config_doc(), respect_hypothesis=True, shrinks=False)
    path = write(tmp_path, "config.json", doc)
    code, out, err = run_cli(capsys, "falsify", "--theorem", "star_general", "--config", path)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "campaign config has unknown fields 'respect_hypothesis', 'shrinks'"
    }


@pytest.mark.parametrize(
    "patch",
    [
        {"scale": "huge"},
        {"distortion_p_range": [0.5, 1, 2]},
        {"distortion_p_range": ["0.5", 0.8]},
        {"distortion_p_range": [True, 2]},
        {"distortion_p_range": [0, 1]},
        {"exponent_ranges": {"xi1": [0.3, "inf"]}},
        {"exponent_ranges": {"xi1": [0.3, "OVERFLOW"]}},
        {"exponent_ranges": {"xi1": [math.nan, 0.8]}},
        {"exponent_ranges": {"xi1": 0.5}},
        {"seed": 2**128},
        {"distortion_p_range": [0.5, 1e300]},
        {"exponent_ranges": {"xi1": [-1, 0.8]}},
        {"exponent_ranges": {"xi1": [0.8, 0.3]}},
    ],
    ids=["scale-huge", "p-range-three-numbers", "p-range-string", "p-range-bool",
         "p-range-zero", "exponent-range-inf-string", "exponent-range-1e400",
         "exponent-range-nan", "exponent-range-scalar", "seed-beyond-philox-key",
         "p-range-1e300", "exponent-range-negative", "exponent-range-reversed"],
)
def test_falsify_bad_scale_or_range_exits_two_before_any_output(tmp_path, capsys, patch):
    # an interval campaign on distorted measures, which draws from both ranges
    doc = dict(falsify_config_doc(), carrier="lebesgue_power", measure_family="distorted")
    doc.update(patch)
    path = tmp_path / "config.json"
    # json.dumps spells nan as NaN, which JSON readers accept; 1e400 reads as inf
    path.write_text(json.dumps(doc).replace('"OVERFLOW"', "1e400"), encoding="utf-8")
    code, out, err = run_cli(capsys, "falsify", "--theorem", "star_general", "--config", str(path))
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert set(json.loads(err)) == {"error"}


# ---------------------------------------------------------------------------
# check-op and the fixture
# ---------------------------------------------------------------------------


def test_check_op_passes_for_honest_declaration(tmp_path, capsys):
    path = write(tmp_path, "op.json", op_to_json(probsum_op()))
    code, out, _ = run_cli(capsys, "check-op", "--op", path)
    assert code == 0
    doc = json.loads(out)
    assert all(c["passed"] for c in doc["checks"])


def test_check_op_custom_properties_and_grid(tmp_path, capsys):
    path = write(tmp_path, "op.json", op_to_json(min_op(1.0)))
    code, out, _ = run_cli(capsys, "check-op", "--op", path,
                           "--properties", "commutative,associative", "--grid", "11")
    assert code == 0
    names = {c["name"] for c in json.loads(out)["checks"]}
    assert names == {"commutative", "associative"}


def test_check_op_grid_keeps_the_neutral_node(tmp_path, capsys):
    path = write(tmp_path, "op.json", op_to_json(smallest_op(0.5)))
    code, out, _ = run_cli(capsys, "check-op", "--op", path, "--grid", "10")
    assert code == 0
    grid = json.loads(out)["grid"]
    assert (grid["n"], grid["hi"], grid["extra"]) == (10, None, [0.5])


@pytest.mark.parametrize(
    "argv, error",
    [
        (("--grid", "0"), "grid needs at least 2 nodes"),
        # refused before any n-by-n array is built
        (("--grid", str(MAX_GRID_NODES + 1)), f"grid takes at most {MAX_GRID_NODES} nodes"),
        (("--properties", "neutral=abc"), "unknown property 'neutral=abc'"),
    ],
    ids=["grid-0", "grid-above-bound", "neutral-value"],
)
def test_check_op_bad_arguments_exit_2(tmp_path, capsys, argv, error):
    path = write(tmp_path, "op.json", op_to_json(probsum_op()))
    code, out, err = run_cli(capsys, "check-op", "--op", path, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": error}


def test_fixture_command_reports_all_checks(capsys):
    code, out, _ = run_cli(capsys, "reproduce-paper")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["values"]["const"] == 1
    assert abs(doc["values"]["sqrt"] - 0.6180339887498949) <= 1e-9
    assert doc["verdict"]["holds"] is False
