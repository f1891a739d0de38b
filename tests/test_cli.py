"""Command line interface: outputs, exit codes, error handling."""

from __future__ import annotations

import json

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
)
from fuzzyint.cli import main


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
    return TheoremInstance.make(
        "chebyshev", min_op(1.0), m,
        [FiniteFunction((0.2, 0.5, 0.8)), FiniteFunction((0.1, 0.4, 0.9))],
        star=min_op(1.0),
    )


def failing_instance():
    m = counting_measure(2, normalized=True)
    return TheoremInstance.make(
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


def test_verify_rejects_theorem_mismatch(tmp_path, capsys):
    path = write(tmp_path, "inst.json", instance_to_json(holding_instance()))
    code, _, err = run_cli(capsys, "verify", "--theorem", "holder", "--instance", path)
    assert code == 2
    assert "does not match" in json.loads(err)["error"]


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
    ],
    ids=["trials-string", "n-range-reversed", "n-range-too-large", "negative-seed",
         "null-seed", "extended-cap-one"],
)
def test_falsify_bad_config_exits_two_before_any_output(tmp_path, capsys, patch):
    doc = dict(falsify_config_doc(), **patch)
    path = write(tmp_path, "config.json", doc)
    code, out, err = run_cli(capsys, "falsify", "--theorem", doc["theorem"], "--config", path)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert set(json.loads(err)) == {"error"}


def test_falsify_config_without_seed_exits_two(tmp_path, capsys):
    doc = falsify_config_doc()
    del doc["seed"]
    path = write(tmp_path, "config.json", doc)
    code, out, err = run_cli(capsys, "falsify", "--theorem", "star_general", "--config", path)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "campaign config needs field 'seed'"}


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


def test_fixture_command_reports_all_checks(capsys):
    code, out, _ = run_cli(capsys, "reproduce-paper")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["values"]["const"] == 1
    assert abs(doc["values"]["sqrt"] - 0.6180339887498949) <= 1e-9
    assert doc["verdict"]["holds"] is False
