"""Canonical JSON emission, digests, and lossless round trips."""

from __future__ import annotations

import enum
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyint import (
    CampaignConfig,
    CappedFunction,
    ConstFunction,
    DistortedLebesgue,
    FiniteFunction,
    FiniteMonotoneMeasure,
    FlooredFunction,
    InputError,
    LatticeCombo,
    NaryOp,
    PowerFunction,
    PwlFunction,
    TheoremInstance,
    TransformedFunction,
    affine,
    compose,
    digest,
    drastic_op,
    dumps_17g,
    function_from_json,
    function_to_json,
    gen_instance,
    greatest_op,
    h_min,
    h_table,
    h_wmean,
    identity,
    instance_digest,
    instance_from_json,
    instance_to_json,
    luk_conorm_op,
    lukasiewicz_op,
    max_op,
    measure_from_json,
    measure_to_json,
    min_op,
    nary_from_json,
    nary_to_json,
    op_from_json,
    op_to_json,
    power,
    probsum_op,
    prod_op,
    smallest_op,
    sum_op,
    table_op,
    transform_from_json,
    transform_to_json,
    verify,
)
from fuzzyint.ops import INF
from fuzzyint.serialize import RawJSON


# ---------------------------------------------------------------------------
# canonical emission
# ---------------------------------------------------------------------------


def test_emission_is_single_line_sorted_and_17g():
    s = dumps_17g({"b": 0.1, "a": [1.0, float("inf")], "flag": True})
    assert "\n" not in s
    assert s.index('"a"') < s.index('"b"')
    assert '"inf"' in s
    assert json.loads(s)["b"] == pytest.approx(0.1)


def test_emission_round_trips_float_bits():
    x = 0.1 + 0.2  # 0.30000000000000004
    s = dumps_17g({"x": x})
    assert json.loads(s)["x"] == x


def test_emission_rejects_nan_and_negative_infinity():
    with pytest.raises(InputError):
        dumps_17g({"x": float("nan")})
    with pytest.raises(InputError):
        dumps_17g({"x": float("-inf")})


# The writer dispatches on exact type; this isinstance chain is the
# reference it must agree with, text for text and error for error.


def _ref_emit(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if math.isnan(obj):
            raise InputError("nan is not serializable")
        if obj == INF:
            out.append('"inf"')
        elif obj == -INF:
            raise InputError("-inf is not serializable")
        else:
            out.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _ref_emit(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, k in enumerate(sorted(obj)):
            if not isinstance(k, str):
                raise InputError("object keys must be strings")
            if i:
                out.append(",")
            out.append(json.dumps(k, ensure_ascii=True))
            out.append(":")
            _ref_emit(obj[k], out)
        out.append("}")
    else:
        raise InputError(f"cannot serialize {type(obj).__name__}")


def _outcome(dumps, doc):
    try:
        return dumps(doc)
    except Exception as exc:  # InputError, or sorted()'s TypeError on mixed keys
        return type(exc), str(exc)


def _ref_dumps(doc) -> str:
    out: list = []
    _ref_emit(doc, out)
    return "".join(out)


class Tag(str):
    pass


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, math.inf, math.nan, -math.inf]
EDGE_INTS = [2**63, -(2**200), 10**4400]  # the last exceeds int-to-str's digit limit
EDGE_STRINGS = ['say "hi"', "back\\slash", "\x00\x1f\n\t\x7f", "µ-Σ €", "\U0001f600", "\ud800"]

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    # drawn as exponents: repr, which hypothesis calls on strategies, fails on 10**4400
    st.tuples(st.sampled_from([19, 200, 4400]), st.sampled_from([1, -1])).map(
        lambda t: t[1] * 10 ** t[0]
    ),
    st.floats(),
    st.sampled_from(EDGE_FLOATS),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.text(max_size=8),
    st.sampled_from(EDGE_STRINGS),
    st.text(max_size=8).map(Tag),
    st.sampled_from(list(Level)),
)
_keys = st.one_of(
    st.text(max_size=4),
    st.sampled_from(EDGE_STRINGS + [str(i) for i in range(12)]),
    st.text(max_size=4).map(Tag),
    st.integers(-3, 3),
)
_documents = st.recursive(
    _scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.dictionaries(_keys, kids, max_size=5),
        st.dictionaries(st.text(max_size=4), kids, max_size=5),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_documents)
def test_exact_type_writer_matches_isinstance_reference(doc):
    assert _outcome(dumps_17g, doc) == _outcome(_ref_dumps, doc)


@pytest.mark.parametrize(
    "doc",
    EDGE_FLOATS
    + EDGE_INTS
    + EDGE_STRINGS
    + [np.float64(0.1), np.int64(3), Tag('t"'), Level.HIGH, None, True, 7, "", [], (), {}]
    + [{"é": 1.0, "a": (1, [2.5, None])}, {1: 2.0}, {"a": 1, 2: 3}, {Tag("k"): [Tag("v")]}]
    + [[1.0, math.inf], [math.nan], {"x": -math.inf}, {"x": object()}, b"bytes"],
    ids=lambda doc: type(doc).__name__,
)
def test_writer_matches_reference_on_edge_values(doc):
    assert _outcome(dumps_17g, doc) == _outcome(_ref_dumps, doc)


def test_raw_json_is_written_verbatim():
    d = instance_to_json(build_instances()[0])
    text = RawJSON(dumps_17g(d))
    assert dumps_17g(text) == text
    assert dumps_17g({"instance": text, "n": [text]}) == dumps_17g({"instance": d, "n": [d]})


def test_digest_is_stable_and_order_insensitive():
    a = digest({"x": 1.0, "y": 2.0})
    b = digest({"y": 2.0, "x": 1.0})
    assert a == b
    assert len(a) == 16
    assert a != digest({"x": 1.0, "y": 2.000000001})


# ---------------------------------------------------------------------------
# operation round trips
# ---------------------------------------------------------------------------

ALL_OPS = [
    min_op(),
    min_op(1.0),
    prod_op(1.0),
    smallest_op(1.0),
    smallest_op(0.5),
    greatest_op(2.0),
    lukasiewicz_op(),
    drastic_op(),
    max_op(1.0),
    sum_op(),
    probsum_op(),
    luk_conorm_op(),
]


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: f"{o.kind}-{o.neutral}-{o.cap}")
def test_op_round_trip(op):
    back = op_from_json(op_to_json(op))
    assert back == op


def test_op_json_spells_infinite_cap():
    d = op_to_json(min_op())
    assert d["cap"] == "inf"
    assert op_from_json(d).cap == math.inf


def test_unknown_op_kind_rejected():
    with pytest.raises(InputError):
        op_from_json({"kind": "banana", "neutral": 1.0, "cap": 1})


# ---------------------------------------------------------------------------
# transforms, measures, functions
# ---------------------------------------------------------------------------


def test_transform_round_trips():
    for t in (identity(), power(2.5), affine(2.0, 0.25),
              compose(power(2.0), affine(0.5, 0.1))):
        back = transform_from_json(transform_to_json(t))
        for x in (0.0, 0.3, 1.0):
            assert back.apply(x) == t.apply(x)


def test_measure_round_trips():
    m = FiniteMonotoneMeasure(2, (0.0, 0.2, 0.3, 1.0))
    back = measure_from_json(measure_to_json(m))
    assert back == m
    leb = DistortedLebesgue(power(2.0))
    back2 = measure_from_json(measure_to_json(leb))
    assert back2.distortion.apply(0.5) == 0.25


FUNCTION_CASES = [
    FiniteFunction((0.2, 0.8, 0.5)),
    ConstFunction(0.4),
    PowerFunction(2.0),
    PowerFunction(0.5, coef=0.8),
    PwlFunction((0.0, 0.4, 1.0), (0.1, 0.9, 0.3)),
    CappedFunction(PowerFunction(1.0), 0.6),
    FlooredFunction(PwlFunction((0.0, 1.0), (0.0, 1.0)), 0.2),
    LatticeCombo("min", (PowerFunction(1.0), ConstFunction(0.7))),
    TransformedFunction(PowerFunction(1.0), power(0.5)),
]


@pytest.mark.parametrize("f", FUNCTION_CASES, ids=lambda f: type(f).__name__)
def test_function_round_trip(f):
    back = function_from_json(function_to_json(f))
    assert digest(function_to_json(back)) == digest(function_to_json(f))


def test_nary_round_trips():
    for H in (h_min(3), h_wmean((0.25, 0.75)), h_table((0.0, 0.5, 1.0), tuple(
            min(a, b) for a in (0.0, 0.5, 1.0) for b in (0.0, 0.5, 1.0)))):
        back = nary_from_json(nary_to_json(H))
        assert back == H


def test_binary_aggregation_has_no_json_form():
    # the two-function families' internal H = star is never written out
    with pytest.raises(InputError, match="no JSON form"):
        nary_to_json(NaryOp("binary", op=min_op(1.0)))
    with pytest.raises(InputError, match="unknown aggregation kind"):
        nary_from_json({"kind": "binary", "arity": 2})


# ---------------------------------------------------------------------------
# whole instances
# ---------------------------------------------------------------------------


def build_instances():
    m = FiniteMonotoneMeasure(2, (0.0, 0.2, 0.5, 1.0))
    leb = DistortedLebesgue(identity())
    return [
        TheoremInstance(
            "chebyshev", min_op(1.0), m,
            [FiniteFunction((0.2, 0.6)), FiniteFunction((0.1, 0.9))],
            star=min_op(1.0),
        ),
        TheoremInstance(
            "holder", prod_op(1.0), leb,
            [PowerFunction(1.0), PowerFunction(2.0)],
            star=prod_op(1.0), exponents={"p": 2.0, "q": 2.0},
        ),
        TheoremInstance(
            "jensen", min_op(), leb, [PowerFunction(1.0)], phi=[power(2.0)],
        ),
        TheoremInstance(
            "lyapunov", min_op(), leb, [PowerFunction(1.0)],
            exponents={"r": 0.5, "s": 2.5},
        ),
        TheoremInstance(
            "thm32", min_op(), m,
            [FiniteFunction((0.2, 0.6)), FiniteFunction((0.1, 0.9))],
            H=h_min(2),
            exponents={"xi": (1.0, 1.0, 1.0), "omega": (1.0, 1.0, 1.0)},
        ),
        TheoremInstance(
            "rev_chebyshev", max_op(1.0), m,
            [FiniteFunction((0.2, 0.6)), FiniteFunction((0.1, 0.9))],
            star=probsum_op(),
        ),
    ]


@pytest.mark.parametrize("inst", build_instances(), ids=lambda i: i.theorem_id)
def test_instance_round_trip_preserves_digest_and_verdict(inst):
    # the constructor keeps lists as tuples and a dict of exponents frozen,
    # so the instance equals, hashes and digests as its round trip
    d = instance_to_json(inst)
    back = instance_from_json(d)
    assert back == inst and hash(back) == hash(inst)
    assert instance_digest(back) == instance_digest(inst)
    v1, v2 = verify(inst), verify(back)
    assert v1.holds == v2.holds
    assert v1.margin == v2.margin


@pytest.mark.parametrize(
    "reader, doc, needle",
    [
        (instance_from_json, {"theorem": "chebyshev", "measure": {}, "functions": []},
         "instance document needs field 'op'"),
        (function_from_json, {"type": "const"}, "function document needs field 'c'"),
        (measure_from_json, {"type": "finite", "n": 1, "table": {"0": 0}},
         "measure document needs field '1'"),
        (op_from_json, {"kind": "custom", "nodes": 1, "neutral": 1},
         "malformed op document: 'int' object is not iterable"),
        (nary_from_json, ["min"], "malformed aggregation document"),
        (transform_from_json, {"kind": "compose", "parts": [5]}, "malformed transform document"),
        (op_from_json, {"kind": "min", "cap": 10**400},
         "expected a number or \"inf\", got an integer beyond the float range"),
        (measure_from_json, {"type": "finite", "n": 1.9, "table": {"0": 0, "1": 1}},
         "malformed measure document: n must be an integer, got 1.9"),
        (measure_from_json, {"type": "finite", "n": "1", "table": {"0": 0, "1": 1}},
         "malformed measure document: n must be an integer, got '1'"),
        (measure_from_json, {"type": "finite", "n": 64, "table": {}},
         "ground set size must be in 1..20"),
        (measure_from_json, {"type": "finite", "n": -1, "table": {}},
         "ground set size must be in 1..20"),
        (nary_from_json, {"kind": "min", "arity": 2.7},
         "malformed aggregation document: arity must be an integer, got 2.7"),
        # in every family an unknown kind is reported before an unknown field
        (op_from_json, {"kind": "spline", "spare": 1}, "^unknown op kind 'spline'$"),
        (transform_from_json, {"kind": ["power"], "spare": 1},
         r"^unknown transform kind \['power'\]$"),
        (measure_from_json, {"type": "spline", "spare": 1}, "^unknown measure type 'spline'$"),
        (function_from_json, {"type": ["finite"], "spare": 1},
         r"^unknown function type \['finite'\]$"),
        (nary_from_json, {"kind": "spline", "spare": 1}, "^unknown aggregation kind 'spline'$"),
    ],
)
def test_readers_report_missing_and_mistyped_fields_as_input_errors(reader, doc, needle):
    with pytest.raises(InputError, match=needle):
        reader(doc)


@pytest.mark.parametrize(
    "reader, doc",
    [
        (transform_from_json, {"kind": "affine", "a": 1, "b": math.nan}),
        (function_from_json, {"type": "capped", "base": {"type": "power", "p": 1}, "c": math.nan}),
        (op_from_json, {"kind": "smallest", "neutral": math.nan}),
    ],
)
def test_readers_reject_nan_numbers(reader, doc):
    with pytest.raises(InputError, match="expected a number"):
        reader(doc)


def _written_documents():
    """(reader, document) for each kind or type its writer emits."""
    nodes = (0.0, 0.5, 1.0)
    table = table_op(nodes, [min(a, b) for a in nodes for b in nodes], neutral=1.0, name="min3")
    for op in ALL_OPS + [table]:
        yield op_from_json, op_to_json(op)
    for t in (identity(), power(2.5), affine(2.0, 0.25), compose(power(2.0), affine(0.5, 0.1))):
        yield transform_from_json, transform_to_json(t)
    for m in (FiniteMonotoneMeasure(2, (0.0, 0.2, 0.3, 1.0)), DistortedLebesgue(power(2.0))):
        yield measure_from_json, measure_to_json(m)
    for f in FUNCTION_CASES:
        yield function_from_json, function_to_json(f)
    for H in (h_min(3), h_wmean((0.25, 0.75)), h_table(nodes, table.table_values)):
        yield nary_from_json, nary_to_json(H)


@pytest.mark.parametrize("reader, doc", list(_written_documents()))
def test_readers_refuse_a_field_their_writer_never_emits(reader, doc):
    reader(doc)
    with pytest.raises(InputError, match=r" document has unknown fields 'spare'$"):
        reader(dict(doc, spare=1))


@pytest.mark.parametrize(
    "reader, doc, needle",
    [
        # a misspelt cap would leave the op at cap inf, the universal integral
        (op_from_json, {"kind": "min", "cpa": 1}, "min op document has unknown fields 'cpa'"),
        (function_from_json, {"type": "power", "p": 2, "scale": 3},
         "power function document has unknown fields 'scale'"),
        (op_from_json, {"kind": "custom", "nodes": [0, 1], "values": [0, 0, 0, 1], "neutral": 1,
                        "flag": ["commutative"]}, "custom op document has unknown fields 'flag'"),
        (measure_from_json, {"type": "finite", "n": 1, "table": {"0": 0, "1": 1, "2": 1}},
         "1-point measure table has unknown fields '2'"),
        (measure_from_json, {"type": "finite", "n": 1, "table": {"0": 0, "1": 1, "01": 0.5}},
         "1-point measure table has unknown fields '01'"),
        # a value a kind fixes is compared, not ignored
        (op_from_json, {"kind": "lukasiewicz", "cap": 5}, "has cap 1.0, not 5"),
        (nary_from_json, {"kind": "wmean", "arity": 3, "weights": [0.5, 0.5]},
         "wmean aggregation has arity 2, not 3"),
    ],
)
def test_readers_refuse_fields_that_would_read_as_defaults(reader, doc, needle):
    with pytest.raises(InputError, match=needle):
        reader(doc)


def test_custom_table_op_round_trips_through_an_instance():
    nodes = (0.0, 0.5, 1.0)
    op = table_op(
        nodes, [min(a, b) for a in nodes for b in nodes], neutral=1.0,
        flags=("nondecreasing", "commutative", "associative", "neutral",
               "annihilator_zero", "bounded_above_by_min"),
        name="min3",
    )
    inst = TheoremInstance(
        "chebyshev", op, FiniteMonotoneMeasure(2, (0.0, 0.25, 0.5, 1.0)),
        [FiniteFunction((0.2, 0.6)), FiniteFunction((0.1, 0.9))], star=op,
    )
    doc = instance_to_json(inst)
    assert doc["op"]["kind"] == "custom" and doc["op"]["name"] == "min3"
    back = instance_from_json(json.loads(dumps_17g(doc)))
    assert back.op == op and back.star == op
    assert digest(verify(back).to_json()) == digest(verify(inst).to_json())


def test_instance_json_is_self_contained():
    inst = build_instances()[0]
    blob = dumps_17g(instance_to_json(inst))
    back = instance_from_json(json.loads(blob))
    assert instance_digest(back) == instance_digest(inst)


def test_instance_digest_separates_distinct_instances():
    digests = {instance_digest(i) for i in build_instances()}
    assert len(digests) == len(build_instances())


@pytest.mark.parametrize("tid", ["thm31", "thm41"])
def test_generated_instances_with_u_and_psi_round_trip(tid):
    inst = gen_instance(CampaignConfig(theorem_id=tid, seed=3, trials=1), 0)
    doc = instance_to_json(inst)
    assert len(doc["u"]) == 3 and len(doc["psi"]) == 2
    back = instance_from_json(json.loads(dumps_17g(doc)))
    assert instance_digest(back) == instance_digest(inst)
