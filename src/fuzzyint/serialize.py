"""Deterministic JSON for every domain object.

Numbers are emitted with 17 significant digits so binary64 values
round-trip exactly; infinity is the string "inf".  Keys are sorted and
output carries no timestamps, which makes reports byte-identical across
runs and lets a sha256 digest identify an instance.

The writer dispatches on each value's exact type through one table,
``_EMIT``, and quotes strings through a bounded cache; any other type
(``np.float64``, an ``IntEnum``, a ``str`` subclass) falls back to an
``isinstance`` chain.  :class:`RawJSON` is JSON text written verbatim,
so a document serialised once can be digested and spliced into a
record: ``digest(RawJSON(dumps_17g(d))) == digest(d)``.

The readers (``*_from_json``) take documents from outside the program,
so every failure they meet is an :class:`InputError`: a missing field,
a field of the wrong type, a NaN where a number belongs, or a field the
writer never emits for that kind, which would otherwise be skipped and
leave its default in place.  Each family of documents (ops, transforms,
measures, functions, aggregations) is one table of rows by kind, each
row the fields the writer emits for that kind and its reader, and
:func:`_read_kind` reads every family through its table.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from contextlib import contextmanager

from .ops import (
    INF,
    BinaryOp,
    InputError,
    KIND_CUSTOM,
    drastic_op,
    greatest_op,
    luk_conorm_op,
    lukasiewicz_op,
    max_op,
    min_op,
    probsum_op,
    prod_op,
    smallest_op,
    sum_op,
    table_op,
)
from .functions import (
    CappedFunction,
    ConstFunction,
    FiniteFunction,
    FlooredFunction,
    LatticeCombo,
    MonotoneTransform,
    PowerFunction,
    PwlFunction,
    TransformedFunction,
    affine,
    compose,
    identity,
    power,
)
from .measures import MAX_GROUND_SET, DistortedLebesgue, FiniteMonotoneMeasure
from .inequalities import NaryOp, TheoremInstance, h_wmean


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


class RawJSON(str):
    """JSON text that has already been serialised; the writer copies it verbatim."""

    __slots__ = ()


# keys, measure-table keys "0".."63" and kinds repeat on every record
_quote = functools.lru_cache(maxsize=1024)(json.encoder.encode_basestring_ascii)


def _emit_float(obj, out: list) -> None:
    if math.isnan(obj):
        raise InputError("nan is not serializable")
    if obj == INF:
        out.append('"inf"')
    elif obj == -INF:
        raise InputError("-inf is not serializable")
    else:
        out.append(format(obj, ".17g"))


# Containers format finite floats, most of every instance, without a call.


def _emit_seq(obj, out: list) -> None:
    sep = "["
    for item in obj:
        if type(item) is float and -INF < item < INF:
            out.append(sep + format(item, ".17g"))
        else:
            out.append(sep)
            _EMIT.get(type(item), _emit_other)(item, out)
        sep = ","
    out.append("]" if sep == "," else "[]")


def _emit_dict(obj, out: list) -> None:
    sep = "{"
    for k in sorted(obj):
        if not isinstance(k, str):
            raise InputError("object keys must be strings")
        key = sep + _quote(k) + ":"  # a str subclass quotes as its text
        v = obj[k]
        if type(v) is float and -INF < v < INF:
            out.append(key + format(v, ".17g"))
        else:
            out.append(key)
            _EMIT.get(type(v), _emit_other)(v, out)
        sep = ","
    out.append("}" if sep == "," else "{}")


def _emit_other(obj, out: list) -> None:
    # subclasses and foreign types (np.float64, IntEnum, str subclasses)
    if isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        _emit_float(obj, out)
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (list, tuple)):
        _emit_seq(obj, out)
    elif isinstance(obj, dict):
        _emit_dict(obj, out)
    else:
        raise InputError(f"cannot serialize {type(obj).__name__}")


_EMIT = {
    float: _emit_float,
    dict: _emit_dict,
    list: _emit_seq,
    tuple: _emit_seq,
    str: lambda obj, out: out.append(_quote(obj)),
    int: lambda obj, out: out.append(str(obj)),
    bool: lambda obj, out: out.append("true" if obj else "false"),
    type(None): lambda obj, out: out.append("null"),
    RawJSON: lambda obj, out: out.append(obj),
}


def _emit(obj, out: list) -> None:
    _EMIT.get(type(obj), _emit_other)(obj, out)


def dumps_17g(obj) -> str:
    """Single-line deterministic JSON with 17-significant-digit floats."""
    out: list = []
    _emit(obj, out)
    return "".join(out)


def digest(obj) -> str:
    """16-hex-char sha256 prefix of the deterministic serialization."""
    return hashlib.sha256(dumps_17g(obj).encode("ascii")).hexdigest()[:16]


@contextmanager
def reading(what: str):
    """Turn a missing or mistyped field of a ``what`` document into an InputError.

    Usable as a ``with`` block or as a decorator of a reader.
    """
    try:
        yield
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"{what} needs field {exc.args[0]!r}") from exc
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"malformed {what}: {exc}") from exc


def _num(x) -> float:
    if x == "inf":
        return INF
    if isinstance(x, float) and not math.isnan(x):
        return float(x)
    # a JSON bool parses to a Python bool, which is an int, and a JSON
    # integer can lie beyond the float range, where float() overflows
    if isinstance(x, int) and not isinstance(x, bool):
        if abs(x) <= sys.float_info.max:
            return float(x)
        raise InputError("expected a number or \"inf\", got an integer beyond the float range")
    raise InputError(f"expected a number or \"inf\", got {x!r}")


def _nums(v) -> tuple:
    return tuple(_num(x) for x in v)


def _json_int(v, name: str) -> int:
    # a JSON bool parses to a Python bool, which is an int
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"{name} must be an integer, got {v!r}")
    return v


def _refuse_unknown(d: dict, fields, what: str) -> None:
    """Refuse the keys of d outside fields, those its writer emits."""
    unknown = sorted(d.keys() - fields)
    if unknown:
        raise InputError(f"{what} has unknown fields {', '.join(map(repr, unknown))}")


def _read_kind(d: dict, rows: dict, noun: str, key: str = "kind"):
    """Read d by the row (fields, reader) of its kind, d[key]: an unknown
    kind is refused, then any field outside the row, which the writer
    never emits for that kind."""
    kind = d.get(key)
    if not (isinstance(kind, str) and kind in rows):
        raise InputError(f"unknown {noun} {key} {kind!r}")
    fields, read = rows[kind]
    _refuse_unknown(d, fields, f"{kind} {noun} document")
    return read(d)


def _num_out(x: float):
    return "inf" if x == INF else float(x)


# ---------------------------------------------------------------------------
# binary ops
# ---------------------------------------------------------------------------

_OP = ("kind", "neutral", "cap")


def _capped(make):
    return lambda d: make(cap=_num(d.get("cap", "inf")))


# each op kind: the fields op_to_json writes, and its reader
_OPS = {
    "min": (_OP, _capped(min_op)),
    "prod": (_OP, _capped(prod_op)),
    "smallest": (_OP, lambda d: smallest_op(_num(d["neutral"]))),
    "greatest": (_OP, lambda d: greatest_op(_num(d["neutral"]))),
    "lukasiewicz": (_OP, lambda d: lukasiewicz_op()),
    "drastic": (_OP, lambda d: drastic_op()),
    "max": (_OP, _capped(max_op)),
    "sum": (_OP, _capped(sum_op)),
    "probsum": (_OP, lambda d: probsum_op()),
    "luk_conorm": (_OP, lambda d: luk_conorm_op()),
    KIND_CUSTOM: (
        _OP + ("nodes", "values", "flags", "name"),
        lambda d: table_op(
            _nums(d["nodes"]),
            _nums(d["values"]),
            neutral=_num(d["neutral"]),
            cap=_num(d.get("cap", 1.0)),
            flags=d.get("flags", ()),
            name=d.get("name", ""),
        ),
    ),
}


def op_to_json(op: BinaryOp) -> dict:
    d = {"kind": op.kind, "neutral": _num_out(op.neutral), "cap": _num_out(op.cap)}
    if op.kind == KIND_CUSTOM:
        if not op.table_nodes:
            raise InputError("callable-backed ops cannot be serialized")
        d["nodes"] = [float(t) for t in op.table_nodes]
        d["values"] = [float(v) for v in op.table_values]
        d["flags"] = sorted(op.declared_flags)
    if op.name:
        d["name"] = op.name
    return d


@reading("op document")
def op_from_json(d: dict) -> BinaryOp:
    op = _read_kind(d, _OPS, "op")
    # a kind's fixed neutral or cap is written, and read back only to compare
    for name in ("neutral", "cap"):
        if name in d and _num(d[name]) != getattr(op, name):
            raise InputError(f"op kind {op.kind!r} has {name} {getattr(op, name)}, not {d[name]!r}")
    return op


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def transform_to_json(t: MonotoneTransform) -> dict:
    if t.kind == "identity":
        return {"kind": "identity"}
    if t.kind == "power":
        return {"kind": "power", "p": float(t.p)}
    if t.kind == "affine":
        return {"kind": "affine", "a": float(t.a), "b": float(t.b)}
    return {"kind": "compose", "parts": [transform_to_json(p) for p in t.parts]}


# each transform kind: the fields transform_to_json writes, and its reader
_TRANSFORMS = {
    "identity": (("kind",), lambda d: identity()),
    "power": (("kind", "p"), lambda d: power(_num(d["p"]))),
    "affine": (("kind", "a", "b"), lambda d: affine(_num(d["a"]), _num(d.get("b", 0.0)))),
    "compose": (
        ("kind", "parts"),
        lambda d: compose(*(transform_from_json(p) for p in d["parts"])),
    ),
}


@reading("transform document")
def transform_from_json(d: dict) -> MonotoneTransform:
    return _read_kind(d, _TRANSFORMS, "transform")


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


def measure_to_json(m) -> dict:
    if isinstance(m, FiniteMonotoneMeasure):
        return {
            "type": "finite",
            "n": m.n,
            "table": {str(s): float(m.table[s]) for s in range(1 << m.n)},
        }
    if isinstance(m, DistortedLebesgue):
        return {"type": "distorted_lebesgue", "distortion": transform_to_json(m.distortion)}
    raise InputError(f"cannot serialize measure {type(m).__name__}")


def _finite_measure_from_json(d: dict) -> FiniteMonotoneMeasure:
    n = _json_int(d["n"], "n")
    # before 1 << n sizes the table read below
    if not 1 <= n <= MAX_GROUND_SET:
        raise InputError(f"ground set size must be in 1..{MAX_GROUND_SET}")
    masks = [str(s) for s in range(1 << n)]
    table = d["table"]
    values = _nums(table[s] for s in masks)
    _refuse_unknown(table, masks, f"{n}-point measure table")
    return FiniteMonotoneMeasure(n, values)


# each measure type: the fields measure_to_json writes, and its reader
_MEASURES = {
    "finite": (("type", "n", "table"), _finite_measure_from_json),
    "distorted_lebesgue": (
        ("type", "distortion"),
        lambda d: DistortedLebesgue(transform_from_json(d["distortion"])),
    ),
}


@reading("measure document")
def measure_from_json(d: dict):
    return _read_kind(d, _MEASURES, "measure", "type")


# ---------------------------------------------------------------------------
# functions
# ---------------------------------------------------------------------------


def function_to_json(f) -> dict:
    if isinstance(f, FiniteFunction):
        return {"type": "finite", "values": [_num_out(v) for v in f.values]}
    if isinstance(f, ConstFunction):
        return {"type": "const", "c": float(f.c)}
    if isinstance(f, PowerFunction):
        d = {"type": "power", "p": float(f.p)}
        if f.coef != 1.0:
            d["coef"] = float(f.coef)
        return d
    if isinstance(f, PwlFunction):
        return {"type": "pwl", "x": [float(v) for v in f.xs], "y": [float(v) for v in f.ys]}
    if isinstance(f, CappedFunction):
        return {"type": "capped", "base": function_to_json(f.base), "c": _num_out(f.cap_value)}
    if isinstance(f, FlooredFunction):
        return {"type": "floored", "base": function_to_json(f.base), "c": _num_out(f.floor_value)}
    if isinstance(f, LatticeCombo):
        return {
            "type": "lattice",
            "mode": f.kind,
            "parts": [function_to_json(p) for p in f.parts],
        }
    if isinstance(f, TransformedFunction):
        return {
            "type": "transformed",
            "base": function_to_json(f.base),
            "transform": transform_to_json(f.transform),
        }
    raise InputError(f"cannot serialize function {type(f).__name__}")


def _base(d: dict):
    return function_from_json(d["base"])


# each function type: the fields function_to_json writes, and its reader
_FUNCTIONS = {
    "finite": (("type", "values"), lambda d: FiniteFunction(_nums(d["values"]))),
    "const": (("type", "c"), lambda d: ConstFunction(_num(d["c"]))),
    "power": (
        ("type", "p", "coef"),
        lambda d: PowerFunction(_num(d["p"]), _num(d.get("coef", 1.0))),
    ),
    "pwl": (("type", "x", "y"), lambda d: PwlFunction(_nums(d["x"]), _nums(d["y"]))),
    "capped": (("type", "base", "c"), lambda d: CappedFunction(_base(d), _num(d["c"]))),
    "floored": (("type", "base", "c"), lambda d: FlooredFunction(_base(d), _num(d["c"]))),
    "lattice": (
        ("type", "mode", "parts"),
        lambda d: LatticeCombo(d["mode"], tuple(function_from_json(p) for p in d["parts"])),
    ),
    "transformed": (
        ("type", "base", "transform"),
        lambda d: TransformedFunction(_base(d), transform_from_json(d["transform"])),
    ),
}


@reading("function document")
def function_from_json(d: dict):
    return _read_kind(d, _FUNCTIONS, "function", "type")


# ---------------------------------------------------------------------------
# aggregations
# ---------------------------------------------------------------------------


def nary_to_json(H: NaryOp) -> dict:
    if H.kind == "binary":
        raise InputError("binary aggregations are internal and have no JSON form")
    d = {"kind": H.kind, "arity": H.arity}
    if H.kind == "wmean":
        d["weights"] = [float(w) for w in H.weights]
    if H.kind == "table":
        d["nodes"] = [float(t) for t in H.nodes]
        d["values"] = [float(v) for v in H.values]
    return d


def _arity(d: dict) -> int:
    return _json_int(d.get("arity", 2), "arity")


def _wmean_from_json(d: dict) -> NaryOp:
    arity = _arity(d)
    H = h_wmean(_nums(d["weights"]))
    # a weighted mean's arity is its number of weights, written and compared
    if H.arity != arity and "arity" in d:
        raise InputError(f"wmean aggregation has arity {H.arity}, not {arity}")
    return H


# each aggregation kind: the fields nary_to_json writes, and its reader
_NARYS = {
    "min": (("kind", "arity"), lambda d: NaryOp("min", _arity(d))),
    "max": (("kind", "arity"), lambda d: NaryOp("max", _arity(d))),
    "prod": (("kind", "arity"), lambda d: NaryOp("prod", _arity(d))),
    "wmean": (("kind", "arity", "weights"), _wmean_from_json),
    "table": (
        ("kind", "arity", "nodes", "values"),
        lambda d: NaryOp("table", _arity(d), nodes=_nums(d["nodes"]), values=_nums(d["values"])),
    ),
}


@reading("aggregation document")
def nary_from_json(d: dict) -> NaryOp:
    return _read_kind(d, _NARYS, "aggregation")


# ---------------------------------------------------------------------------
# theorem instances
# ---------------------------------------------------------------------------


def _exponents_to_json(exps: tuple) -> dict:
    out = {}
    for k, v in exps:
        out[k] = [float(x) for x in v] if isinstance(v, tuple) else float(v)
    return out


def instance_to_json(inst: TheoremInstance) -> dict:
    d = {
        "theorem": inst.theorem_id,
        "op": op_to_json(inst.op),
        "measure": measure_to_json(inst.measure),
        "functions": [function_to_json(f) for f in inst.functions],
    }
    if inst.star is not None:
        d["star"] = op_to_json(inst.star)
    if inst.H is not None:
        d["H"] = nary_to_json(inst.H)
    if inst.u:
        d["u"] = [transform_to_json(t) for t in inst.u]
    if inst.psi:
        d["psi"] = [transform_to_json(t) for t in inst.psi]
    if inst.phi:
        d["phi"] = [transform_to_json(t) for t in inst.phi]
    if inst.exponents:
        d["exponents"] = _exponents_to_json(inst.exponents)
    return d


_INSTANCE_FIELDS = frozenset(
    ("theorem", "op", "measure", "functions", "star", "H", "u", "psi", "phi", "exponents")
)


@reading("instance document")
def instance_from_json(d: dict) -> TheoremInstance:
    inst = TheoremInstance(
        d["theorem"],
        op_from_json(d["op"]),
        measure_from_json(d["measure"]),
        [function_from_json(f) for f in d["functions"]],
        star=op_from_json(d["star"]) if "star" in d else None,
        H=nary_from_json(d["H"]) if "H" in d else None,
        u=[transform_from_json(t) for t in d.get("u", ())],
        psi=[transform_from_json(t) for t in d.get("psi", ())],
        phi=[transform_from_json(t) for t in d.get("phi", ())],
        exponents={
            k: [_num(x) for x in v] if isinstance(v, list) else _num(v)
            for k, v in d.get("exponents", {}).items()
        },
    )
    _refuse_unknown(d, _INSTANCE_FIELDS, "instance document")
    return inst


def instance_digest(inst: TheoremInstance) -> str:
    return digest(instance_to_json(inst))
