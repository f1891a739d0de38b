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
leave its default in place.
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
from .inequalities import NaryOp, TheoremInstance, h_table, h_wmean


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


def _num_out(x: float):
    return "inf" if x == INF else float(x)


# ---------------------------------------------------------------------------
# binary ops
# ---------------------------------------------------------------------------

_OP_FROM_KIND = {
    "min": lambda d: min_op(cap=_num(d.get("cap", "inf"))),
    "prod": lambda d: prod_op(cap=_num(d.get("cap", "inf"))),
    "smallest": lambda d: smallest_op(_num(d["neutral"])),
    "greatest": lambda d: greatest_op(_num(d["neutral"])),
    "lukasiewicz": lambda d: lukasiewicz_op(),
    "drastic": lambda d: drastic_op(),
    "max": lambda d: max_op(cap=_num(d.get("cap", "inf"))),
    "sum": lambda d: sum_op(cap=_num(d.get("cap", "inf"))),
    "probsum": lambda d: probsum_op(),
    "luk_conorm": lambda d: luk_conorm_op(),
}


# the fields op_to_json writes for each kind
_OP_FIELDS = dict.fromkeys(_OP_FROM_KIND, ("kind", "neutral", "cap"))
_OP_FIELDS[KIND_CUSTOM] = ("kind", "neutral", "cap", "nodes", "values", "flags", "name")


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
    kind = d.get("kind")
    if kind not in _OP_FIELDS:
        raise InputError(f"unknown op kind {kind!r}")
    _refuse_unknown(d, _OP_FIELDS[kind], f"{kind} op document")
    if kind == KIND_CUSTOM:
        return table_op(
            [_num(t) for t in d["nodes"]],
            [_num(v) for v in d["values"]],
            neutral=_num(d["neutral"]),
            cap=_num(d.get("cap", 1.0)),
            flags=d.get("flags", ()),
            name=d.get("name", ""),
        )
    op = _OP_FROM_KIND[kind](d)
    # a kind's fixed neutral or cap is written, and read back only to compare
    for name in ("neutral", "cap"):
        if name in d and _num(d[name]) != getattr(op, name):
            raise InputError(f"op kind {kind!r} has {name} {getattr(op, name)}, not {d[name]!r}")
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


# the fields transform_to_json writes for each kind
_TRANSFORM_FIELDS = {
    "identity": ("kind",),
    "power": ("kind", "p"),
    "affine": ("kind", "a", "b"),
    "compose": ("kind", "parts"),
}


@reading("transform document")
def transform_from_json(d: dict) -> MonotoneTransform:
    kind = d.get("kind")
    if kind in _TRANSFORM_FIELDS:
        _refuse_unknown(d, _TRANSFORM_FIELDS[kind], f"{kind} transform document")
    if kind == "identity":
        return identity()
    if kind == "power":
        return power(_num(d["p"]))
    if kind == "affine":
        return affine(_num(d["a"]), _num(d.get("b", 0.0)))
    if kind == "compose":
        return compose(*(transform_from_json(p) for p in d["parts"]))
    raise InputError(f"unknown transform kind {kind!r}")


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


@reading("measure document")
def measure_from_json(d: dict):
    t = d.get("type")
    if t == "finite":
        _refuse_unknown(d, ("type", "n", "table"), "finite measure document")
        n = _json_int(d["n"], "n")
        # before 1 << n sizes the table read below
        if not 1 <= n <= MAX_GROUND_SET:
            raise InputError(f"ground set size must be in 1..{MAX_GROUND_SET}")
        masks = [str(s) for s in range(1 << n)]
        table = d["table"]
        values = tuple(_num(table[s]) for s in masks)
        _refuse_unknown(table, masks, f"{n}-point measure table")
        return FiniteMonotoneMeasure(n, values)
    if t == "distorted_lebesgue":
        _refuse_unknown(d, ("type", "distortion"), "distorted_lebesgue measure document")
        return DistortedLebesgue(transform_from_json(d["distortion"]))
    raise InputError(f"unknown measure type {t!r}")


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


# the fields function_to_json writes for each type
_FUNCTION_FIELDS = {
    "finite": ("type", "values"),
    "const": ("type", "c"),
    "power": ("type", "p", "coef"),
    "pwl": ("type", "x", "y"),
    "capped": ("type", "base", "c"),
    "floored": ("type", "base", "c"),
    "lattice": ("type", "mode", "parts"),
    "transformed": ("type", "base", "transform"),
}


@reading("function document")
def function_from_json(d: dict):
    t = d.get("type")
    if t in _FUNCTION_FIELDS:
        _refuse_unknown(d, _FUNCTION_FIELDS[t], f"{t} function document")
    if t == "finite":
        return FiniteFunction(tuple(_num(v) for v in d["values"]))
    if t == "const":
        return ConstFunction(_num(d["c"]))
    if t == "power":
        return PowerFunction(_num(d["p"]), _num(d.get("coef", 1.0)))
    if t == "pwl":
        return PwlFunction(tuple(_num(v) for v in d["x"]), tuple(_num(v) for v in d["y"]))
    if t == "capped":
        return CappedFunction(function_from_json(d["base"]), _num(d["c"]))
    if t == "floored":
        return FlooredFunction(function_from_json(d["base"]), _num(d["c"]))
    if t == "lattice":
        return LatticeCombo(d["mode"], tuple(function_from_json(p) for p in d["parts"]))
    if t == "transformed":
        return TransformedFunction(
            function_from_json(d["base"]), transform_from_json(d["transform"])
        )
    raise InputError(f"unknown function type {t!r}")


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


# the fields nary_to_json writes for each kind
_NARY_FIELDS = {
    "min": ("kind", "arity"),
    "max": ("kind", "arity"),
    "prod": ("kind", "arity"),
    "wmean": ("kind", "arity", "weights"),
    "table": ("kind", "arity", "nodes", "values"),
}


@reading("aggregation document")
def nary_from_json(d: dict) -> NaryOp:
    kind = d.get("kind")
    if kind not in _NARY_FIELDS:
        raise InputError(f"unknown aggregation kind {kind!r}")
    _refuse_unknown(d, _NARY_FIELDS[kind], f"{kind} aggregation document")
    arity = _json_int(d.get("arity", 2), "arity")
    if kind == "wmean":
        H = h_wmean([_num(w) for w in d["weights"]])
    elif kind == "table":
        H = h_table([_num(t) for t in d["nodes"]], [_num(v) for v in d["values"]], arity)
    else:
        H = NaryOp(kind, arity)
    # a weighted mean's arity is its number of weights, written and compared
    if H.arity != arity and "arity" in d:
        raise InputError(f"{kind} aggregation has arity {H.arity}, not {arity}")
    return H


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
    inst = TheoremInstance.make(
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
