"""Deterministic JSON for every domain object.

Numbers are emitted with 17 significant digits so binary64 values
round-trip exactly; infinity is the string "inf".  Keys are sorted and
output carries no timestamps, which makes reports byte-identical across
runs and lets a sha256 digest identify an instance.

The readers (``*_from_json``) take documents from outside the program,
so every failure they meet is an :class:`InputError`: a missing field,
a field of the wrong type, a NaN where a number belongs.
"""

from __future__ import annotations

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


def _emit(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):  # bool before int: True is an int
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
            _emit(item, out)
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
            _emit(obj[k], out)
        out.append("}")
    else:
        raise InputError(f"cannot serialize {type(obj).__name__}")


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
    if kind == KIND_CUSTOM:
        return table_op(
            [_num(t) for t in d["nodes"]],
            [_num(v) for v in d["values"]],
            neutral=_num(d["neutral"]),
            cap=_num(d.get("cap", 1.0)),
            flags=d.get("flags", ()),
            name=d.get("name", ""),
        )
    mk = _OP_FROM_KIND.get(kind)
    if mk is None:
        raise InputError(f"unknown op kind {kind!r}")
    op = mk(d)
    if "neutral" in d and _num(d["neutral"]) != op.neutral:
        raise InputError(f"op kind {kind!r} has neutral {op.neutral}, not {d['neutral']!r}")
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


@reading("transform document")
def transform_from_json(d: dict) -> MonotoneTransform:
    kind = d.get("kind")
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
        n = _json_int(d["n"], "n")
        # before 1 << n sizes the table read below
        if not 1 <= n <= MAX_GROUND_SET:
            raise InputError(f"ground set size must be in 1..{MAX_GROUND_SET}")
        table = d["table"]
        return FiniteMonotoneMeasure(n, tuple(_num(table[str(s)]) for s in range(1 << n)))
    if t == "distorted_lebesgue":
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


@reading("function document")
def function_from_json(d: dict):
    t = d.get("type")
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


@reading("aggregation document")
def nary_from_json(d: dict) -> NaryOp:
    kind = d.get("kind")
    arity = _json_int(d.get("arity", 2), "arity")
    if kind in ("min", "max", "prod"):
        return NaryOp(kind, arity)
    if kind == "wmean":
        return h_wmean([_num(w) for w in d["weights"]])
    if kind == "table":
        return h_table([_num(t) for t in d["nodes"]], [_num(v) for v in d["values"]], arity)
    raise InputError(f"unknown aggregation kind {kind!r}")


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


@reading("instance document")
def instance_from_json(d: dict) -> TheoremInstance:
    return TheoremInstance.make(
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


def instance_digest(inst: TheoremInstance) -> str:
    return digest(instance_to_json(inst))
