"""Command line front end.

Machine-readable JSON goes to standard output, diagnostics to standard
error.  Exit codes: 0 success, 1 a verified inequality failed / a
property check failed / a campaign found violations / a fixture value
mismatched, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .ops import GridSpec, InputError, verify_op_properties
from .functions import UnsupportedError
from .integrals import (
    DEFAULT_TOL,
    semiconormed_integral,
    seminormed_integral,
    smallest_e_integral,
    shilkret,
    sugeno,
    universal_integral,
)
from .inequalities import THEOREM_IDS, verify
from .harness import CampaignConfig, reproduce_paper, run_campaign
from .serialize import (
    _num,
    dumps_17g,
    function_from_json,
    instance_from_json,
    measure_from_json,
    op_from_json,
    reading,
)

_INTEGRALS = ("universal", "sugeno", "shilkret", "smallest-e", "seminormed", "semiconormed")


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _emit(doc: dict) -> None:
    sys.stdout.write(dumps_17g(doc) + "\n")


def _cmd_integrate(args) -> int:
    tol = args.tol if args.tol is not None else DEFAULT_TOL
    if not 0.0 < tol < math.inf:
        raise InputError(f"--tol must be a finite number > 0, got {tol!r}")
    doc = _read_json(args.instance)
    with reading("instance document"):
        if "measure" not in doc or "function" not in doc and "functions" not in doc:
            raise InputError("instance document needs measure and function entries")
        measure = measure_from_json(doc["measure"])
        f = function_from_json(doc.get("function") or doc["functions"][0])
    kind = args.integral
    if kind in ("universal", "seminormed", "semiconormed"):
        opdoc = doc.get("op")
        if args.op is not None:
            opdoc = _read_json(args.op)
        if opdoc is None:
            raise InputError(f"{kind} integral needs an op descriptor")
        op = op_from_json(opdoc)
        if kind == "universal":
            res = universal_integral(op, measure, f, tol=tol)
        elif kind == "seminormed":
            res = seminormed_integral(op, measure, f, tol=tol)
        else:
            res = semiconormed_integral(op, measure, f, tol=tol)
    elif kind == "sugeno":
        res = sugeno(measure, f, tol=tol)
    elif kind == "shilkret":
        res = shilkret(measure, f, tol=tol)
    else:
        e = args.e if args.e is not None else doc.get("e")
        if e is None:
            raise InputError("smallest-e integral needs --e")
        res = smallest_e_integral(measure, f, _num(e), tol=tol)
    _emit({"value": res.value, "tol": res.tol, "candidates": res.candidates})
    return 0


def _cmd_verify(args) -> int:
    if args.tol is not None and not 0.0 <= args.tol < math.inf:
        raise InputError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    inst = instance_from_json(_read_json(args.instance))
    if args.theorem != inst.theorem_id:
        raise InputError(
            f"--theorem {args.theorem} does not match instance theorem {inst.theorem_id}"
        )
    verdict = verify(inst, tol=args.tol, skip_hypotheses=args.skip_hypotheses)
    _emit(verdict.to_json())
    return 0 if verdict.holds else 1


def _cmd_falsify(args) -> int:
    config = CampaignConfig.from_json(_read_json(args.config))
    if args.theorem != config.theorem_id:
        raise InputError(
            f"--theorem {args.theorem} does not match config theorem {config.theorem_id}"
        )
    report = run_campaign(config, on_record=_emit)
    return report.exit_code


def _cmd_check_op(args) -> int:
    op = op_from_json(_read_json(args.op))
    props = None
    if args.properties:
        props = tuple(p.strip() for p in args.properties.split(",") if p.strip())
    grid = None
    if args.grid:
        grid = GridSpec(cap=op.cap, n=args.grid, hi=1.0 if op.cap == 1.0 else 2.0)
    report = verify_op_properties(op, properties=props, grid=grid)
    _emit(report.to_json())
    return 0 if report.passed else 1


def _cmd_reproduce(_args) -> int:
    report = reproduce_paper()
    _emit(report.to_json())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyint",
        description="Exact integrals for monotone measures and inequality verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", help="evaluate one integral of one instance file")
    p_int.add_argument("--instance", required=True, help="JSON file with measure and function")
    p_int.add_argument("--integral", required=True, choices=_INTEGRALS)
    p_int.add_argument("--op", help="JSON file with an op descriptor")
    p_int.add_argument("--e", type=float, help="neutral element for the smallest-e integral")
    p_int.add_argument("--tol", type=float, help="refinement tolerance")
    p_int.set_defaults(fn=_cmd_integrate)

    p_ver = sub.add_parser("verify", help="verify one inequality instance")
    p_ver.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p_ver.add_argument("--instance", required=True)
    p_ver.add_argument("--tol", type=float)
    p_ver.add_argument("--skip-hypotheses", action="store_true")
    p_ver.set_defaults(fn=_cmd_verify)

    p_fal = sub.add_parser("falsify", help="run a falsification campaign")
    p_fal.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p_fal.add_argument("--config", required=True)
    p_fal.set_defaults(fn=_cmd_falsify)

    p_chk = sub.add_parser("check-op", help="grid-check declared op properties")
    p_chk.add_argument("--op", required=True)
    p_chk.add_argument("--properties", help="comma-separated property names")
    p_chk.add_argument("--grid", type=int, help="grid node count")
    p_chk.set_defaults(fn=_cmd_check_op)

    p_rep = sub.add_parser("reproduce-paper", help="recompute the worked fixture values")
    p_rep.set_defaults(fn=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, UnsupportedError) as exc:
        error = str(exc)
    except OverflowError as exc:
        # a power of the input data beyond the float range
        error = f"float overflow: {exc}"
    sys.stderr.write(dumps_17g({"error": error}) + "\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
