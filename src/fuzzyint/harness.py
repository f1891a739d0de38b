"""Deterministic campaigns: generation, falsification, fixture reproduction.

A campaign is fully described by its config; trial i draws from a Philox
stream jumped i times, so any reported violation can be regenerated in
isolation from (config, trial_index) alone.  Reports are deterministic
line-delimited JSON with no timestamps: same config, same bytes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ops import INF, BinaryOp, InputError, min_op
from .functions import (
    IDENTITY,
    ConstFunction,
    FiniteFunction,
    MonotoneTransform,
    PowerFunction,
    identity,
    make_comonotone_system,
    power,
)
from .measures import MAX_GROUND_SET, DistortedLebesgue, FiniteMonotoneMeasure, counting_measure
from .integrals import sugeno
from .inequalities import (
    NARY_IDS,
    REVERSE_IDS,
    SINGLE_FUNCTION_IDS,
    THEOREM_IDS,
    InequalityVerdict,
    NaryOp,
    TheoremInstance,
    _integral,
    h_min,
    verify,
)
from .serialize import (
    _json_int,
    digest,
    dumps_17g,
    instance_to_json,
    nary_from_json,
    nary_to_json,
    op_from_json,
    op_to_json,
    reading,
    transform_from_json,
    transform_to_json,
)

PRNG_ALGORITHM = "philox4x64"
_MAX_RANGE = 1e6

_EXP_SYMBOLS = {
    "holder": ("p", "q"),
    "rev_holder": ("p", "q"),
    "minkowski": ("s",),
    "rev_minkowski": ("k",),
    "star_general": ("xi0", "xi1", "xi2", "omega0", "omega1", "omega2"),
    "seminormed_general": ("alpha", "beta", "gamma", "lambda", "upsilon", "tau"),
    "rev_seminormed": ("alpha", "beta", "gamma", "lambda", "upsilon", "tau"),
    "lyapunov": ("r", "s"),
}


@dataclass(frozen=True)
class CampaignConfig:
    """Complete description of one deterministic campaign."""

    theorem_id: str
    seed: int
    trials: int
    carrier: str = "finite"  # "finite" | "lebesgue_power"
    n_range: tuple[int, int] = (2, 8)
    measure_family: str = "random_table"  # "random_table" | "counting" | "distorted"
    distortion_p_range: tuple[float, float] = (0.5, 2.0)
    op_pool: tuple[BinaryOp, ...] = (min_op(),)
    star_pool: tuple[BinaryOp, ...] = ()
    H_pool: tuple[NaryOp, ...] = ()
    phi_pool: tuple[tuple[MonotoneTransform, ...], ...] = ()
    exponent_ranges: tuple[tuple[str, tuple[float, float]], ...] = ()
    respect_hypotheses: bool = True
    normalize_measure: bool = True
    scale: str = "unit"
    shrink: bool = True

    def __post_init__(self):
        if self.theorem_id not in THEOREM_IDS:
            raise InputError(f"unknown theorem id {self.theorem_id!r}")
        if not 0 <= self.seed < 2**128:
            raise InputError("seed must be in 0..2**128-1")
        if self.trials < 0:
            raise InputError("trials must be nonnegative")
        if self.carrier not in ("finite", "lebesgue_power"):
            raise InputError(f"unknown carrier {self.carrier!r}")
        if self.measure_family not in ("random_table", "counting", "distorted"):
            raise InputError(f"unknown measure family {self.measure_family!r}")
        if self.carrier == "finite" and self.measure_family == "distorted":
            raise InputError("distorted measures live on the interval carrier")
        if self.carrier == "finite" and not (
            len(self.n_range) == 2 and 1 <= self.n_range[0] <= self.n_range[1] <= MAX_GROUND_SET
        ):
            raise InputError(f"n_range must be [lo, hi] with 1 <= lo <= hi <= {MAX_GROUND_SET}")
        # ranges are drawn on a 0.05 lattice, counted in int64
        ranges = (("distortion_p_range", self.distortion_p_range),) + self.exponent_ranges
        for name, (lo, hi) in ranges:
            if not 0.0 < lo <= hi <= _MAX_RANGE:
                raise InputError(f"{name} must be [lo, hi] with 0 < lo <= hi <= {_MAX_RANGE:g}")
        if self.scale not in ("unit", "extended"):
            raise InputError("scale must be 'unit' or 'extended'")

    def exponent_range(self, name: str):
        for k, rng in self.exponent_ranges:
            if k == name:
                return rng
        return None

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "seed": self.seed,
            "trials": self.trials,
            "carrier": self.carrier,
            "n_range": list(self.n_range),
            "measure_family": self.measure_family,
            "distortion_p_range": list(self.distortion_p_range),
            "op_pool": [op_to_json(o) for o in self.op_pool],
            "star_pool": [op_to_json(o) for o in self.star_pool],
            "H_pool": [nary_to_json(h) for h in self.H_pool],
            "phi_pool": [[transform_to_json(t) for t in ts] for ts in self.phi_pool],
            "exponent_ranges": {k: list(v) for k, v in self.exponent_ranges},
            "respect_hypotheses": self.respect_hypotheses,
            "normalize_measure": self.normalize_measure,
            "scale": self.scale,
            "shrink": self.shrink,
        }

    @classmethod
    @reading("campaign config")
    def from_json(cls, d: dict) -> "CampaignConfig":
        """Config from its JSON document; a missing or mistyped field is an InputError."""
        return cls(
            theorem_id=d["theorem"],
            seed=_json_int(d["seed"], "seed"),
            trials=_json_int(d["trials"], "trials"),
            carrier=d.get("carrier", "finite"),
            n_range=tuple(_json_int(x, "n_range entry") for x in d.get("n_range", (2, 8))),
            measure_family=d.get("measure_family", "random_table"),
            distortion_p_range=_json_range(
                d.get("distortion_p_range", (0.5, 2.0)), "distortion_p_range"
            ),
            op_pool=tuple(op_from_json(o) for o in d.get("op_pool", ())) or (min_op(),),
            star_pool=tuple(op_from_json(o) for o in d.get("star_pool", ())),
            H_pool=tuple(nary_from_json(h) for h in d.get("H_pool", ())),
            phi_pool=tuple(
                tuple(transform_from_json(t) for t in ts) for ts in d.get("phi_pool", ())
            ),
            exponent_ranges=tuple(
                (k, _json_range(v, f"exponent range {k}"))
                for k, v in sorted(d.get("exponent_ranges", {}).items())
            ),
            respect_hypotheses=_json_bool(d.get("respect_hypotheses", True), "respect_hypotheses"),
            normalize_measure=_json_bool(d.get("normalize_measure", True), "normalize_measure"),
            scale=d.get("scale", "unit"),
            shrink=_json_bool(d.get("shrink", True), "shrink"),
        )


def _json_range(v, name: str) -> tuple[float, float]:
    # two finite JSON numbers; a JSON bool parses to a Python bool, which is
    # an int, and abs() bounds ints beyond the float range without overflow
    if not (
        isinstance(v, (list, tuple))
        and len(v) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
        and all(abs(x) <= sys.float_info.max for x in v)
    ):
        raise TypeError(f"{name} must be two finite numbers, got {v!r}")
    return float(v[0]), float(v[1])


def _json_bool(v, name: str) -> bool:
    if not isinstance(v, bool):
        raise TypeError(f"{name} must be true or false, got {v!r}")
    return v


# ---------------------------------------------------------------------------
# deterministic draws
# ---------------------------------------------------------------------------


def _rng_for(seed: int, trial_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(trial_index))


def random_table_measure(
    rng: np.random.Generator, n: int, normalized: bool = True
) -> FiniteMonotoneMeasure:
    """Monotone table from sorted uniforms assigned by subset cardinality.

    Subsets take the sorted draws in order of (cardinality, mask), so each
    subset gets a draw at least as large as those of the subsets it
    covers, and the table is monotone as drawn.
    """
    size = 1 << n
    draws = np.sort(rng.uniform(0.0, 1.0, size=size))
    masks = np.arange(size)
    cardinality = sum((masks >> b) & 1 for b in range(n))
    table = np.empty(size)
    table[np.argsort(cardinality, kind="stable")] = draws
    table[0] = 0.0
    if table[-1] <= 0.0:  # all-zero draws are measure-zero but stay safe
        table[-1] = 1.0
    if normalized:
        table /= table[-1]
        table[-1] = 1.0
    return FiniteMonotoneMeasure(n, tuple(table.tolist()))


def _lattice_draw(rng: np.random.Generator, lo: float, hi: float) -> float:
    """Uniform draw from the 0.05 lattice inside [lo, hi]."""
    k_lo = math.ceil(lo / 0.05 - 1e-9)
    k_hi = math.floor(hi / 0.05 + 1e-9)
    if k_hi < k_lo:
        return lo
    k = int(rng.integers(k_lo, k_hi + 1))
    return round(k * 0.05, 2)


def _pick(rng: np.random.Generator, pool: Sequence):
    return pool[int(rng.integers(0, len(pool)))]


def _function_count(tid: str, H: NaryOp | None) -> int:
    if tid in SINGLE_FUNCTION_IDS:
        return 1
    if tid in NARY_IDS:
        return H.arity if H is not None else 2
    return 2


def _draw_exponents(config: CampaignConfig, rng: np.random.Generator, tid: str, k: int):
    symbols = _EXP_SYMBOLS.get(tid, ())
    exps = {}
    for name in symbols:
        bounds = config.exponent_range(name)
        if bounds is not None:
            exps[name] = _lattice_draw(rng, bounds[0], bounds[1])
        else:
            exps[name] = 1.0
    if tid == "lyapunov":
        r, s = exps.get("r", 1.0), exps.get("s", 1.0)
        lo, hi = min(r, s), max(r, s)
        if config.respect_hypotheses:
            exps["r"], exps["s"] = lo, hi
        else:
            # deliberately invert the order; nudge apart when the draw tied
            if lo == hi:
                hi = lo + 0.05
            exps["r"], exps["s"] = hi, lo
    if tid in ("holder", "rev_holder") and config.exponent_range("p") is not None:
        p = max(exps["p"], 1.05)
        exps["p"] = p
        exps["q"] = p / (p - 1.0)
    if tid in ("thm32", "thm42_h"):
        inner = config.exponent_range("xi_inner")
        oin = config.exponent_range("omega_inner")
        xi = [1.0] + [
            _lattice_draw(rng, *inner) if inner is not None else 1.0 for _ in range(k)
        ]
        om = [1.0] + [
            _lattice_draw(rng, *oin) if oin is not None else 1.0 for _ in range(k)
        ]
        exps = {"xi": xi, "omega": om}
    return exps or None


def _draw_functions(config: CampaignConfig, rng: np.random.Generator, k: int):
    if config.carrier == "finite":
        n = int(rng.integers(config.n_range[0], config.n_range[1] + 1))
        funcs = make_comonotone_system(rng, n, k, scale=config.scale)
        return n, tuple(funcs)
    # interval carrier: power functions share monotonicity, hence comonotone
    funcs = tuple(PowerFunction(_lattice_draw(rng, 0.25, 2.5)) for _ in range(k))
    return 0, funcs


def _draw_measure(config: CampaignConfig, rng: np.random.Generator, n: int, normalized: bool):
    if config.carrier == "lebesgue_power":
        if config.measure_family == "distorted":
            p = _lattice_draw(rng, *config.distortion_p_range)
            return DistortedLebesgue(power(p))
        return DistortedLebesgue(identity())
    if config.measure_family == "counting":
        return counting_measure(n, normalized=normalized)
    return random_table_measure(rng, n, normalized=normalized)


def _verified_pool(pool: Sequence[BinaryOp]) -> tuple[BinaryOp, ...]:
    from .inequalities import _op_report

    return tuple(op for op in pool if _op_report(op).passed)


def gen_instance(config: CampaignConfig, trial_index: int) -> TheoremInstance:
    """Deterministically generate the instance of one trial."""
    if trial_index < 0 or trial_index >= config.trials:
        raise InputError("trial index outside the campaign")
    rng = _rng_for(config.seed, trial_index)
    tid = config.theorem_id

    op_pool = config.op_pool or (min_op(),)
    star_pool = config.star_pool
    H_pool = config.H_pool
    if config.respect_hypotheses:
        op_pool = _verified_pool(op_pool) or op_pool
        star_pool = _verified_pool(star_pool)
    op = _pick(rng, op_pool)

    H = None
    star = None
    if tid in NARY_IDS:
        H = _pick(rng, H_pool) if H_pool else h_min(2)
    k = _function_count(tid, H)
    n, funcs = _draw_functions(config, rng, k)

    normalized = config.normalize_measure or tid in REVERSE_IDS or op.cap == 1.0
    measure = _draw_measure(config, rng, n, normalized)

    if tid not in NARY_IDS and tid not in SINGLE_FUNCTION_IDS:
        star = _pick(rng, star_pool) if star_pool else min_op(cap=op.cap)

    u: tuple = ()
    psi: tuple = ()
    phi: tuple = ()
    if tid in ("thm31", "thm41"):
        u = tuple(identity() for _ in range(k + 1))
        psi = tuple(identity() for _ in range(k))
    elif tid in ("jensen", "rev_jensen"):
        if config.phi_pool:
            phi = _pick(rng, config.phi_pool)
        else:
            bounds = config.exponent_range("phi_p") or (1.0, 3.0)
            phi = (power(_lattice_draw(rng, bounds[0], bounds[1])),)
    elif tid in ("thm33", "rev_transform"):
        if config.phi_pool:
            phi = _pick(rng, config.phi_pool)
        elif tid == "thm33":
            phi = (power(2.0), identity())
        else:
            phi = (identity(), power(2.0))

    exponents = _draw_exponents(config, rng, tid, k)
    return TheoremInstance.make(
        tid,
        op,
        measure,
        funcs,
        star=star,
        H=H,
        u=u,
        psi=psi,
        phi=phi,
        exponents=exponents,
    )


# ---------------------------------------------------------------------------
# campaign execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ViolationRecord:
    trial_index: int
    margin: float
    hypotheses_met: bool
    digest: str
    instance: dict
    shrunk: dict | None = None
    shrunk_margin: float | None = None

    def to_json(self) -> dict:
        d = {
            "record": "violation",
            "trial": self.trial_index,
            "margin": self.margin,
            "hypotheses_met": self.hypotheses_met,
            "digest": self.digest,
            "instance": self.instance,
        }
        if self.shrunk is not None:
            d["shrunk"] = self.shrunk
            d["shrunk_margin"] = self.shrunk_margin
        return d


def _header_json(config: CampaignConfig) -> dict:
    return {"record": "header", "prng": PRNG_ALGORITHM, "config": config.to_json()}


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    trials: int
    hypothesis_pass_count: int
    violations: tuple[ViolationRecord, ...]

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0

    def summary_json(self) -> dict:
        return {
            "record": "summary",
            "trials": self.trials,
            "hypothesis_pass_count": self.hypothesis_pass_count,
            "violations": [
                [v.trial_index, v.margin, v.digest] for v in self.violations
            ],
        }

    def to_ndjson(self) -> str:
        lines = [dumps_17g(_header_json(self.config))]
        lines.extend(dumps_17g(v.to_json()) for v in self.violations)
        lines.append(dumps_17g(self.summary_json()))
        return "\n".join(lines) + "\n"


def _drop_element(inst: TheoremInstance, j: int) -> TheoremInstance | None:
    m = inst.measure
    n = m.n
    if n < 2:
        return None
    low = (1 << j) - 1
    table = []
    for s in range(1 << (n - 1)):
        mask = (s & low) | ((s & ~low) << 1)
        table.append(m.table[mask])
    if not table[-1] > 0.0:
        return None
    if abs(m.total - 1.0) <= 1e-12:  # preserve the normalized class
        t = table[-1]
        table = [v / t for v in table]
        table[-1] = 1.0
    funcs = tuple(
        FiniteFunction(f.values[:j] + f.values[j + 1 :]) for f in inst.functions
    )
    # a restriction of a monotone table is monotone
    return TheoremInstance.make(
        inst.theorem_id,
        inst.op,
        FiniteMonotoneMeasure(n - 1, tuple(table)),
        funcs,
        star=inst.star,
        H=inst.H,
        u=inst.u,
        psi=inst.psi,
        phi=inst.phi,
        exponents=dict(inst.exponents) or None,
    )


def shrink_instance(inst: TheoremInstance):
    """Greedy one-element reduction keeping the verdict violating.

    Candidates are verified with skip_hypotheses, so the returned verdict
    carries holds, margin and sides but no hypothesis report.
    """
    if not isinstance(inst.measure, FiniteMonotoneMeasure):
        return None, None
    if not all(isinstance(f, FiniteFunction) for f in inst.functions):
        return None, None
    current = inst
    current_verdict = None
    changed = True
    while changed:
        changed = False
        for j in range(current.measure.n):
            cand = _drop_element(current, j)
            if cand is None:
                continue
            try:
                # only holds and margin are read; neither depends on the
                # hypothesis checks
                v = verify(cand, skip_hypotheses=True)
            except InputError:
                continue
            if not v.holds:
                current, current_verdict = cand, v
                changed = True
                break
    if current is inst:
        return None, None
    return current, current_verdict


def run_campaign(
    config: CampaignConfig, on_record: Callable[[dict], None] | None = None
) -> CampaignReport:
    """Run every trial; a violation is any verdict with holds false.

    Hypothesis-respecting campaigns therefore exit nonzero only when a
    hypothesis-passing instance fails, while deliberately unmet regimes
    report their violations with hypotheses_met false.
    """
    # an op that would fail every trial drawing it is refused before the
    # header rather than mid-stream: finite extended-scale data exceed 1,
    # other data reach 1, and the family's integral checks its op before
    # it reads any data
    need = INF if config.carrier == "finite" and config.scale == "extended" else 1.0
    short = [op for op in config.op_pool + config.star_pool if op.cap < need]
    if short:
        caps = "/".join(sorted({f"{op.cap:g}" for op in short}))
        labels = ", ".join(op.label() for op in short)
        raise InputError(
            f"{config.scale} scale needs ops of cap {need:g}, but these have cap {caps}: {labels}"
        )
    probe = FiniteFunction((0.0,))
    for op in config.op_pool or (min_op(),):
        inst = TheoremInstance.make(config.theorem_id, op, counting_measure(1), [probe])
        _integral(inst, IDENTITY, probe)
    hyp_pass = 0
    violations = []
    if on_record is not None:
        on_record(_header_json(config))
    for i in range(config.trials):
        inst = gen_instance(config, i)
        verdict = verify(inst)
        if verdict.hypotheses_met:
            hyp_pass += 1
        if not verdict.holds:
            inst_json = instance_to_json(inst)
            shrunk_json = None
            shrunk_margin = None
            if config.shrink:
                shrunk, sv = shrink_instance(inst)
                if shrunk is not None:
                    shrunk_json = instance_to_json(shrunk)
                    shrunk_margin = sv.margin
            rec = ViolationRecord(
                trial_index=i,
                margin=verdict.margin,
                hypotheses_met=verdict.hypotheses_met,
                digest=digest(inst_json),
                instance=inst_json,
                shrunk=shrunk_json,
                shrunk_margin=shrunk_margin,
            )
            violations.append(rec)
            if on_record is not None:
                on_record(rec.to_json())
    report = CampaignReport(
        config=config,
        trials=config.trials,
        hypothesis_pass_count=hyp_pass,
        violations=tuple(violations),
    )
    if on_record is not None:
        on_record(report.summary_json())
    return report


# ---------------------------------------------------------------------------
# fixture reproduction
# ---------------------------------------------------------------------------

GOLDEN_RATIO_CONJ = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class FixtureReport:
    values: tuple[tuple[str, float], ...]
    verdict: InequalityVerdict
    checks: tuple[tuple[str, bool], ...]
    ok: bool

    def to_json(self) -> dict:
        return {
            "values": {k: v for k, v in self.values},
            "verdict": self.verdict.to_json(),
            "checks": {k: v for k, v in self.checks},
            "ok": self.ok,
        }


def reproduce_paper() -> FixtureReport:
    """Recompute the three worked integral values and the violated verdict.

    The instance takes f(x)=x and g=1 on the identity-distorted interval
    measure, inner exponents 1/2 with unit outer exponents, Min for both
    the integral op and the pointwise combination.  The inequality fails
    by about -0.1180 and the exponent-range hypothesis is the one that
    breaks, which is the point of the fixture.
    """
    leb = DistortedLebesgue(identity())
    v_sqrt = sugeno(leb, PowerFunction(0.5)).value
    v_one = sugeno(leb, ConstFunction(1.0)).value
    v_id = sugeno(leb, PowerFunction(1.0)).value
    inst = TheoremInstance.make(
        "star_general",
        min_op(),
        leb,
        [PowerFunction(1.0), ConstFunction(1.0)],
        star=min_op(),
        exponents={
            "xi0": 1.0,
            "xi1": 0.5,
            "xi2": 0.5,
            "omega0": 1.0,
            "omega1": 1.0,
            "omega2": 1.0,
        },
    )
    verdict = verify(inst)
    exp_check = next(
        (c for c in verdict.hypothesis_report.checks if c.name == "exponent_condition"),
        None,
    )
    checks = (
        ("sqrt_value", abs(v_sqrt - GOLDEN_RATIO_CONJ) <= 1e-9),
        ("const_value", v_one == 1.0),
        ("identity_value", abs(v_id - 0.5) <= 1e-12),
        ("verdict_fails", verdict.holds is False),
        ("margin", abs(verdict.margin - (0.5 - GOLDEN_RATIO_CONJ)) <= 1e-8),
        ("exponent_flag_raised", exp_check is not None and exp_check.passed is False),
    )
    return FixtureReport(
        values=(("sqrt", v_sqrt), ("const", v_one), ("identity", v_id)),
        verdict=verdict,
        checks=checks,
        ok=all(flag for _, flag in checks),
    )
