"""Deterministic campaigns: generation, falsification, fixture reproduction.

A campaign is fully described by its config; trial i draws from its own
Philox stream, addressed by counter: key = seed and counter = i * 2**128
mod 2**256, which is the stream ``Philox(key=seed).jumped(i)`` without the
jump.  So any reported violation can be regenerated in isolation from
(config, trial_index) alone.  A trial reads the stream's 64-bit words in
draw order: a bounded integer (a pool pick, n, a lattice exponent) takes
32 bits by Lemire's method, low half of a word first, the high half kept
for the next bounded draw and dropped at the next trial (see
:class:`~fuzzyint.draws.TrialGenerator`); a double takes the top 53 bits
of a whole word through ``Generator.random``, in one batch per comonotone
system and per random table.  The raw Philox stream is stable under
numpy's policy (NEP 19); ``Generator.random`` is not promised to be, and
a test pins it.

Work that is the same for every trial (a thread's one Philox generator,
moved to each trial by assigning its state; the popcount order of an
n-point random table; a campaign's verified op pools) is done once, and
never at import.  So is each interval draw: one power function or
distorted measure per lattice value, shared by every trial that draws it
while the campaign's memo store holds it (see
:func:`~fuzzyint.inequalities._memo`).  A campaign runs in fresh memo
stores, so a second one in a process runs as cold as the first.  It
streams deterministic line-delimited JSON with no timestamps: same
config, same bytes.  The stream is the record: each violation's instance
is serialised once, its text giving both the digest and the streamed
line's "instance", and the returned report keeps only each violation's
trial, margin and digest.  Before the header, a probe runs the trial
code on each pairing of pool entries a trial can draw.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .ops import BinaryOp, InputError, min_op
from .functions import (
    EXTENDED_TOP,
    ConstFunction,
    FiniteFunction,
    MonotoneTransform,
    PowerFunction,
    identity,
    make_comonotone_system,
    power,
)
from .measures import MAX_GROUND_SET, DistortedLebesgue, FiniteMonotoneMeasure
from .measures import _check_size, counting_measure
from .integrals import sugeno
from .inequalities import (
    STATEMENTS,
    THEOREM_IDS,
    InequalityVerdict,
    NaryOp,
    TheoremInstance,
    _instance_form,
    _memo,
    _op_report,
    _stores,
    _verdict,
    h_min,
    verify,
)
from .serialize import (
    RawJSON,
    _json_int,
    _refuse_unknown,
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

if TYPE_CHECKING:
    from .draws import TrialGenerator

PRNG_ALGORITHM = "philox4x64"
_MAX_RANGE = 1e6
# the exponent_ranges name of the power phi a Jensen campaign draws
_PHI_P = "phi_p"


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
    op_pool: tuple[BinaryOp, ...] = ()  # an empty pool is (min_op(),)
    star_pool: tuple[BinaryOp, ...] = ()
    H_pool: tuple[NaryOp, ...] = ()
    phi_pool: tuple[tuple[MonotoneTransform, ...], ...] = ()
    exponent_ranges: tuple[tuple[str, tuple[float, float]], ...] = ()
    respect_hypotheses: bool = True
    normalize_measure: bool = True
    scale: str = "unit"
    shrink: bool = True

    def __post_init__(self):
        if not self.op_pool:
            object.__setattr__(self, "op_pool", (min_op(),))
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
        undrawn = sorted(dict(self.exponent_ranges).keys() - _drawn_ranges(self.theorem_id))
        if undrawn:
            raise InputError(f"{self.theorem_id} draws no exponent range {', '.join(undrawn)}")
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
        """Config from its JSON document; a missing, mistyped or unknown field is an InputError."""
        config = cls(
            d["theorem"],
            _json_int(d["seed"], "seed"),
            _json_int(d["trials"], "trials"),
            **{name: read(d[name]) for name, read in _CONFIG_READERS.items() if name in d},
        )
        _refuse_unknown(d, config.to_json().keys(), "campaign config")
        return config


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


# the reader of each optional field of a config document, in field order;
# a field the document leaves out takes the dataclass default
_CONFIG_READERS = {
    "carrier": lambda v: v,
    "n_range": lambda v: tuple(_json_int(x, "n_range entry") for x in v),
    "measure_family": lambda v: v,
    "distortion_p_range": lambda v: _json_range(v, "distortion_p_range"),
    "op_pool": lambda v: tuple(op_from_json(o) for o in v),
    "star_pool": lambda v: tuple(op_from_json(o) for o in v),
    "H_pool": lambda v: tuple(nary_from_json(h) for h in v),
    "phi_pool": lambda v: tuple(tuple(transform_from_json(t) for t in ts) for ts in v),
    "exponent_ranges": lambda v: tuple(
        (k, _json_range(r, f"exponent range {k}")) for k, r in sorted(v.items())
    ),
    "respect_hypotheses": lambda v: _json_bool(v, "respect_hypotheses"),
    "normalize_measure": lambda v: _json_bool(v, "normalize_measure"),
    "scale": lambda v: v,
    "shrink": lambda v: _json_bool(v, "shrink"),
}


# ---------------------------------------------------------------------------
# deterministic draws
# ---------------------------------------------------------------------------


_thread = threading.local()


def _rng_for(seed: int, trial_index: int) -> TrialGenerator:
    # this thread's one generator, moved to the trial and valid until the
    # thread's next call.  jumped(i) adds i * 2**128 to the 256-bit counter,
    # wrapping; empty buffers make the first draw advance the counter, as
    # a new generator does
    if not hasattr(_thread, "gen"):
        # numpy.random (about 2 MB) loads here, not when fuzzyint is imported
        from .draws import TrialGenerator

        _thread.gen = TrialGenerator(np.random.Philox(key=seed))
    i = trial_index % 2**128
    state = {"counter": [0, 0, i % 2**64, i >> 64], "key": [seed % 2**64, seed >> 64]}
    gen = _thread.gen
    gen.bit_generator.state = dict(
        bit_generator="Philox", state=state, buffer=[0] * 4, buffer_pos=4, has_uint32=0, uinteger=0
    )
    gen._half = None
    return gen


@functools.lru_cache(maxsize=None)
def _cardinality_order(n: int) -> np.ndarray:
    """The 2**n masks ordered by (cardinality, mask); read-only."""
    masks = np.arange(1 << n)
    cardinality = sum((masks >> b) & 1 for b in range(n))
    order = np.argsort(cardinality, kind="stable")
    order.flags.writeable = False
    return order


def random_table_measure(
    rng: np.random.Generator, n: int, normalized: bool = True
) -> FiniteMonotoneMeasure:
    """Monotone table from sorted uniforms assigned by subset cardinality.

    Subsets take the sorted draws in order of (cardinality, mask), so each
    subset gets a draw at least as large as those of the subsets it
    covers, and the table is monotone as drawn.
    """
    _check_size(n)
    size = 1 << n
    table = np.empty(size)
    table[_cardinality_order(n)] = np.sort(rng.random(size))
    table[0] = 0.0
    if table[-1] <= 0.0:  # all-zero draws are measure-zero but stay safe
        table[-1] = 1.0
    if normalized:
        table /= table[-1]
        table[-1] = 1.0
    return FiniteMonotoneMeasure._monotone(n, tuple(table.tolist()))


def _lattice_draw(rng: TrialGenerator, lo: float, hi: float) -> float:
    """Uniform draw from the 0.05 lattice inside [lo, hi]."""
    k_lo = math.ceil(lo / 0.05 - 1e-9)
    k_hi = math.floor(hi / 0.05 + 1e-9)
    if k_hi < k_lo:
        return lo
    return round((k_lo + rng.below(k_hi - k_lo + 1)) * 0.05, 2)


def _pick(rng: TrialGenerator, pool: Sequence):
    return pool[rng.below(len(pool))]


def _drawn_ranges(tid: str) -> tuple[str, ...]:
    """The exponent_ranges names a campaign of statement tid draws."""
    stmt = STATEMENTS[tid]
    if stmt.sides == "jensen":
        return (_PHI_P,)
    if stmt.sides == "power" and stmt.arity is None:
        return ("xi_inner", "omega_inner")
    return stmt.exponents


def _draw_exponents(config: CampaignConfig, rng: TrialGenerator, tid: str, k: int):
    """The exponents of a trial of statement tid with k functions, by the
    names the statement reads; a name without a configured range reads as 1."""
    stmt = STATEMENTS[tid]
    names = stmt.exponents
    if stmt.arity is None and names:
        # an outer 1, then one draw per function, for xi and then omega
        vectors = []
        for bounds in map(config.exponent_range, _drawn_ranges(tid)):
            vectors.append(
                [1.0] + [1.0 if bounds is None else _lattice_draw(rng, *bounds) for _ in range(k)]
            )
        return dict(zip(names, vectors))
    exps = {}
    for name in names:
        bounds = config.exponent_range(name)
        exps[name] = 1.0 if bounds is None else _lattice_draw(rng, bounds[0], bounds[1])
    if tid == "lyapunov":
        r, s = names
        lo, hi = sorted((exps[r], exps[s]))
        if config.respect_hypotheses:
            exps[r], exps[s] = lo, hi
        else:
            # deliberately invert the order; nudge apart when the draw tied
            if lo == hi:
                hi = lo + 0.05
            exps[r], exps[s] = hi, lo
    if tid in ("holder", "rev_holder") and config.exponent_range(names[0]) is not None:
        p, q = names
        exps[p] = max(exps[p], 1.05)
        exps[q] = exps[p] / (exps[p] - 1.0)
    return exps or None


def _draw_functions(config: CampaignConfig, rng: TrialGenerator, k: int):
    if config.carrier == "finite":
        lo, hi = config.n_range
        n = lo + rng.below(hi - lo + 1)
        funcs = make_comonotone_system(rng, n, k, scale=config.scale)
        return n, tuple(funcs)
    # interval carrier: power functions share monotonicity, hence comonotone
    funcs = tuple(_power_function(_lattice_draw(rng, 0.25, 2.5)) for _ in range(k))
    return 0, funcs


# one shared interval draw per lattice value: draws repeat, and sharing them
# keeps the memoised side integrals from holding a copy of each trial's
# function and measure
@_memo
def _power_function(p: float) -> PowerFunction:
    return PowerFunction(p)


@_memo
def _lebesgue(p: float) -> DistortedLebesgue:
    return DistortedLebesgue(power(p))


def _draw_measure(config: CampaignConfig, rng: TrialGenerator, n: int, normalized: bool):
    if config.carrier == "lebesgue_power":
        p = 1.0  # power(1.0) is the identity distortion
        if config.measure_family == "distorted":
            p = _lattice_draw(rng, *config.distortion_p_range)
        return _lebesgue(p)
    if config.measure_family == "counting":
        return counting_measure(n, normalized=normalized)
    return random_table_measure(rng, n, normalized=normalized)


@_memo
def _verified_pool(pool: tuple[BinaryOp, ...]) -> tuple[BinaryOp, ...]:
    return tuple(op for op in pool if _op_report(op).passed)


def _pools(config: CampaignConfig) -> tuple[tuple, tuple]:
    """A trial's op pool and the one star, H or phi pool its statement reads;
    respecting hypotheses keeps the verified ops and stars."""
    fields = STATEMENTS[config.theorem_id].fields
    ops = config.op_pool
    pool = ()
    if "H" in fields:
        pool = config.H_pool
    elif "star" in fields:
        pool = _verified_pool(config.star_pool) if config.respect_hypotheses else config.star_pool
    elif "phi" in fields:
        pool = config.phi_pool
    if config.respect_hypotheses:
        ops = _verified_pool(ops) or ops
    return ops, pool


def gen_instance(config: CampaignConfig, trial_index: int) -> TheoremInstance:
    """Deterministically generate the instance of one trial."""
    if trial_index < 0 or trial_index >= config.trials:
        raise InputError("trial index outside the campaign")
    return _draw(config, _rng_for(config.seed, trial_index), *_pools(config))


def _draw(config: CampaignConfig, rng: TrialGenerator, ops: tuple, pool: tuple) -> TheoremInstance:
    # pool is the statement's star, H or phi pool; an empty one gives the default
    tid = config.theorem_id
    stmt = STATEMENTS[tid]
    op = _pick(rng, ops)

    H = star = None
    if stmt.arity is None:
        H = _pick(rng, pool) if pool else h_min(2)
    k = stmt.arity or H.arity
    n, funcs = _draw_functions(config, rng, k)

    normalized = config.normalize_measure or stmt.reverse or op.cap == 1.0
    measure = _draw_measure(config, rng, n, normalized)

    if stmt.arity == 2:
        star = _pick(rng, pool) if pool else min_op(cap=op.cap)

    u = psi = phi = ()
    if "u" in stmt.fields:
        u = tuple(identity() for _ in range(k + 1))
        psi = tuple(identity() for _ in range(k))
    elif "phi" in stmt.fields and pool:
        phi = _pick(rng, pool)
    elif stmt.sides == "jensen":
        bounds = config.exponent_range(_PHI_P) or (1.0, 3.0)
        phi = (power(_lattice_draw(rng, bounds[0], bounds[1])),)
    elif tid == "thm33":
        phi = (power(2.0), identity())
    elif tid == "rev_transform":
        phi = (identity(), power(2.0))

    exponents = _draw_exponents(config, rng, tid, k)
    return TheoremInstance(
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
    """A violation as the summary names it; the stream holds its instance."""

    trial_index: int
    margin: float
    hypotheses_met: bool
    digest: str


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


def _drop_element(inst: TheoremInstance, j: int) -> TheoremInstance | None:
    m = inst.measure
    n = m.n
    if n < 2:
        return None
    # the masks without bit j, ascending, are every other block of 2**j
    w = 1 << j
    table = []
    for b in range(0, 1 << n, 2 * w):
        table.extend(m.table[b : b + w])
    if not table[-1] > 0.0:
        return None
    if abs(m.total - 1.0) <= 1e-12:  # preserve the normalized class
        t = table[-1]
        table = [v / t for v in table]
        table[-1] = 1.0
    funcs = tuple(
        FiniteFunction(f.values[:j] + f.values[j + 1 :]) for f in inst.functions
    )
    # a restriction of a monotone table is monotone; every other field,
    # exponents included, is already in its frozen form
    return replace(
        inst, measure=FiniteMonotoneMeasure._monotone(n - 1, tuple(table)), functions=funcs
    )


def shrink_instance(inst: TheoremInstance):
    """Greedy one-element reduction keeping the verdict violating.

    Candidates are verified with skip_hypotheses, so the returned verdict
    carries holds, margin and sides but no hypothesis report.  Dropping an
    element keeps the function count, so every candidate has the family
    form of inst, derived once here.
    """
    if not isinstance(inst.measure, FiniteMonotoneMeasure):
        return None, None
    if not all(isinstance(f, FiniteFunction) for f in inst.functions):
        return None, None
    try:
        form = _instance_form(inst)
    except InputError:  # every candidate would raise it
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
                v = _verdict(cand, form, None, True)
            except InputError:
                continue
            if not v.holds:
                current, current_verdict = cand, v
                changed = True
                break
    if current is inst:
        return None, None
    return current, current_verdict


def _probe(config: CampaignConfig) -> None:
    """Refuse, before the header, a config some trial could not run: verify
    trial 0 of each op with each star, H or phi entry the family reads,
    hypotheses skipped, with every finite value at the top of the scale."""
    ops, pool = _pools(config)
    top = EXTENDED_TOP if config.scale == "extended" else 1.0
    for op in ops:
        for entry in [(e,) for e in pool] or [()]:
            try:
                inst = _draw(config, _rng_for(config.seed, 0), (op,), entry)
                if config.carrier == "finite":
                    funcs = tuple(FiniteFunction((top,) * len(f.values)) for f in inst.functions)
                    inst = replace(inst, functions=funcs)
                verify(inst, skip_hypotheses=True)
            except (InputError, OverflowError) as exc:
                why = exc if isinstance(exc, InputError) else f"float overflow: {exc}"
                names = " with ".join([_name(op, "op")] + [_name(e) for e in entry])
                raise InputError(f"{names}: {why}") from None


def _name(entry, role: str = "star") -> str:
    if isinstance(entry, tuple):
        return "phi " + ", ".join(t.kind for t in entry)
    if isinstance(entry, NaryOp):
        return f"H {entry.kind} of arity {entry.arity}"
    return f"{role} {entry.label()} (cap {entry.cap:g})"


def run_campaign(
    config: CampaignConfig, on_record: Callable[[dict], None] | None = None
) -> CampaignReport:
    """Probe the config (see _probe), then run every trial.

    on_record gets the header, one line per violation with its instance
    (and the shrunk instance and margin, if shrinking found one), then the
    summary.  The report keeps only the summary's records; an instance
    regenerates as gen_instance(config, trial_index).

    A violation is any verdict with holds false: respecting campaigns exit
    nonzero only when a hypothesis-passing instance fails, and unmet
    regimes report their violations with hypotheses_met false.  The
    campaign memoises in stores of its own, which end with it.
    """
    token = _stores.set({})  # the campaign's own memo stores, probe included
    try:
        _probe(config)
        emit = on_record or (lambda record: None)
        hyp_pass = 0
        violations = []
        emit(_header_json(config))
        for i in range(config.trials):
            inst = gen_instance(config, i)
            verdict = verify(inst)
            if verdict.hypotheses_met:
                hyp_pass += 1
            if not verdict.holds:
                # the one serialisation of the instance, digested and streamed
                inst_text = RawJSON(dumps_17g(instance_to_json(inst)))
                rec = ViolationRecord(i, verdict.margin, verdict.hypotheses_met, digest(inst_text))
                violations.append(rec)
                line = {
                    "record": "violation",
                    "trial": i,
                    "margin": rec.margin,
                    "hypotheses_met": rec.hypotheses_met,
                    "digest": rec.digest,
                    "instance": inst_text,
                }
                if config.shrink:
                    shrunk, sv = shrink_instance(inst)
                    if shrunk is not None:
                        line["shrunk"] = instance_to_json(shrunk)
                        line["shrunk_margin"] = sv.margin
                emit(line)
        report = CampaignReport(
            config=config,
            trials=config.trials,
            hypothesis_pass_count=hyp_pass,
            violations=tuple(violations),
        )
        emit(report.summary_json())
        return report
    finally:
        _stores.reset(token)


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
    inst = TheoremInstance(
        "star_general",
        min_op(),
        leb,
        [PowerFunction(1.0), ConstFunction(1.0)],
        star=min_op(),
        exponents=dict(zip(STATEMENTS["star_general"].exponents, (1.0, 0.5, 0.5, 1.0, 1.0, 1.0))),
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
