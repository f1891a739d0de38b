"""Spans and counters around fuzzyint's layers, from outside the package.

Each public function is wrapped where the calling module binds it (for
example `harness.gen_instance`, `inequalities.seminormed_integral`), so
nothing under `src/` changes.  Spans are kept in memory as
`[name, start, end, parent, excluded]` and written out when the campaign
ends; a layer's self time is its duration minus its child spans and
minus `excluded`, the time spent in counted-but-unspanned calls (level
queries) made while it was the innermost open span.  Span times are
wall time (`perf_counter`, the cheapest clock), so unlike the end-to-end
metrics they include hypervisor steal.
"""

from __future__ import annotations

import importlib
import statistics
import time

# (module, attribute, span name); one span name may cover several bindings.
SPANNED = (
    ("harness", "gen_instance", "harness.gen_instance"),
    ("harness", "random_table_measure", "harness.random_table_measure"),
    ("harness", "shrink_instance", "harness.shrink_instance"),
    ("harness", "make_comonotone_system", "functions.make_comonotone_system"),
    ("harness", "verify", "inequalities.verify"),
    ("harness", "instance_to_json", "serialize.instance_to_json"),
    ("harness", "digest", "serialize.digest"),
    ("harness", "dumps_17g", "serialize.dumps_17g"),
    ("cli", "dumps_17g", "serialize.dumps_17g"),
    ("inequalities", "check_scalar_condition", "inequalities.check_scalar_condition"),
    ("inequalities", "verify_op_properties", "ops.verify_op_properties"),
    ("inequalities", "is_comonotone", "functions.is_comonotone"),
    ("inequalities", "universal_integral", "integrals"),
    ("inequalities", "seminormed_integral", "integrals"),
    ("inequalities", "semiconormed_integral", "integrals"),
    ("functions", "pointwise_combine", "functions.pointwise_combine"),
    ("integrals", "survival", "measures.survival"),
    ("measures", "survival", "measures.survival"),
)

# Counted, not timed: hundreds of thousands of calls per campaign.
COUNTED = tuple((mod, "eval_op") for mod in ("ops", "functions", "integrals", "inequalities"))

HYPOTHESIS_CHECKS = (
    "op_properties",
    "star_properties",
    "comonotone",
    "aggregator_nondecreasing",
    "measure_normalized",
    "measure_contraction",
    "exponent_condition",
    "scalar_condition",
    "finite_integrals",
)

# Per-layer metrics of one traced campaign: name -> unit.  Counts repeat
# exactly between runs of the same code; times do not.
LAYER_METRICS = {
    "harness.gen_instance.calls": "count",
    "harness.gen_instance.self_s": "s",
    "harness.random_table_measure.s": "s",
    "harness.shrink_instance.calls": "count",
    "harness.shrink_instance.s": "s",
    "harness.shrink_instance.verify_calls": "count",
    "functions.make_comonotone_system.s": "s",
    "functions.is_comonotone.calls": "count",
    "functions.is_comonotone.s": "s",
    "functions.pointwise_combine.calls": "count",
    "functions.pointwise_combine.s": "s",
    "measures.survival.calls": "count",
    "measures.survival.s": "s",
    "measures.level_queries": "count",
    "measures.level_query.s": "s",
    "integrals.calls": "count",
    "integrals.self_s": "s",
    "integrals.evals": "count",
    "integrals.evals_per_call": "count",
    "integrals.exact_share": "share",
    "ops.eval_op.calls": "count",
    "ops.verify_op_properties.calls": "count",
    "ops.verify_op_properties.s": "s",
    "inequalities.verify.calls": "count",
    "inequalities.verify.s": "s",
    "inequalities.verify.self_s": "s",
    "inequalities.check_scalar_condition.calls": "count",
    "inequalities.check_scalar_condition.s": "s",
    "inequalities.cond_cache.misses_per_trial": "count",
    **{f"inequalities.hyp_fail.{name}": "count" for name in HYPOTHESIS_CHECKS},
    "inequalities.hyp_fail.other": "count",
    "serialize.instance_to_json.calls": "count",
    "serialize.instance_to_json.s": "s",
    "serialize.digest.calls": "count",
    "serialize.digest.s": "s",
    "serialize.dumps_17g.calls": "count",
    "serialize.dumps_17g.s": "s",
    "serialize.dumps_17g.bytes": "B",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
}

# Metrics that must read the same in every campaign of one seed.
DETERMINISTIC = tuple(name for name, unit in LAYER_METRICS.items() if unit in ("count", "B", "share"))

_SHRINK = "harness.shrink_instance"


class Tracer:
    """Installs wrappers on fuzzyint's module bindings and records spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters = {
            "ops.eval_op.calls": 0,
            "measures.level_queries": 0,
            "measures.level_query.s": 0.0,
            "integrals.evals": 0,
            "integrals.exact": 0,
            "serialize.dumps_17g.bytes": 0,
        }
        self.hyp_fail = dict.fromkeys(HYPOTHESIS_CHECKS + ("other",), 0)
        self._originals: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, on_result=None):
        """fn wrapped so each call records one span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def _counted(self, fn):
        counters = self.counters

        def wrapper(*args):
            counters["ops.eval_op.calls"] += 1
            return fn(*args)

        return wrapper

    def _level_query(self, fn):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        def query(t):
            t0 = clock()
            try:
                return fn(t)
            finally:
                dt = clock() - t0
                counters["measures.level_queries"] += 1
                counters["measures.level_query.s"] += dt
                if stack:
                    spans[stack[-1]][4] += dt

        return query

    def _on_profile(self, profile):
        profile.weak = self._level_query(profile.weak)
        profile.strict = self._level_query(profile.strict)

    def _on_integral(self, result):
        self.counters["integrals.evals"] += result.candidates
        self.counters["integrals.exact"] += bool(result.exact)

    def _on_verdict(self, verdict):
        if self._stack and self.spans[self._stack[-1]][0] == _SHRINK:
            return
        for check in verdict.hypothesis_report.checks:
            if not check.passed:
                key = check.name if check.name in self.hyp_fail else "other"
                self.hyp_fail[key] += 1

    def _on_dump(self, text):
        self.counters["serialize.dumps_17g.bytes"] += len(text)

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        hooks = {
            "measures.survival": self._on_profile,
            "integrals": self._on_integral,
            "inequalities.verify": self._on_verdict,
            "serialize.dumps_17g": self._on_dump,
        }
        for mod_name, attr, name in SPANNED:
            self._replace(mod_name, attr, lambda fn, n=name: self.span(n, fn, hooks.get(n)))
        for mod_name, attr in COUNTED:
            self._replace(mod_name, attr, self._counted)

    def _replace(self, mod_name, attr, make):
        mod = importlib.import_module(f"fuzzyint.{mod_name}")
        original = getattr(mod, attr)
        self._originals.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def uninstall(self) -> None:
        while self._originals:
            mod, attr, original = self._originals.pop()
            setattr(mod, attr, original)

    # -- output -------------------------------------------------------------

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[ids[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            "counters": dict(self.counters),
            "hyp_fail": dict(self.hyp_fail),
        }


def bindings() -> dict:
    """Identity of every module attribute the tracer replaces.

    Equal before install and after uninstall when every wrapper is gone.
    """
    out = {}
    for mod_name, attr in tuple((m, a) for m, a, _ in SPANNED) + COUNTED:
        out[mod_name, attr] = id(getattr(importlib.import_module(f"fuzzyint.{mod_name}"), attr))
    return out


def layer_metrics(trace: dict, trials: int) -> dict:
    """Per-layer metrics of one traced campaign, from its dumped spans."""
    names = trace["names"]
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i, (nid, start, end, parent, excluded) in enumerate(spans):
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i] - excluded
        # Inclusive time counts only the outermost span of a recursive name.
        p = parent
        while p >= 0 and spans[p][0] != nid:
            p = spans[p][3]
        if p < 0:
            total[name] = total.get(name, 0.0) + (end - start)
    shrink_verifies = sum(
        1
        for nid, _, _, parent, _ in spans
        if names[nid] == "inequalities.verify" and parent >= 0 and names[spans[parent][0]] == _SHRINK
    )
    counters = trace["counters"]
    n_int = calls.get("integrals", 0)
    out = {
        "harness.shrink_instance.verify_calls": shrink_verifies,
        "measures.level_queries": counters["measures.level_queries"],
        "measures.level_query.s": counters["measures.level_query.s"],
        "integrals.evals": counters["integrals.evals"],
        "integrals.evals_per_call": counters["integrals.evals"] / n_int if n_int else 0.0,
        "integrals.exact_share": counters["integrals.exact"] / n_int if n_int else 0.0,
        "ops.eval_op.calls": counters["ops.eval_op.calls"],
        "inequalities.cond_cache.misses_per_trial": (
            calls.get("inequalities.check_scalar_condition", 0) / trials if trials else 0.0
        ),
        "serialize.dumps_17g.bytes": counters["serialize.dumps_17g.bytes"],
    }
    for name, n in trace["hyp_fail"].items():
        out[f"inequalities.hyp_fail.{name}"] = n
    for metric in LAYER_METRICS:
        if metric in out:
            continue
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(layer, 0)
        elif kind == "s":
            out[metric] = total.get(layer, 0.0)
        elif kind == "self_s":
            out[metric] = self_s.get(layer, 0.0)
    return out


def median_metrics(per_campaign: list[dict]) -> dict:
    """Median of each per-layer metric over the traced campaigns of a run."""
    return {m: statistics.median(c[m] for c in per_campaign) for m in LAYER_METRICS}
