"""Campaign configs of the benchmark workloads.

Each workload is one `fuzzyint falsify` campaign config with the seed
left open.  `trials` is sized so one campaign takes about three seconds
on a 2-CPU x86 host; a run repeats the campaign in fresh interpreters
until its time is up.  `exit_code` is what the CLI must return: 0 when
hypotheses are respected (any violation would be a counterexample), 1
for the regimes built to produce violations.
"""

from __future__ import annotations

from dataclasses import dataclass

_MIN1 = {"kind": "min", "cap": 1}
_PROD1 = {"kind": "prod", "cap": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    trials: int
    exit_code: int
    config: dict

    def campaign(self, seed: int, trials: int | None = None) -> dict:
        """The config document the CLI reads, for one seed."""
        return dict(self.config, seed=seed, trials=self.trials if trials is None else trials)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cheb_clean",
            "Generation-heavy finite Chebyshev campaign, hypotheses respected: exact integrals, "
            "warm condition caches, no violations, so serialization is idle",
            trials=6000,
            exit_code=0,
            config={
                "theorem": "chebyshev",
                "carrier": "finite",
                "n_range": [2, 8],
                "op_pool": [_MIN1],
                "star_pool": [_MIN1, _PROD1],
                "respect_hypotheses": True,
                "normalize_measure": True,
                "scale": "unit",
            },
        ),
        Workload(
            "star_falsify",
            "Output-heavy star_general campaign with sub-unit exponents: most trials violate, "
            "so shrinking, instance serialization and digests dominate",
            trials=2400,
            exit_code=1,
            config={
                "theorem": "star_general",
                "carrier": "finite",
                "n_range": [2, 6],
                "op_pool": [_MIN1],
                "star_pool": [_MIN1],
                "exponent_ranges": {"xi1": [0.3, 0.8], "xi2": [0.3, 0.8]},
                "respect_hypotheses": False,
                "normalize_measure": True,
                "scale": "unit",
            },
        ),
        Workload(
            "interval_cheb",
            "Chebyshev on distorted Lebesgue measures: the only workload where the threshold "
            "optimiser refines spans instead of reading exact candidates",
            trials=2000,
            exit_code=1,
            config={
                "theorem": "chebyshev",
                "carrier": "lebesgue_power",
                "measure_family": "distorted",
                "op_pool": [
                    {"kind": "min"},
                    {"kind": "prod"},
                    {"kind": "smallest", "neutral": 0.5},
                ],
                "star_pool": [{"kind": "min"}, {"kind": "prod"}],
                "respect_hypotheses": True,
            },
        ),
        Workload(
            "nary_grid",
            "thm32 with drawn inner exponents: nearly every trial misses the scalar-condition "
            "cache, so grid checks through scalar eval_op dominate",
            trials=800,
            exit_code=1,
            config={
                "theorem": "thm32",
                "carrier": "finite",
                "n_range": [2, 6],
                "op_pool": [_MIN1, _PROD1],
                "H_pool": [{"kind": "min", "arity": 2}, {"kind": "prod", "arity": 2}],
                "exponent_ranges": {"xi_inner": [0.5, 2.0], "omega_inner": [0.5, 2.0]},
                "respect_hypotheses": False,
            },
        ),
    )
}
