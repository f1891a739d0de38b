"""Mutated input documents through the command line.

Valid instance documents and campaign configs are mutated a few fields
at a time and fed to ``cli.main``.  Whatever the document, the exit code
is 0, 1 or 2; exit 2 comes with one JSON diagnostic on stderr and no
traceback; and a campaign that exits 2 has written nothing, so a config
error never follows a header.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuzzyint import (
    THEOREM_IDS,
    CampaignConfig,
    gen_instance,
    h_min,
    h_prod,
    instance_to_json,
    max_op,
    min_op,
    power,
    probsum_op,
    prod_op,
    smallest_op,
)
from fuzzyint.cli import _INTEGRALS, main
from fuzzyint.inequalities import REVERSE_IDS

# ids from each verifier core: two-function, exponent-carrying, n-ary,
# reverse and single-function families
THEOREMS = {
    "chebyshev": {},
    "star_general": {"xi1": (0.3, 0.8), "xi2": (0.3, 0.8)},
    "thm32": {"xi_inner": (0.5, 2.0), "omega_inner": (0.5, 2.0)},
    "rev_minkowski": {"k": (0.5, 2.0)},
    "jensen": {"phi_p": (0.5, 3.0)},
    "lyapunov": {"r": (0.5, 3.0), "s": (0.5, 3.0)},
}


def base_configs():
    for tid, ranges in THEOREMS.items():
        reverse = tid in REVERSE_IDS
        pool = (max_op(1.0), probsum_op()) if reverse else (min_op(1.0), prod_op(), smallest_op(0.5))
        for carrier in ("finite", "lebesgue_power"):
            yield CampaignConfig(
                theorem_id=tid,
                seed=7,
                trials=2,
                carrier=carrier,
                n_range=(2, 4),
                measure_family="random_table" if carrier == "finite" else "distorted",
                op_pool=pool if carrier == "lebesgue_power" else pool[:1],
                star_pool=pool[:1],
                H_pool=(h_min(2), h_prod(2)) if tid == "thm32" else (),
                phi_pool=((power(2.0),),) if tid == "jensen" else (),
                exponent_ranges=tuple(sorted(ranges.items())),
                respect_hypotheses=carrier == "finite",
            )


CONFIGS = tuple(cfg.to_json() for cfg in base_configs())
INSTANCES = tuple(
    instance_to_json(gen_instance(cfg, i)) for cfg in base_configs() for i in range(2)
)

# integers stay small, so a mutated trial count or ground set keeps a
# campaign short; large magnitudes come in as floats
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.sampled_from((0.0, 0.5, -0.5, 1.5, 1e-300, 1e300, math.inf, -math.inf, math.nan)),
    st.sampled_from(
        ("", "inf", "x", "min", "max", "prod", "smallest", "drastic", "finite", "power", "pwl")
    ),
    st.builds(list),
    st.builds(dict),
)


def paths(doc, prefix=()):
    """Every path into doc, the root first."""
    yield prefix
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from paths(v, prefix + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from paths(v, prefix + (i,))


@st.composite
def mutated(draw, docs):
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(tuple(paths(doc))))
        action = draw(st.sampled_from(("replace", "delete", "wrap")))
        if not path:
            doc = [doc] if action == "wrap" else draw(LEAVES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if action == "delete":
            del parent[key]
        elif action == "wrap":
            parent[key] = [parent[key]]
        else:
            parent[key] = draw(LEAVES)
    return doc


FLAG_VALUES = st.one_of(st.none(), st.sampled_from(("0", "-1", "1e-9", "0.5", "2", "inf", "nan")))


def run(tmp_path, flag, doc, *argv):
    path = tmp_path / "doc.json"
    # json.dumps spells nan and inf as NaN and Infinity, which JSON readers accept
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, flag, str(path)])
    return code, out.getvalue(), err.getvalue()


def check_outcome(code, out, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert "Traceback" not in err
        assert set(json.loads(err)) == {"error"}
    for line in out.splitlines():
        json.loads(line)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations")


EXAMPLES = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(doc=mutated(INSTANCES), tol=FLAG_VALUES, skip=st.booleans())
@EXAMPLES
def test_mutated_instance_through_verify(workdir, doc, tol, skip):
    tid = doc.get("theorem") if isinstance(doc, dict) else None
    argv = ["verify", "--theorem", tid if tid in THEOREM_IDS else "chebyshev"]
    argv += ["--tol", tol] if tol is not None else []
    argv += ["--skip-hypotheses"] if skip else []
    check_outcome(*run(workdir, "--instance", doc, *argv))


@given(
    doc=mutated(INSTANCES),
    integral=st.sampled_from(_INTEGRALS),
    e=FLAG_VALUES,
    tol=FLAG_VALUES,
)
@EXAMPLES
def test_mutated_instance_through_integrate(workdir, doc, integral, e, tol):
    argv = ["integrate", "--integral", integral]
    argv += ["--e", e] if e is not None else []
    argv += ["--tol", tol] if tol is not None else []
    check_outcome(*run(workdir, "--instance", doc, *argv))


@given(doc=mutated(CONFIGS))
@EXAMPLES
def test_mutated_config_through_falsify(workdir, doc):
    tid = doc.get("theorem") if isinstance(doc, dict) else None
    argv = ["falsify", "--theorem", tid if tid in THEOREM_IDS else "chebyshev"]
    code, out, err = run(workdir, "--config", doc, *argv)
    check_outcome(code, out, err)
    if code == 2:
        # a config error comes before the header
        assert out == ""
