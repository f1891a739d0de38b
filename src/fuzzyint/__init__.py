"""Monotone-measure integrals and inequality verification.

The package computes threshold-style integrals against monotone (fuzzy)
measures, exactly on finite carriers and to a declared tolerance on the
unit interval, and checks families of integral inequalities, reporting
margins, hypothesis diagnostics and counterexamples.
"""

from .ops import (
    BinaryOp,
    CheckResult,
    GridSpec,
    InputError,
    PropertyReport,
    check_distributivity,
    check_domination,
    custom_op,
    drastic_op,
    eval_grid,
    eval_op,
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
    verify_op_properties,
    xmul,
    INF,
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
    UnsupportedError,
    affine,
    apply_transform,
    compose,
    eval_at,
    identity,
    is_comonotone,
    is_countermonotone,
    make_comonotone_system,
    pointwise_combine,
    power,
    sup_value,
)
from .measures import (
    DistortedLebesgue,
    FiniteMonotoneMeasure,
    SurvivalProfile,
    counting_measure,
    essinf,
    survival,
)
from .integrals import (
    IntegralResult,
    semiconormed_integral,
    seminormed_integral,
    shilkret,
    smallest_e_integral,
    sugeno,
    universal_integral,
)
from .inequalities import (
    InequalityVerdict,
    NaryOp,
    TheoremInstance,
    THEOREM_IDS,
    check_H_boundedness,
    check_scalar_condition,
    h_max,
    h_min,
    h_prod,
    h_table,
    h_wmean,
    verify,
)
from .serialize import (
    digest,
    dumps_17g,
    function_from_json,
    function_to_json,
    instance_digest,
    instance_from_json,
    instance_to_json,
    measure_from_json,
    measure_to_json,
    nary_from_json,
    nary_to_json,
    op_from_json,
    op_to_json,
    transform_from_json,
    transform_to_json,
)
from .harness import (
    CampaignConfig,
    CampaignReport,
    FixtureReport,
    ViolationRecord,
    gen_instance,
    random_table_measure,
    reproduce_paper,
    run_campaign,
    shrink_instance,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
