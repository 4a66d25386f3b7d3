"""Terminating basic hypergeometric series, the four-parameter symmetric
polynomial family, and a randomized identity-verification harness.

The package is generic over two scalar backends: exact Gaussian
rationals (the ground-truth oracle) and machine complex floats (fast,
with cancellation-aware comparisons).
"""

from .arithmetic import (
    GaussianRational,
    GuardViolation,
    QError,
    binom2,
    format_scalar,
    parse_scalar,
    pow_int,
)
from .qpochhammer import identity_suite, poch, poch_list
from .qseries import (
    SeriesSpec,
    TermTrace,
    VwpSpec,
    connect_qinv,
    eval_phi,
    eval_phi_direct,
    eval_w,
    eval_w_direct,
    invert_series,
    invert_w,
    qinvert_f,
    watson_whipple,
)
from .askey_wilson import (
    ALL_REPS,
    AWParams,
    EvalReport,
    RepId,
    RepTag,
    check_qinv_scaling,
    eval_all,
    eval_qinv_all,
    eval_qinv_direct,
    eval_qinv_rep,
    eval_rep,
)
from .identity_catalog import (
    CheckOutcome,
    Draw,
    IdentityRecord,
    Verdict,
    catalog,
    check,
    derive_from_aw,
    record_by_id,
)
from .sampler_verifier import (
    DrawConfig,
    SamplerExhausted,
    SweepReport,
    UnknownTarget,
    all_target_ids,
    draw_params,
    run_sweep,
)

__version__ = "0.1.0"
