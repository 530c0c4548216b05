"""raf-lab: a computational laboratory for regular arithmetic functions.

Solves the triangular recurrence sum_{k<=n} a_k G(n,k) = R(n), evaluates
arithmetic Mellin transforms (closed forms and defining limits), estimates
regularity indices from partial-sum asymptotics, and verifies exact
floor/Mobius counting identities.
"""

__version__ = "0.1.0"

from .sieve import MobiusTable, totient_table  # raflab.sieve stays the module
from .kernels import (
    Ingham,
    Affine,
    LogKernel,
    Disc,
    RationalRaf,
    GeneralizedIngham,
    Scaled,
    FSpec,
    parse_kernel,
)
from .solver import (
    RhsSpec,
    Coefficients,
    PartialSumSeries,
    solve,
    ingham_coeff_closed,
    delta_coeff_closed,
    partial_sums,
    l0_three_smooth,
)
from .mellin import (
    zeta,
    closed_transform,
    limit_transform,
    limit_transform_wrt_f,
    phi_f_zeros,
    TransformResult,
)
from .asymptotics import (
    Tolerances,
    RegimeVerdict,
    IndexEstimate,
    fit_exponent,
    regime_check,
    regime_scan,
    estimate_index,
    hlr_report,
    jordan_partial_check,
    mertens_ratio_report,
    default_checkpoints,
)
from .counting import CountSpec, count_formula, count_oracle, ramanujan_l0_compare
