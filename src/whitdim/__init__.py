"""whitdim: exact verification of a q-series dimension identity.

The package evaluates both sides of the identity

    q^(n(n-1)/2) * prod_{i=1}^{n-1} (q^n - q^i)
        = (1/q^(3n^2)) * sum_{m,k,l} (character terms)

as exact rational functions of q over arbitrary-precision integers, checks
every rewrite step of the derivation, and independently reconfirms the
matrix-counting lemmas and the module dimension by exact counts of every
matrix, or every block triple, over small finite fields GF(q),
q in {2,3,4,5,7,8,9}.
"""

from .laurent import LaurentPoly
from .rational import RationalFunctionQ
from .qseries import (
    TruncatedSeriesX,
    euler_product_truncation,
    euler_series,
    poch_power,
    poch_rewrite_check,
    qbinom_series,
    qq,
    qq_power,
)
from .engine import (
    VerificationReport,
    closed_product,
    compact_sides,
    conclusion_chain,
    dimension_sum,
    extended_inner_sum_matches,
    inner_sum_sides,
    simplification_chain,
    verify_main,
)
from .gfield import (
    SUPPORTED_Q,
    GFMatrix,
    GFq,
    block_constant,
    gf,
    random_invertible,
    random_matrix,
    rank_factorize,
)
from .counting import (
    FEASIBILITY_LIMIT,
    FeasibilityError,
    count_rect_by_rank,
    grassmann_count,
    grassmann_formula,
    prasad_delta,
    rect_rank_formula,
)
from .dimension import (
    TraceBucketSums,
    closed_dim,
    dimension_report,
    gaussian_cancellation_check,
    middle_dim,
    theta_unipotent,
    trace_bucket_sums,
)
from .kernels import BACKEND

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "FEASIBILITY_LIMIT",
    "FeasibilityError",
    "GFMatrix",
    "GFq",
    "LaurentPoly",
    "RationalFunctionQ",
    "SUPPORTED_Q",
    "TraceBucketSums",
    "TruncatedSeriesX",
    "VerificationReport",
    "block_constant",
    "closed_dim",
    "closed_product",
    "compact_sides",
    "conclusion_chain",
    "count_rect_by_rank",
    "dimension_report",
    "dimension_sum",
    "euler_product_truncation",
    "euler_series",
    "extended_inner_sum_matches",
    "gaussian_cancellation_check",
    "gf",
    "grassmann_count",
    "grassmann_formula",
    "inner_sum_sides",
    "middle_dim",
    "poch_power",
    "poch_rewrite_check",
    "prasad_delta",
    "qbinom_series",
    "qq",
    "qq_power",
    "random_invertible",
    "random_matrix",
    "rank_factorize",
    "rect_rank_formula",
    "simplification_chain",
    "theta_unipotent",
    "trace_bucket_sums",
    "verify_main",
    "__version__",
]
