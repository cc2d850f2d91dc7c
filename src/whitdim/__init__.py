"""whitdim: exact verification of a q-series dimension identity.

The package evaluates both sides of the identity

    q^(n(n-1)/2) * prod_{i=1}^{n-1} (q^n - q^i)
        = (1/q^(3n^2)) * sum_{m,k,l} (character terms)

as exact rational functions of q over arbitrary-precision integers, checks
every rewrite step of the derivation, and independently reconfirms the
matrix-counting lemmas and the module dimension by exact counts of every
matrix, or every block triple, over small finite fields GF(q),
q in {2,3,4,5,7,8,9}.

Importing the package loads none of its modules: each public name is
imported from its module on first access (PEP 562), so a process pays only
for the modules it uses.

BACKEND names the implementation of the counting kernels; the pure Python
one in `kernels` is the only one.  No command reads it, but the benchmark
harness's setup probe prints `whitdim.BACKEND`, so it stays, and stays
exported, until the benchmark change that drops it from that probe.
"""

import importlib

__version__ = "0.1.0"
BACKEND = "pure"

_MODULE_OF = {
    "LaurentPoly": "laurent",
    "RationalFunctionQ": "rational",
    "TruncatedSeriesX": "qseries",
    "euler_series": "qseries",
    "poch_power": "qseries",
    "qbinom_series": "qseries",
    "qq": "qseries",
    "qq_power": "qseries",
    "VerificationReport": "engine",
    "closed_product": "engine",
    "conclusion_chain": "engine",
    "dimension_sum": "engine",
    "inner_sum_sides": "engine",
    "simplification_chain": "engine",
    "verify_main": "engine",
    "SUPPORTED_Q": "gfield",
    "GFMatrix": "gfield",
    "GFq": "gfield",
    "gf": "gfield",
    "FEASIBILITY_LIMIT": "counting",
    "FeasibilityError": "counting",
    "count_rect_by_rank": "counting",
    "grassmann_count": "counting",
    "grassmann_formula": "counting",
    "prasad_delta": "counting",
    "rect_rank_formula": "counting",
    "TraceBucketSums": "dimension",
    "closed_dim": "dimension",
    "dimension_report": "dimension",
    "middle_dim": "dimension",
    "theta_unipotent": "dimension",
    "trace_bucket_sums": "dimension",
}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + module, __name__), name)


__all__ = sorted(["BACKEND", *_MODULE_OF]) + ["__version__"]
