"""Linear algebra over the double-complex (tessarine) numbers.

A matrix pair [A, B] is treated as a single matrix over C (+) C with the
swap involution.  The package provides the pair algebra, the Jordan SVD,
the Moore-Penrose pseudoinverse with two independent constructions,
existence tests, the polar decomposition, and a randomized explorer for
the open existence/uniqueness questions.
"""

from .dcnum import DoubleComplex, sqrt_halfplane
from .dcmatrix import DCMatrix, direct_sum, embed_complex
from .complex_linalg import (
    JordanForm,
    jordan_decomposition,
    rank,
    similar,
    sqrt_via_jordan,
)
from .orthonormal import (
    DCVector,
    extend_orthonormal,
    gram_schmidt_step,
    inner_product,
    normalize,
)
from .decompositions import (
    ExistenceReport,
    JordanSVD,
    JsvdStatus,
    PolarDecomposition,
    attempt_jordan_svd,
    hermitian_jsvd,
    jordan_svd,
    jsvd_necessary,
    jsvd_to_polar,
    naive_dc_svd,
    penrose_check,
    pinv,
    pinv_exists,
    pinv_via_diagrams,
    polar,
    polar_to_jsvd,
)
from .explorer import (
    TrialRecord,
    conjecture_scan,
    generate_pair,
    rank_condition_pair,
    uniqueness_scan,
)
from . import errors

__all__ = [
    "DoubleComplex",
    "sqrt_halfplane",
    "DCMatrix",
    "direct_sum",
    "embed_complex",
    "JordanForm",
    "jordan_decomposition",
    "rank",
    "similar",
    "sqrt_via_jordan",
    "DCVector",
    "extend_orthonormal",
    "gram_schmidt_step",
    "inner_product",
    "normalize",
    "ExistenceReport",
    "JordanSVD",
    "JsvdStatus",
    "PolarDecomposition",
    "attempt_jordan_svd",
    "hermitian_jsvd",
    "jordan_svd",
    "jsvd_necessary",
    "jsvd_to_polar",
    "naive_dc_svd",
    "penrose_check",
    "pinv",
    "pinv_exists",
    "pinv_via_diagrams",
    "polar",
    "polar_to_jsvd",
    "TrialRecord",
    "conjecture_scan",
    "generate_pair",
    "rank_condition_pair",
    "uniqueness_scan",
    "errors",
]

__version__ = "0.1.0"
