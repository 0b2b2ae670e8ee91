"""Linear algebra over the double-complex (tessarine) numbers.

A matrix pair [A, B] is treated as a single matrix over C (+) C with the
swap involution.  The package provides the pair algebra, the Jordan SVD,
the Moore-Penrose pseudoinverse with two independent constructions,
existence tests, the polar decomposition, and a randomized explorer for
the open existence/uniqueness questions.

``explorer`` and ``orthonormal``, and the names exported from them, are
imported on first use (PEP 562), so the CLI's pair commands load neither.
"""

import importlib

from .dcnum import DoubleComplex, sqrt_halfplane
from .dcmatrix import DCMatrix, direct_sum, embed_complex
from .complex_linalg import (
    JordanForm,
    jordan_decomposition,
    rank,
    similar,
    sqrt_via_jordan,
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

# submodule -> the names exported from it, imported on first use
_LAZY = {
    "orthonormal": (
        "DCVector",
        "extend_orthonormal",
        "gram_schmidt_step",
        "inner_product",
        "normalize",
    ),
    "explorer": (
        "TrialRecord",
        "conjecture_scan",
        "generate_pair",
        "rank_condition_pair",
        "uniqueness_scan",
    ),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY_NAMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_NAMES})
