"""The package's public surface: a name is added or removed on purpose."""

import inspect

import pytest

import tessarine

PUBLIC = [
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


def test_all_is_the_pinned_list_and_every_name_resolves():
    assert tessarine.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(tessarine, name) is not None


@pytest.mark.parametrize("name", ["jordan_svd", "attempt_jordan_svd"])
def test_constructions_that_draw_nothing_take_no_rng(name):
    assert "rng" not in inspect.signature(getattr(tessarine, name)).parameters
