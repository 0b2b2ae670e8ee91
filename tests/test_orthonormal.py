"""Swap-involution inner products and randomized basis extension."""

import numpy as np
import pytest

from tessarine.dcmatrix import DCMatrix
from tessarine.dcnum import DoubleComplex
from tessarine.errors import RetryExhausted, ZeroNorm
from tessarine.orthonormal import (
    DCVector,
    extend_orthonormal,
    gram_schmidt_step,
    inner_product,
    normalize,
    random_vector,
)


def zero_norm_witness():
    """(1, j)^T: entries (1,1) and (1,-1) in idempotent coordinates."""
    return DCVector([1, 1], [1, -1])


class TestInnerProduct:
    def test_zero_norm_witness(self):
        w = zero_norm_witness()
        assert inner_product(w, w).approx_eq(DoubleComplex(0, 0), 1e-15)
        assert w.max_abs() > 0

    def test_standard_basis_orthonormal(self):
        for i in range(3):
            for k in range(3):
                got = inner_product(
                    DCVector.basis_vector(i, 3), DCVector.basis_vector(k, 3)
                )
                want = DoubleComplex(float(i == k), float(i == k))
                assert got.approx_eq(want, 1e-15)

    def test_entrywise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = random_vector(4, rng)
            y = random_vector(4, rng)
            acc = DoubleComplex(0, 0)
            for i in range(4):
                acc = acc + x.entry(i).conj() * y.entry(i)
            assert inner_product(x, y).approx_eq(acc, 1e-12)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(1)
        x, y = random_vector(5, rng), random_vector(5, rng)
        assert inner_product(y, x).approx_eq(inner_product(x, y).conj(), 1e-12)


class TestGramSchmidt:
    def test_already_orthogonal_unchanged(self):
        w = DCVector.basis_vector(2, 3)
        out = gram_schmidt_step(w, [DCVector.basis_vector(0, 3)])
        assert np.allclose(out.u, w.u) and np.allclose(out.v, w.v)

    def test_projects_out_e1(self):
        e1, e2 = DCVector.basis_vector(0, 2), DCVector.basis_vector(1, 2)
        out = gram_schmidt_step(e1 + e2, [e1])
        assert np.allclose(out.u, e2.u) and np.allclose(out.v, e2.v)

    def test_residual_inner_products(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            basis = extend_orthonormal([], 4, rng)
            s = basis[:2]
            w = random_vector(4, rng)
            out = gram_schmidt_step(w, s)
            for v in s:
                assert abs(inner_product(v, out).p) <= 1e-9
                assert abs(inner_product(v, out).q) <= 1e-9

    def test_matches_the_loop(self):
        rng = np.random.default_rng(4)
        for k in range(5):
            s = [random_vector(5, rng) for _ in range(k)]
            w = random_vector(5, rng)
            want = w
            for v in s:
                want = want - v.scale(inner_product(v, w))
            got = gram_schmidt_step(w, s)
            assert (got - want).max_abs() <= 1e-13 * max(want.max_abs(), 1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        basis = extend_orthonormal([], 4, rng)[:2]
        w = random_vector(4, rng)
        once = gram_schmidt_step(w, basis)
        twice = gram_schmidt_step(once, basis)
        assert (once - twice).max_abs() <= 1e-9


class TestNormalize:
    def test_scaled_basis_vector(self):
        w = DCVector.basis_vector(0, 2).scale(DoubleComplex(2, 2))
        out = normalize(w)
        assert np.allclose(out.u, [1, 0]) and np.allclose(out.v, [1, 0])

    def test_zero_norm_witness_rejected(self):
        with pytest.raises(ZeroNorm):
            normalize(zero_norm_witness())

    def test_random_norm_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            w = random_vector(5, rng)
            out = normalize(w)
            assert inner_product(out, out).approx_eq(DoubleComplex(1, 1), 1e-9)


class TestExtend:
    def test_from_empty(self):
        rng = np.random.default_rng(5)
        basis = extend_orthonormal([], 2, rng)
        assert len(basis) == 2
        for i, x in enumerate(basis):
            for k, y in enumerate(basis):
                want = DoubleComplex(float(i == k), float(i == k))
                assert inner_product(x, y).approx_eq(want, 1e-8)

    def test_zero_norm_seed_set_rejected(self):
        with pytest.raises(ValueError):
            extend_orthonormal([zero_norm_witness()], 2, np.random.default_rng(6))

    def test_keeps_input_prefix(self):
        rng = np.random.default_rng(7)
        e1 = DCVector.basis_vector(0, 3)
        basis = extend_orthonormal([e1], 3, rng)
        assert basis[0] is e1
        assert len(basis) == 3

    def test_assembled_basis_is_unitary(self):
        rng = np.random.default_rng(8)
        for d in (1, 2, 4, 6):
            basis = extend_orthonormal([], d, rng)
            u = DCMatrix(
                np.column_stack([v.u for v in basis]), np.vstack([v.v for v in basis])
            )
            assert u.is_unitary(1e-8)

    def test_first_draw_success_rate(self):
        rng = np.random.default_rng(9)
        draws = retries = 0
        for _ in range(200):
            stats = {}
            d = int(rng.integers(1, 7))
            extend_orthonormal([], d, rng, stats=stats)
            draws += stats["draws"]
            retries += stats["retries"]
        assert retries / draws < 0.01

    def test_retry_exhausted_bound(self):
        class ZeroRng:
            """Degenerate: always draws the zero vector."""

            def standard_normal(self, shape):
                return np.zeros(shape)

        with pytest.raises(RetryExhausted):
            extend_orthonormal([], 2, ZeroRng(), max_retries=4)
