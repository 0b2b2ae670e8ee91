"""Tessarine scalar arithmetic."""

import numpy as np
import pytest

from tessarine.dcnum import (
    DoubleComplex,
    E,
    E_STAR,
    J,
    ONE,
    ZERO,
    halfplane_sqrt,
    in_halfplane,
    sqrt_halfplane,
)
from tessarine.errors import ZeroDivisor


def rand_dc(rng):
    re = rng.standard_normal(4)
    return DoubleComplex(complex(re[0], re[1]), complex(re[2], re[3]))


class TestAdd:
    def test_idempotents_sum_to_one(self):
        assert E + E_STAR == ONE

    def test_additive_inverse(self):
        a = DoubleComplex(2, 3)
        assert a + (-a) == ZERO

    def test_componentwise_complex(self):
        a = DoubleComplex(1 + 1j, 2)
        b = DoubleComplex(1 - 1j, -1)
        assert a + b == DoubleComplex(2, 1)


class TestMul:
    def test_idempotents_annihilate(self):
        assert E * E_STAR == ZERO
        assert E_STAR * E == ZERO

    def test_identity(self):
        assert DoubleComplex(2, 3) * ONE == DoubleComplex(2, 3)

    def test_e_squared(self):
        assert E * E == E

    def test_j_squared_is_one(self):
        assert J * J == ONE


class TestConj:
    def test_swaps_idempotents(self):
        assert E.conj() == E_STAR

    def test_hermitian_scalar_fixed(self):
        assert DoubleComplex(5, 5).conj() == DoubleComplex(5, 5)

    def test_involution(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rand_dc(rng)
            assert a.conj().conj() == a

    def test_multiplicative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rand_dc(rng), rand_dc(rng)
            assert (a * b).conj().approx_eq(a.conj() * b.conj(), 1e-12)


class TestInverse:
    def test_componentwise_reciprocal(self):
        assert DoubleComplex(2, 4).inverse() == DoubleComplex(0.5, 0.25)

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisor):
            E.inverse()

    def test_complex_component(self):
        a = DoubleComplex(1j, 1)
        inv = a.inverse()
        assert (a * inv).approx_eq(ONE, 1e-12)
        assert inv.approx_eq(DoubleComplex(-1j, 1), 1e-12)

    def test_random_inverse_property(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = rand_dc(rng)
            if abs(a.p) < 1e-3 or abs(a.q) < 1e-3:
                continue
            assert (a * a.inverse()).approx_eq(ONE, 1e-12)


class TestSqrt:
    def test_positive_reals(self):
        assert sqrt_halfplane(DoubleComplex(4, 9)).approx_eq(DoubleComplex(2, 3))

    def test_negative_real_boundary(self):
        r = sqrt_halfplane(DoubleComplex(-4, 0))
        assert r.approx_eq(DoubleComplex(2j, 0), 1e-12)
        assert (r * r).approx_eq(DoubleComplex(-4, 0), 1e-12)

    def test_identity(self):
        assert sqrt_halfplane(ONE) == ONE

    def test_branch_cut_tolerance(self):
        # just below the cut the root's real part is 2.5e-13 > 0; within
        # axis_tol of the cut the sign of the imaginary part decides
        x = -4 - 1e-12j
        assert halfplane_sqrt(x) == 2.5e-13 - 2j
        assert halfplane_sqrt(x, axis_tol=1e-9) == -2.5e-13 + 2j
        for r in (halfplane_sqrt(x), halfplane_sqrt(x, axis_tol=1e-9)):
            assert r * r == x

    def test_axis_tol_on_the_imaginary_axis(self):
        assert in_halfplane(1e-12 - 1j) and not in_halfplane(-1e-12 + 1j)
        assert not in_halfplane(1e-12 - 1j, axis_tol=1e-9)
        assert in_halfplane(-1e-12 + 1j, axis_tol=1e-9)

    def test_random_square_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            a = rand_dc(rng)
            r = sqrt_halfplane(a)
            assert (r * r).approx_eq(a, 1e-12)
            assert in_halfplane(r.p) and in_halfplane(r.q)


class TestRepresentation:
    def test_wz_roundtrip(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = rand_dc(rng)
            back = DoubleComplex.from_wz(a.w, a.z)
            assert back.approx_eq(a, 1e-15)

    def test_wz_values(self):
        a = DoubleComplex.from_wz(0, 1)  # j itself
        assert a == J

    def test_zero_divisor_predicate(self):
        assert E.is_zero_divisor()
        assert E_STAR.is_zero_divisor()
        assert not ONE.is_zero_divisor()
        assert not ZERO.is_zero_divisor()
