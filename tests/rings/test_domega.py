"""Tests for the dyadic cyclotomic ring D[omega] (paper Section IV-A/B)."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InexactDivisionError, ZeroDivisionRingError
from repro.rings.domega import DOmega
from repro.rings.zomega import ZOmega

small_ints = st.integers(min_value=-20, max_value=20)
exponents = st.integers(min_value=-6, max_value=6)
domegas = st.builds(DOmega.from_coefficients, small_ints, small_ints, small_ints, small_ints, exponents)
nonzero = domegas.filter(bool)

# Unit generators of D[omega] (paper Section IV-B): 1/sqrt2, omega, omega +- 1.
units = st.sampled_from(
    [
        DOmega.one_over_sqrt2(),
        DOmega.sqrt2_power(1),
        DOmega.omega_power(1),
        DOmega.omega_power(3),
        DOmega.from_int(-1),
        DOmega.from_coefficients(0, 0, 1, 1),  # omega + 1
        DOmega.from_coefficients(0, 0, 1, -1),  # omega - 1
    ]
)


class TestAlgorithm1CanonicalForm:
    """The constructor realises the paper's Algorithm 1."""

    def test_example_6_and_7_sqrt2(self):
        # sqrt2 = (0,0,0,1) with k = -1 is the canonical representative;
        # the k = 0 representation -w^3 + w must reduce to it.
        via_k0 = DOmega.from_coefficients(-1, 0, 1, 0, k=0)
        assert via_k0.key() == (0, 0, 0, 1, -1)

    def test_example_6_k1_representation(self):
        # (0w^3 + 0w^2 + 0w + 2)/sqrt2^1 also equals sqrt2.
        assert DOmega.from_coefficients(0, 0, 0, 2, k=1).key() == (0, 0, 0, 1, -1)

    def test_zero_is_all_zero(self):
        assert DOmega.from_coefficients(0, 0, 0, 0, k=5).key() == (0, 0, 0, 0, 0)

    @given(domegas)
    def test_minimality_criterion(self, x):
        """Canonical numerators violate the divisibility parity criterion."""
        if x.is_zero():
            assert x.key() == (0, 0, 0, 0, 0)
        else:
            assert not x.zeta.divisible_by_sqrt2()

    @given(domegas, st.integers(min_value=0, max_value=5))
    def test_representation_independence(self, x, extra):
        """Scaling numerator and denominator by sqrt2^extra is a no-op."""
        scaled_zeta = x.zeta
        for _ in range(extra):
            scaled_zeta = scaled_zeta.mul_sqrt2()
        assert DOmega(scaled_zeta, x.k + extra) == x

    @given(domegas)
    def test_value_preserved_by_canonicalisation(self, x):
        value = x.zeta.to_complex() * math.sqrt(2) ** (-x.k)
        assert cmath.isclose(x.to_complex(), value, abs_tol=1e-6)


class TestArithmetic:
    @given(domegas, domegas)
    def test_add_matches_complex(self, x, y):
        assert cmath.isclose(
            (x + y).to_complex(), x.to_complex() + y.to_complex(), abs_tol=1e-5
        )

    @given(domegas, domegas)
    def test_mul_matches_complex(self, x, y):
        assert cmath.isclose(
            (x * y).to_complex(), x.to_complex() * y.to_complex(),
            abs_tol=1e-4, rel_tol=1e-7,
        )

    @given(domegas, domegas, domegas)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z

    @given(domegas)
    def test_sub_and_neg(self, x):
        assert (x - x).is_zero()
        assert -(-x) == x

    def test_hadamard_entry(self):
        # 1/sqrt2 * 1/sqrt2 = 1/2
        half = DOmega.one_over_sqrt2() * DOmega.one_over_sqrt2()
        assert half == DOmega.from_coefficients(0, 0, 0, 1, k=2)

    def test_omega_eighth_root(self):
        assert DOmega.omega_power(1) ** 8 == DOmega.one()

    @given(domegas)
    def test_conj_matches_complex(self, x):
        assert cmath.isclose(x.conj().to_complex(), x.to_complex().conjugate(), abs_tol=1e-6)

    @given(domegas)
    def test_abs_squared_real_nonnegative(self, x):
        squared = x.abs_squared()
        value = squared.to_complex()
        assert abs(value.imag) < 1e-6
        assert value.real >= -1e-9


class TestUnits:
    @given(units)
    def test_generators_are_units(self, u):
        assert u.is_unit()

    @given(units)
    def test_unit_inverse(self, u):
        assert u * u.unit_inverse() == DOmega.one()

    def test_three_is_not_a_unit(self):
        assert not DOmega.from_int(3).is_unit()
        with pytest.raises(InexactDivisionError):
            DOmega.from_int(3).unit_inverse()

    def test_zero_is_not_a_unit(self):
        assert not DOmega.zero().is_unit()

    @given(units, units)
    def test_unit_products_are_units(self, u1, u2):
        assert (u1 * u2).is_unit()


class TestDivision:
    @given(domegas, nonzero)
    @settings(deadline=None)
    def test_product_roundtrip(self, x, y):
        assert (x * y).exact_divide(y) == x

    def test_odd_integer_division_fails(self):
        # Paper Section IV-B: odd integers >= 3 have no inverse in D[omega].
        with pytest.raises(InexactDivisionError):
            DOmega.one().exact_divide(DOmega.from_int(3))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionRingError):
            DOmega.one().exact_divide(DOmega.zero())

    def test_division_by_sqrt2_is_exact(self):
        # Unlike Z[i, sqrt2], the ring contains 1/sqrt2 (paper footnote 4).
        quotient = DOmega.one().exact_divide(DOmega.sqrt2_power(1))
        assert quotient == DOmega.one_over_sqrt2()


class TestGcd:
    @given(st.lists(nonzero, min_size=1, max_size=4))
    @settings(deadline=None, max_examples=40)
    def test_gcd_divides_all(self, elements):
        g = DOmega.gcd(elements)
        assert all(g.divides(element) for element in elements)

    @given(nonzero, st.lists(nonzero, min_size=1, max_size=3))
    @settings(deadline=None, max_examples=40)
    def test_common_factor_divides_gcd(self, factor, elements):
        g = DOmega.gcd([factor * element for element in elements])
        assert factor.divides(g)

    def test_gcd_of_zeros(self):
        assert DOmega.gcd([DOmega.zero(), DOmega.zero()]).is_zero()


class TestCanonicalAssociate:
    """Properties (a)-(c) of the paper's GCD normalisation scheme."""

    @given(nonzero)
    @settings(deadline=None, max_examples=60)
    def test_reconstruction(self, x):
        canonical, unit = x.canonical_associate()
        assert canonical * unit == x
        assert unit.is_unit()

    @given(nonzero)
    @settings(deadline=None, max_examples=60)
    def test_property_a_integral(self, x):
        canonical, _ = x.canonical_associate()
        # k == 0: lies in Z[omega] with all sqrt2 units factored out.
        assert canonical.k == 0

    @given(nonzero, units)
    @settings(deadline=None, max_examples=60)
    def test_uniqueness_on_associates(self, x, u):
        """The hallmark of the scheme: associates normalise identically."""
        assert (x * u).canonical_associate()[0] == x.canonical_associate()[0]

    def test_paper_example_9_norm_reduction(self):
        # Paper Example 9: alpha = 2w^3 + 3w^2 + 2w + 4 has norm
        # 33 + 12 sqrt2 whose derived-pair measure is not minimal; the
        # associate alpha * (omega - 1) has norm 42 - 9 sqrt2 with the
        # minimal derived pair (9, 21).  The canonical associate must
        # reach exactly that norm (up to the sign of v).
        alpha = DOmega.from_coefficients(2, 3, 2, 4)
        canonical, _ = alpha.canonical_associate()
        u_can, v_can = canonical.zeta.norm_zsqrt2()
        assert (abs(u_can), abs(v_can)) == (42, 9)
        # And it is an associate of alpha.
        assert canonical.divides(alpha) and alpha.divides(canonical)

    def test_zero(self):
        canonical, unit = DOmega.zero().canonical_associate()
        assert canonical.is_zero()
        assert unit == DOmega.one()


class TestMetrics:
    def test_max_bit_width(self):
        assert DOmega.from_int(1023).max_bit_width() == 10
        assert DOmega.zero().max_bit_width() == 0

    @given(domegas)
    def test_hash_equal_for_equal(self, x):
        clone = DOmega(x.zeta, x.k)
        assert hash(clone) == hash(x)


class TestIntSubclassCoercion:
    def test_bool_exponent_becomes_int(self):
        value = DOmega(ZOmega(0, 0, 1, 0), True)
        assert value.key() == (0, 0, 1, 0, 1)
        assert all(type(entry) is int for entry in value.key())
        assert repr(value) == "DOmega.from_coefficients(0, 0, 1, 0, k=1)"

    def test_non_int_exponent_rejected(self):
        with pytest.raises(TypeError):
            DOmega(ZOmega.one(), 1.0)
