"""Unit and property tests for the cyclotomic integer ring Z[omega]."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InexactDivisionError, ZeroDivisionRingError
from repro.rings.zomega import ZOmega

OMEGA = cmath.exp(1j * math.pi / 4)

small_ints = st.integers(min_value=-50, max_value=50)
zomegas = st.builds(ZOmega, small_ints, small_ints, small_ints, small_ints)
nonzero_zomegas = zomegas.filter(bool)


def complex_of(z: ZOmega) -> complex:
    a, b, c, d = z.coefficients()
    return a * OMEGA**3 + b * OMEGA**2 + c * OMEGA + d


class TestConstructionAndBasics:
    def test_zero_and_one(self):
        assert ZOmega.zero().is_zero()
        assert ZOmega.one().is_one()
        assert not ZOmega.zero()
        assert ZOmega.one()

    def test_from_int(self):
        assert ZOmega.from_int(7).coefficients() == (0, 0, 0, 7)
        assert ZOmega.from_int(7).is_rational_integer()

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            ZOmega(1.0, 0, 0, 0)

    def test_immutability(self):
        z = ZOmega(1, 2, 3, 4)
        with pytest.raises(AttributeError):
            z.a = 5

    def test_omega_value(self):
        assert cmath.isclose(ZOmega.omega().to_complex(), OMEGA)

    def test_omega_powers_cycle(self):
        for exponent in range(-8, 16):
            expected = OMEGA**exponent
            assert cmath.isclose(ZOmega.omega_power(exponent).to_complex(), expected, abs_tol=1e-12)

    def test_imag_unit(self):
        assert cmath.isclose(ZOmega.imag_unit().to_complex(), 1j)
        assert ZOmega.imag_unit() == ZOmega.omega() * ZOmega.omega()

    def test_sqrt2_identity(self):
        # sqrt2 = omega - omega^3
        assert ZOmega.sqrt2() == ZOmega.omega() - ZOmega.omega_power(3)
        assert cmath.isclose(ZOmega.sqrt2().to_complex(), math.sqrt(2))

    def test_sqrt2_squared_is_two(self):
        assert ZOmega.sqrt2() * ZOmega.sqrt2() == ZOmega.from_int(2)

    def test_from_gaussian(self):
        assert cmath.isclose(ZOmega.from_gaussian(3, -4).to_complex(), 3 - 4j)

    def test_equality_with_int(self):
        assert ZOmega.from_int(5) == 5
        assert ZOmega(0, 0, 1, 0) != 1

    def test_str_forms(self):
        assert str(ZOmega.zero()) == "0"
        assert str(ZOmega.one()) == "1"
        assert "w^3" in str(ZOmega(1, 0, 0, 0))
        assert str(ZOmega(-1, 0, 1, 0)) == "-w^3 + w"


class TestArithmetic:
    @given(zomegas, zomegas)
    def test_addition_matches_complex(self, x, y):
        assert cmath.isclose(
            complex_of(x + y), complex_of(x) + complex_of(y), abs_tol=1e-9
        )

    @given(zomegas, zomegas)
    def test_multiplication_matches_complex(self, x, y):
        assert cmath.isclose(
            complex_of(x * y), complex_of(x) * complex_of(y), abs_tol=1e-6
        )

    @given(zomegas, zomegas, zomegas)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z

    @given(zomegas)
    def test_additive_inverse(self, x):
        assert (x + (-x)).is_zero()
        assert x - x == ZOmega.zero()

    @given(zomegas)
    def test_identities(self, x):
        assert x + ZOmega.zero() == x
        assert x * ZOmega.one() == x
        assert x * ZOmega.zero() == ZOmega.zero()

    @given(zomegas)
    def test_int_scalar_multiplication(self, x):
        assert x * 3 == x + x + x
        assert 2 * x == x + x

    def test_power(self):
        omega = ZOmega.omega()
        assert omega**8 == ZOmega.one()
        assert omega**4 == ZOmega.from_int(-1)
        assert omega**0 == ZOmega.one()

    def test_power_rejects_negative(self):
        with pytest.raises(ValueError):
            ZOmega.omega() ** -1


class TestConjugationAndNorms:
    @given(zomegas)
    def test_conj_matches_complex(self, x):
        assert cmath.isclose(complex_of(x.conj()), complex_of(x).conjugate(), abs_tol=1e-9)

    @given(zomegas)
    def test_conj_is_involution(self, x):
        assert x.conj().conj() == x

    @given(zomegas, zomegas)
    def test_conj_is_ring_morphism(self, x, y):
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()

    @given(zomegas)
    def test_sqrt2_conj_is_involution(self, x):
        assert x.sqrt2_conj().sqrt2_conj() == x

    @given(zomegas, zomegas)
    def test_sqrt2_conj_is_ring_morphism(self, x, y):
        assert (x * y).sqrt2_conj() == x.sqrt2_conj() * y.sqrt2_conj()

    def test_sqrt2_conj_negates_sqrt2(self):
        assert ZOmega.sqrt2().sqrt2_conj() == -ZOmega.sqrt2()

    @given(zomegas)
    def test_norm_matches_abs_squared(self, x):
        u, v = x.norm_zsqrt2()
        assert math.isclose(u + v * math.sqrt(2), abs(complex_of(x)) ** 2, abs_tol=1e-6)

    def test_paper_typo_documented(self):
        # z = omega^3 + 1 has |z|^2 = 2 - sqrt2, so the cross term must be
        # ab + bc + cd - ad (the paper prints +da).
        z = ZOmega(1, 0, 0, 1)
        assert z.norm_zsqrt2() == (2, -1)

    @given(zomegas, zomegas)
    def test_euclidean_norm_multiplicative(self, x, y):
        assert (x * y).euclidean_norm() == x.euclidean_norm() * y.euclidean_norm()

    @given(nonzero_zomegas)
    def test_euclidean_norm_positive_definite(self, x):
        assert x.euclidean_norm() > 0

    def test_units(self):
        assert ZOmega.one().is_unit()
        assert ZOmega.omega().is_unit()
        assert (-ZOmega.one()).is_unit()
        assert not ZOmega.from_int(3).is_unit()
        assert not ZOmega.sqrt2().is_unit()  # E(sqrt2) = 4
        assert not ZOmega.zero().is_unit()

    def test_omega_plus_minus_one_norms(self):
        # These generate the non-torsion units of D[omega] (E = 2).
        assert ZOmega(0, 0, 1, 1).euclidean_norm() == 2
        assert ZOmega(0, 0, 1, -1).euclidean_norm() == 2


class TestSqrt2Divisibility:
    def test_sqrt2_divides_two(self):
        two = ZOmega.from_int(2)
        assert two.divisible_by_sqrt2()
        assert two.divide_by_sqrt2() == ZOmega.sqrt2()

    def test_one_not_divisible(self):
        assert not ZOmega.one().divisible_by_sqrt2()
        with pytest.raises(InexactDivisionError):
            ZOmega.one().divide_by_sqrt2()

    @given(zomegas)
    def test_mul_then_divide_roundtrip(self, x):
        assert x.mul_sqrt2().divide_by_sqrt2() == x

    @given(zomegas)
    def test_mul_sqrt2_matches_multiplication(self, x):
        assert x.mul_sqrt2() == x * ZOmega.sqrt2()

    @given(zomegas)
    def test_divisibility_criterion_consistent(self, x):
        # Whenever the parity criterion says divisible, the division must
        # reconstruct exactly.
        if x.divisible_by_sqrt2():
            assert x.divide_by_sqrt2().mul_sqrt2() == x


class TestExactDivision:
    @given(zomegas, nonzero_zomegas)
    def test_product_division_roundtrip(self, x, y):
        assert (x * y).exact_divide(y) == x

    def test_inexact_division_raises(self):
        with pytest.raises(InexactDivisionError):
            ZOmega.one().exact_divide(ZOmega.from_int(3))

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionRingError):
            ZOmega.one().exact_divide(ZOmega.zero())

    @given(nonzero_zomegas, nonzero_zomegas)
    def test_divides_predicate(self, x, y):
        assert y.divides(x * y)

    def test_zero_divides_only_zero(self):
        assert ZOmega.zero().divides(ZOmega.zero())
        assert not ZOmega.zero().divides(ZOmega.one())


class TestMisc:
    @given(zomegas)
    def test_hash_consistency(self, x):
        clone = ZOmega(*x.coefficients())
        assert hash(x) == hash(clone)
        assert x == clone

    def test_content(self):
        assert ZOmega(2, 4, 6, 8).content() == 2
        assert ZOmega.zero().content() == 0
        assert ZOmega(3, 0, 0, 5).content() == 1

    def test_max_bit_width(self):
        assert ZOmega.zero().max_bit_width() == 0
        assert ZOmega.from_int(255).max_bit_width() == 8
        assert ZOmega(-1024, 0, 0, 1).max_bit_width() == 11

    def test_is_real(self):
        assert ZOmega.sqrt2().is_real()
        assert ZOmega.from_int(5).is_real()
        assert not ZOmega.imag_unit().is_real()
        assert not ZOmega.omega().is_real()

    @given(zomegas)
    def test_iteration_yields_coefficients(self, x):
        assert tuple(x) == x.coefficients()


class TestIntSubclassCoercion:
    """Equal values share one representation: ``bool`` and other ``int``
    subclasses are stored as plain ``int`` at the public constructor."""

    def test_bool_coefficients_become_int(self):
        z = ZOmega(True, False, 0, -1)
        assert all(type(coefficient) is int for coefficient in z.coefficients())
        assert repr(z) == "ZOmega(1, 0, 0, -1)"
        assert z == ZOmega(1, 0, 0, -1)

    def test_int_subclass_coefficients_become_int(self):
        class Tagged(int):
            pass

        z = ZOmega(Tagged(3), 0, 0, 0)
        assert type(z.a) is int
        assert type((z * Tagged(2)).a) is int

    def test_non_int_still_rejected(self):
        with pytest.raises(TypeError):
            ZOmega(1.0, 0, 0, 0)
