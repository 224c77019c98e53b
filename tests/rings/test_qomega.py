"""Tests for the cyclotomic field Q[omega] (paper Section IV-B, option 1)."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InexactDivisionError, ZeroDivisionRingError
from repro.rings.domega import DOmega
from repro.rings.qomega import QOmega
from repro.rings.zomega import ZOmega

small_ints = st.integers(min_value=-15, max_value=15)
exponents = st.integers(min_value=-4, max_value=4)
denominators = st.integers(min_value=1, max_value=30)
qomegas = st.builds(
    lambda a, b, c, d, k, e: QOmega(ZOmega(a, b, c, d), k, e),
    small_ints, small_ints, small_ints, small_ints, exponents, denominators,
)
nonzero = qomegas.filter(bool)


class TestCanonicalForm:
    def test_zero(self):
        assert QOmega(ZOmega.zero(), 3, 7).key() == (0, 0, 0, 0, 0, 1)

    def test_negative_denominator_folds_sign(self):
        x = QOmega(ZOmega.one(), 0, -3)
        assert x.e == 3
        assert x.zeta == ZOmega.from_int(-1)

    def test_even_denominator_folds_into_k(self):
        # 1/6 = 1/(sqrt2^2 * 3)
        x = QOmega(ZOmega.one(), 0, 6)
        assert x.e == 3
        assert x.k == 2

    def test_content_reduction(self):
        # 3/3 = 1
        assert QOmega(ZOmega.from_int(3), 0, 3).is_one()
        # 6/9 = 2/3
        x = QOmega(ZOmega.from_int(6), 0, 9)
        assert x.zeta == ZOmega.from_int(1) and x.e == 3 and x.k == -2

    @given(qomegas)
    def test_canonical_invariants(self, x):
        assert x.e > 0
        assert x.e % 2 == 1
        if x.is_zero():
            assert x.key() == (0, 0, 0, 0, 0, 1)
        else:
            assert not x.zeta.divisible_by_sqrt2()
            assert math.gcd(x.zeta.content(), x.e) == 1

    def test_zero_denominator_raises(self):
        with pytest.raises(ZeroDivisionRingError):
            QOmega(ZOmega.one(), 0, 0)

    @given(qomegas, st.integers(min_value=1, max_value=9).filter(lambda n: n % 2 == 1))
    def test_scaling_invariance(self, x, scale):
        assert QOmega(x.zeta * scale, x.k, x.e * scale) == x


class TestFieldArithmetic:
    @given(qomegas, qomegas)
    def test_add_matches_complex(self, x, y):
        assert cmath.isclose(
            (x + y).to_complex(), x.to_complex() + y.to_complex(),
            abs_tol=1e-5, rel_tol=1e-6,
        )

    @given(qomegas, qomegas)
    def test_mul_matches_complex(self, x, y):
        assert cmath.isclose(
            (x * y).to_complex(), x.to_complex() * y.to_complex(),
            abs_tol=1e-5, rel_tol=1e-6,
        )

    @given(qomegas, qomegas, qomegas)
    @settings(max_examples=60)
    def test_field_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z

    @given(nonzero)
    def test_inverse(self, x):
        assert x * x.inverse() == QOmega.one()

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionRingError):
            QOmega.zero().inverse()

    def test_paper_example_8(self):
        # z = 1 + i sqrt2 has N(z) = 3 and z^{-1} = (1 - i sqrt2)/3.
        z = QOmega.from_int(1) + QOmega.imag_unit() * QOmega.one_over_sqrt2(-1)
        inverse = z.inverse()
        expected = (QOmega.from_int(1) - QOmega.imag_unit() * QOmega.one_over_sqrt2(-1)) / QOmega.from_int(3)
        assert inverse == expected
        assert inverse.e == 3

    @given(nonzero, nonzero)
    def test_division(self, x, y):
        assert (x / y) * y == x

    @given(nonzero)
    def test_negative_powers(self, x):
        assert x**-2 == (x.inverse()) ** 2
        assert x**0 == QOmega.one()

    @given(qomegas)
    def test_conj_multiplicativity(self, x):
        assert x.conj().conj() == x
        squared = x.abs_squared()
        value = squared.to_complex()
        assert abs(value.imag) < 1e-6 and value.real >= -1e-9


class TestConversions:
    @given(
        st.builds(DOmega.from_coefficients, small_ints, small_ints, small_ints, small_ints, exponents)
    )
    def test_domega_roundtrip(self, d):
        q = QOmega.from_domega(d)
        assert q.is_domega()
        assert q.to_domega() == d

    def test_non_dyadic_to_domega_raises(self):
        third = QOmega.from_rational(1, 3)
        assert not third.is_domega()
        with pytest.raises(InexactDivisionError):
            third.to_domega()

    def test_from_rational(self):
        assert QOmega.from_rational(2, 4) == QOmega(ZOmega.one(), 2, 1)

    def test_to_complex_huge_values_do_not_overflow(self):
        big = QOmega(ZOmega.from_int(1), -4000, 1)  # sqrt2^4000 / e cancels below
        ratio = big * QOmega(ZOmega.from_int(1), 4000, 3)
        assert cmath.isclose(ratio.to_complex(), 1 / 3, rel_tol=1e-9)
        # A genuinely huge-coefficient value over a huge denominator:
        value = QOmega(ZOmega.from_int(3**600 + 1), 0, 3**600)
        assert cmath.isclose(value.to_complex(), 1.0, rel_tol=1e-9)

    def test_bit_width_metrics(self):
        x = QOmega(ZOmega.from_int(5), 0, 257)
        assert x.denominator_bit_width() == 9
        assert x.max_bit_width() == 9


class TestDisplay:
    def test_repr_round_trips(self):
        x = QOmega(ZOmega(1, -2, 3, -4), 3, 5)
        assert eval(repr(x)) == x

    def test_str_contains_denominator(self):
        text = str(QOmega(ZOmega.one(), 1, 3))
        assert "sqrt2^1" in text and "3" in text


class TestIntSubclassCoercion:
    def test_bool_exponent_and_denominator_become_int(self):
        value = QOmega(ZOmega(0, 0, 1, 0), True, True)
        assert value.key() == (0, 0, 1, 0, 1, 1)
        assert all(type(entry) is int for entry in value.key())
        assert repr(value) == "QOmega(ZOmega(0, 0, 1, 0), k=1, e=1)"

    def test_non_int_denominator_rejected(self):
        with pytest.raises(TypeError):
            QOmega(ZOmega.one(), 0, 3.0)
