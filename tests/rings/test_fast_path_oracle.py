"""Differential oracle for the ring layer's fast paths.

The arithmetic builds its results with trusted constructors on plain
int quadruples.  Each property here recomputes the result from the
textbook formulas -- a reference convolution on ints and a reference
canonicalisation written out below, independent of the library's
kernels -- and demands the *same canonical key*, not just an equal
value.  Coefficients go up to about 300 bits, the widths GSE reaches.
"""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.rings.euclid as euclid
from repro.rings.domega import DOmega
from repro.rings.euclid import euclidean_divmod, gcd_zomega
from repro.rings.qomega import QOmega
from repro.rings.zomega import ZOmega

wide_ints = st.integers(min_value=-(2**300), max_value=2**300)
small_ints = st.integers(min_value=-40, max_value=40)
coefficients = st.one_of(small_ints, wide_ints)
exponents = st.integers(min_value=-12, max_value=12)
denominators = st.integers(min_value=1, max_value=2**64).map(lambda e: 2 * e - 1)

zomegas = st.builds(ZOmega, coefficients, coefficients, coefficients, coefficients)
small_zomegas = st.builds(ZOmega, small_ints, small_ints, small_ints, small_ints)
domegas = st.builds(DOmega, zomegas, exponents)
qomegas = st.builds(QOmega, zomegas, exponents, denominators)
nonzero_qomegas = qomegas.filter(bool)


def reference_mul(x, y):
    """``x * y`` for coefficient quadruples, from ``w^4 = -1``."""
    # Index i holds the coefficient of w^(3 - i).
    product = [0] * 8
    for i, left in enumerate(x):
        for j, right in enumerate(y):
            product[(3 - i) + (3 - j)] += left * right
    low = [product[p] - product[p + 4] for p in range(4)]  # w^p, p = 0..3
    return (low[3], low[2], low[1], low[0])


def reference_domega_key(coefficients, k):
    """Algorithm 1: divide out sqrt2 while ``a = c, b = d (mod 2)``."""
    a, b, c, d = coefficients
    if a == b == c == d == 0:
        return (0, 0, 0, 0, 0)
    while (a - c) % 2 == 0 and (b - d) % 2 == 0:
        a, b, c, d = (b - d) // 2, (c + a) // 2, (b + d) // 2, (c - a) // 2
        k -= 1
    return (a, b, c, d, k)


def reference_qomega_key(coefficients, k, e):
    """Odd positive ``e`` coprime to the content, no sqrt2 factor left."""
    a, b, c, d = coefficients
    if a == b == c == d == 0:
        return (0, 0, 0, 0, 0, 1)
    if e < 0:
        a, b, c, d, e = -a, -b, -c, -d, -e
    while e % 2 == 0:
        e //= 2
        k += 2
    a, b, c, d, k = reference_domega_key((a, b, c, d), k)
    common = gcd(gcd(gcd(abs(a), abs(b)), gcd(abs(c), abs(d))), e)
    return (a // common, b // common, c // common, d // common, k, e // common)


def assert_plain_ints(key):
    assert all(type(value) is int for value in key), key


def spec_gcd(z1, z2):
    """The specification: iterate :func:`euclidean_divmod`."""
    if z1.is_zero():
        return z2
    while not z2.is_zero():
        _, remainder = euclidean_divmod(z1, z2)
        z1, z2 = z2, remainder
    return z1


class TestTupleEuclid:
    @settings(deadline=None, max_examples=150)
    @given(zomegas, zomegas)
    def test_same_associate_as_divmod_loop(self, z1, z2):
        assert gcd_zomega(z1, z2).coefficients() == spec_gcd(z1, z2).coefficients()

    @settings(deadline=None, max_examples=100)
    @given(small_zomegas.filter(bool), zomegas, zomegas)
    def test_same_associate_with_common_factor(self, factor, x, y):
        z1, z2 = factor * x, factor * y
        assert gcd_zomega(z1, z2).coefficients() == spec_gcd(z1, z2).coefficients()

    @settings(deadline=None, max_examples=60)
    @given(small_zomegas, small_zomegas)
    def test_fallback_step_matches_divmod(self, z1, z2):
        # Floor rounding often misses the norm bound, so the tuple loop
        # hands those steps to euclidean_divmod's neighbour scan.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(euclid, "_round_ratio_half_even", lambda num, den: num // den)
            assert gcd_zomega(z1, z2).coefficients() == spec_gcd(z1, z2).coefficients()


class TestTrustedArithmetic:
    @settings(deadline=None)
    @given(zomegas, zomegas)
    def test_zomega_mul(self, x, y):
        product = x * y
        assert product.coefficients() == reference_mul(x.coefficients(), y.coefficients())
        assert_plain_ints(product.coefficients())

    @settings(deadline=None)
    @given(domegas, domegas)
    def test_domega_mul(self, x, y):
        expected = reference_domega_key(
            reference_mul(x.zeta.coefficients(), y.zeta.coefficients()), x.k + y.k
        )
        assert (x * y).key() == expected
        assert_plain_ints((x * y).key())

    @settings(deadline=None)
    @given(domegas, domegas)
    def test_domega_add(self, x, y):
        k = max(x.k, y.k)
        # Bring both numerators to the common exponent k; sqrt2 = w - w^3.
        scaled = []
        for value in (x, y):
            coefficients = value.zeta.coefficients()
            for _ in range(k - value.k):
                coefficients = reference_mul(coefficients, (-1, 0, 1, 0))
            scaled.append(coefficients)
        total = tuple(left + right for left, right in zip(*scaled))
        assert (x + y).key() == reference_domega_key(total, k)

    @settings(deadline=None)
    @given(domegas)
    def test_domega_conj_and_neg(self, x):
        a, b, c, d = x.zeta.coefficients()
        assert x.conj().key() == reference_domega_key((-c, -b, -a, d), x.k)
        assert (-x).key() == reference_domega_key((-a, -b, -c, -d), x.k)

    @settings(deadline=None)
    @given(qomegas, qomegas)
    def test_qomega_mul(self, x, y):
        expected = reference_qomega_key(
            reference_mul(x.zeta.coefficients(), y.zeta.coefficients()), x.k + y.k, x.e * y.e
        )
        assert (x * y).key() == expected
        assert_plain_ints((x * y).key())

    @settings(deadline=None)
    @given(nonzero_qomegas)
    def test_qomega_inverse(self, x):
        # 1/x = e * sqrt2**k * conj(zeta) * (u - v sqrt2) / (u^2 - 2 v^2).
        a, b, c, d = x.zeta.coefficients()
        u, v = x.zeta.norm_zsqrt2()
        numerator = reference_mul((-c, -b, -a, d), (v, 0, -v, u))
        numerator = tuple(coefficient * x.e for coefficient in numerator)
        assert x.inverse().key() == reference_qomega_key(numerator, -x.k, u * u - 2 * v * v)
        assert (x * x.inverse()).is_one()


class TestFusedDivision:
    @settings(deadline=None)
    @given(qomegas, nonzero_qomegas)
    def test_matches_multiply_by_inverse(self, x, y):
        assert (x / y).key() == (x * y.inverse()).key()

    @settings(deadline=None)
    @given(nonzero_qomegas)
    def test_self_division_is_one(self, x):
        assert (x / x).key() == QOmega.one().key()

    @settings(deadline=None)
    @given(st.integers(0, 7), st.integers(0, 12), exponents)
    def test_unit_inverse(self, rotation, power, k):
        # Units of D[omega]: omega^j * (omega + 1)^m / sqrt2^k.
        unit = DOmega(ZOmega.omega_power(rotation) * ZOmega(0, 0, 1, 1) ** power, k)
        assert (unit * unit.unit_inverse()).key() == DOmega.one().key()
