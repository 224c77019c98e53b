r"""The cyclotomic field :math:`\mathbb{Q}[\omega]` -- algebraic closure
of :math:`\mathbb{D}[\omega]` under division.

Algorithm 2 of the paper normalises QMDD nodes by *dividing* all
outgoing edge weights by the leftmost non-zero weight.  That division
generally leaves :math:`\mathbb{D}[\omega]` (odd integers have no dyadic
inverse), so the paper's first normalisation scheme "spends one
additional integer" and works in the field :math:`\mathbb{Q}[\omega]`:
every element has the unique shape

.. math::  \frac{\alpha}{e}, \qquad \alpha \in \mathbb{D}[\omega],\;
           e \in 2\mathbb{Z}+1,\; \gcd(\mathrm{content}(\alpha), e) = 1.

Internally we store ``(zeta, k, e)`` for the value
``zeta / (sqrt2**k * e)`` with

* ``zeta`` a :class:`~repro.rings.zomega.ZOmega` numerator with all
  ``sqrt2`` factors removed (Algorithm 1 canonical form),
* ``e`` an odd positive integer coprime to the numerator content.

Inverses follow the paper's recipe: for ``z`` with relative norm
``N(z) = z * conj(z) = u + v*sqrt2``,

.. math::  z^{-1} = \overline{z}\,(u - v\sqrt2)\,/\,(u^2 - 2v^2).
"""

from __future__ import annotations

from math import gcd as int_gcd  # repro-lint: allow[RL002] (integer gcd is exact)
from typing import Any, Tuple

from repro.errors import ZeroDivisionRingError
from repro.rings.domega import DOmega
from repro.rings.zomega import (
    ZOmega,
    _as_int,
    _new_object,
    _zomega,
    adjugate_coefficients,
    mul_coefficients,
    scale_coefficients,
    strip_sqrt2,
)

__all__ = ["QOmega"]

_SQRT2 = 1.4142135623730951  # repro-lint: allow[RL002] (to_complex conversion boundary)


class QOmega:
    """A canonical element ``zeta / (sqrt2**k * e)`` of ``Q[omega]``.

    Immutable and hashable; the constructor canonicalises arbitrary
    integer inputs (any sign/parity of ``e``).
    """

    __slots__ = ("zeta", "k", "e", "_key", "_hash")

    zeta: ZOmega
    k: int
    e: int
    _key: Tuple[int, int, int, int, int, int]
    _hash: "int | None"

    def __init__(self, zeta: ZOmega, k: int = 0, e: int = 1) -> None:
        # The public, validating constructor.  Field arithmetic builds
        # its results through the trusted :func:`_canonical`.
        if not isinstance(zeta, ZOmega):
            raise TypeError("numerator must be a ZOmega")
        if type(k) is not int:
            k = _as_int("k", k)
        if type(e) is not int:
            e = _as_int("e", e)
        if e == 0:
            raise ZeroDivisionRingError("zero denominator in Q[omega]")
        value = _canonical(zeta.a, zeta.b, zeta.c, zeta.d, k, e)
        object.__setattr__(self, "zeta", value.zeta)
        object.__setattr__(self, "k", value.k)
        object.__setattr__(self, "e", value.e)
        object.__setattr__(self, "_key", value._key)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QOmega instances are immutable")

    def __reduce__(self) -> "tuple[type, tuple[ZOmega, int, int]]":
        # Pickle via the constructor (the canonical form round-trips).
        return (type(self), (self.zeta, self.k, self.e))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls) -> "QOmega":
        return _ZERO

    @classmethod
    def one(cls) -> "QOmega":
        return _ONE

    @classmethod
    def from_int(cls, n: int) -> "QOmega":
        return cls(ZOmega.from_int(n), 0, 1)

    @classmethod
    def from_domega(cls, value: DOmega) -> "QOmega":
        """Embed a ``D[omega]`` element (denominator ``e = 1``)."""
        return cls(value.zeta, value.k, 1)

    @classmethod
    def from_rational(cls, numerator: int, denominator: int) -> "QOmega":
        return cls(ZOmega.from_int(numerator), 0, denominator)

    @classmethod
    def one_over_sqrt2(cls, power: int = 1) -> "QOmega":
        return cls(ZOmega.one(), power, 1)

    @classmethod
    def omega_power(cls, exponent: int) -> "QOmega":
        return cls(ZOmega.omega_power(exponent), 0, 1)

    @classmethod
    def imag_unit(cls) -> "QOmega":
        return cls(ZOmega.imag_unit(), 0, 1)

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

    def key(self) -> Tuple[int, int, int, int, int, int]:
        """Canonical hashable key ``(a, b, c, d, k, e)`` (precomputed)."""
        return self._key

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = QOmega.from_int(other)
        if not isinstance(other, QOmega):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(("QOmega",) + self._key)
            object.__setattr__(self, "_hash", cached)
        return cached

    def __bool__(self) -> bool:
        return not self.zeta.is_zero()

    def is_zero(self) -> bool:
        return self.zeta.is_zero()

    def is_one(self) -> bool:
        return self.k == 0 and self.e == 1 and self.zeta.is_one()

    def is_domega(self) -> bool:
        """True iff the value lies in the subring ``D[omega]`` (``e == 1``)."""
        return self.e == 1

    def to_domega(self) -> DOmega:
        """Convert to ``D[omega]``; raises if ``e != 1``."""
        if self.e != 1:
            from repro.errors import InexactDivisionError

            raise InexactDivisionError(f"{self!r} has odd denominator {self.e}, not in D[omega]")
        return DOmega(self.zeta, self.k)

    # ------------------------------------------------------------------
    # Field arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other: "QOmega") -> "QOmega":
        if not isinstance(other, QOmega):
            if not isinstance(other, int):
                return NotImplemented
            other = QOmega.from_int(other)
        a1, b1, c1, d1, k1, e1 = self._key
        a2, b2, c2, d2, k2, e2 = other._key
        k = max(k1, k2)
        a1, b1, c1, d1 = scale_coefficients(a1, b1, c1, d1, k - k1)
        a2, b2, c2, d2 = scale_coefficients(a2, b2, c2, d2, k - k2)
        if e1 == e2:
            lcm = e1
        else:
            lcm = e1 * e2 // int_gcd(e1, e2)
            f1, f2 = lcm // e1, lcm // e2
            a1, b1, c1, d1 = a1 * f1, b1 * f1, c1 * f1, d1 * f1
            a2, b2, c2, d2 = a2 * f2, b2 * f2, c2 * f2, d2 * f2
        return _canonical(a1 + a2, b1 + b2, c1 + c2, d1 + d2, k, lcm)

    __radd__ = __add__

    def __neg__(self) -> "QOmega":
        # Negation keeps content and parity pattern: still canonical.
        return _qomega(-self.zeta, self.k, self.e)

    def __sub__(self, other: "QOmega") -> "QOmega":
        if isinstance(other, int):
            other = QOmega.from_int(other)
        if not isinstance(other, QOmega):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "QOmega":
        if isinstance(other, int):
            return QOmega.from_int(other) - self
        return NotImplemented

    def __mul__(self, other: "QOmega") -> "QOmega":
        if type(other) is not QOmega:
            if isinstance(other, int):
                factor = int(other)
                a, b, c, d, k, e = self._key
                return _canonical(a * factor, b * factor, c * factor, d * factor, k, e)
            if not isinstance(other, QOmega):
                return NotImplemented
        a1, b1, c1, d1, k1, e1 = self._key
        a2, b2, c2, d2, k2, e2 = other._key
        a, b, c, d = mul_coefficients(a1, b1, c1, d1, a2, b2, c2, d2)
        return _canonical(a, b, c, d, k1 + k2, e1 * e2)

    __rmul__ = __mul__

    def inverse(self) -> "QOmega":
        """The multiplicative inverse (paper, Section IV-B / Example 8)."""
        if self.is_zero():
            raise ZeroDivisionRingError("inverse of zero in Q[omega]")
        a, b, c, d, k, e = self._key
        u, v = self.zeta.norm_zsqrt2()
        a, b, c, d = adjugate_coefficients(a, b, c, d, u, v)
        euclidean = u * u - 2 * v * v  # = E(zeta) up to sign, never zero
        # 1/self = e * sqrt2**k * conj(zeta) * (u - v sqrt2) / euclidean
        return _canonical(a * e, b * e, c * e, d * e, -k, euclidean)

    def __truediv__(self, other: "QOmega") -> "QOmega":
        """``self * other.inverse()`` fused into one canonicalisation."""
        if not isinstance(other, QOmega):
            if not isinstance(other, int):
                return NotImplemented
            other = QOmega.from_int(other)
        if other.is_zero():
            raise ZeroDivisionRingError("inverse of zero in Q[omega]")
        a1, b1, c1, d1, k1, e1 = self._key
        a2, b2, c2, d2, k2, e2 = other._key
        u, v = other.zeta.norm_zsqrt2()
        a2, b2, c2, d2 = adjugate_coefficients(a2, b2, c2, d2, u, v)
        a, b, c, d = mul_coefficients(a1, b1, c1, d1, a2, b2, c2, d2)
        return _canonical(a * e2, b * e2, c * e2, d * e2, k1 - k2, e1 * (u * u - 2 * v * v))

    def __pow__(self, exponent: int) -> "QOmega":
        if not isinstance(exponent, int):
            raise ValueError("exponent must be int")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = _ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def conj(self) -> "QOmega":
        """Complex conjugation."""
        # Conjugation keeps content and parity pattern: still canonical.
        return _qomega(self.zeta.conj(), self.k, self.e)

    def abs_squared(self) -> "QOmega":
        """``|alpha|^2`` as a real ``Q[omega]`` element."""
        return self * self.conj()

    # ------------------------------------------------------------------
    # Evaluation and metrics
    # ------------------------------------------------------------------

    def to_complex(self) -> complex:
        """Evaluate as a ``complex`` double (display and metrics only).

        For very large coefficients the naive float conversion can
        overflow, so the numerator and the scale are combined through
        integer ratios before the final float step.
        """
        a, b, c, d = self.zeta.coefficients()
        # value = [d + (c-a)/sqrt2] + i[b + (c+a)/sqrt2], all over sqrt2^k e
        magnitude = max(abs(a), abs(b), abs(c), abs(d), 1)
        if magnitude.bit_length() > 900 or abs(self.k) > 1800 or self.e.bit_length() > 900:
            return self._to_complex_scaled()
        inv = 1.0 / _SQRT2  # repro-lint: allow[RL002] (to_complex conversion boundary)
        re = float(d) + (float(c) - float(a)) * inv
        im = float(b) + (float(c) + float(a)) * inv
        scale = _SQRT2 ** (-self.k) / float(self.e)
        return complex(re * scale, im * scale)

    def _to_complex_scaled(self) -> complex:
        """Overflow-safe conversion using integer ratio reduction."""
        from fractions import Fraction

        a, b, c, d = self.zeta.coefficients()
        half_k, odd_k = divmod(self.k, 2)
        # denominator = 2**half_k * sqrt2**odd_k * e
        base = Fraction(1, 1)
        if half_k >= 0:
            base = Fraction(1, (1 << half_k) * self.e)
        else:
            base = Fraction(1 << (-half_k), self.e)
        sqrt_scale = _SQRT2 ** (-odd_k)
        re = (Fraction(d) * base, Fraction(c - a) * base)
        im = (Fraction(b) * base, Fraction(c + a) * base)
        real = float(re[0]) + float(re[1]) / _SQRT2
        imag = float(im[0]) + float(im[1]) / _SQRT2
        return complex(real * sqrt_scale, imag * sqrt_scale)

    def max_bit_width(self) -> int:
        """Largest bit-width over numerator coefficients and denominator.

        The evaluation harness tracks this to reproduce the paper's
        observation that the *denominators* dominate the growth under
        the Q[omega] normalisation scheme (Section V-B).
        """
        return max(self.zeta.max_bit_width(), self.e.bit_length())

    def denominator_bit_width(self) -> int:
        return self.e.bit_length()

    def __repr__(self) -> str:
        a, b, c, d = self.zeta.coefficients()
        return f"QOmega(ZOmega({a}, {b}, {c}, {d}), k={self.k}, e={self.e})"

    def __str__(self) -> str:
        text = str(self.zeta)
        if self.k or self.e != 1:
            denominator = []
            if self.k:
                denominator.append(f"sqrt2^{self.k}")
            if self.e != 1:
                denominator.append(str(self.e))
            text = f"({text}) / ({' * '.join(denominator)})"
        return text


_set_zeta: Any = getattr(QOmega, "zeta").__set__
_set_k: Any = getattr(QOmega, "k").__set__
_set_e: Any = getattr(QOmega, "e").__set__
_set_key: Any = getattr(QOmega, "_key").__set__
_set_hash: Any = getattr(QOmega, "_hash").__set__


def _qomega(zeta: ZOmega, k: int, e: int) -> QOmega:
    """The trusted internal constructor for an already canonical
    ``zeta / (sqrt2**k * e)``: no validation, no reduction."""
    element: QOmega = _new_object(QOmega)
    _set_zeta(element, zeta)
    _set_k(element, k)
    _set_e(element, e)
    _set_key(element, (zeta.a, zeta.b, zeta.c, zeta.d, k, e))
    _set_hash(element, None)
    return element


def _canonical(a: int, b: int, c: int, d: int, k: int, e: int) -> QOmega:
    """``(a w^3 + b w^2 + c w + d) / (sqrt2**k * e)`` in canonical form
    (``e != 0``), computed on plain ints."""
    if not (a or b or c or d):
        return _ZERO
    if e < 0:
        a, b, c, d, e = -a, -b, -c, -d, -e
    # Fold even denominator factors into the sqrt2 exponent.
    if not e & 1:
        twos = (e & -e).bit_length() - 1
        e >>= twos
        k += 2 * twos
    # Remove sqrt2 factors from the numerator (Algorithm 1).
    a, b, c, d, removed = strip_sqrt2(a, b, c, d)
    k -= removed
    # Reduce the odd denominator against the numerator content:
    # gcd(e, a, b, c, d), stopping as soon as it reaches 1.
    if e != 1:
        common = e
        for coefficient in (a, b, c, d):
            common = int_gcd(common, coefficient)
            if common == 1:
                break
        else:
            a, b, c, d, e = a // common, b // common, c // common, d // common, e // common
    return _qomega(_zomega(a, b, c, d), k, e)


_ZERO = _qomega(ZOmega.zero(), 0, 1)
_ONE = _qomega(ZOmega.one(), 0, 1)
