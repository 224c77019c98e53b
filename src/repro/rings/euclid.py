r"""Euclidean division and greatest common divisors in :math:`\mathbb{Z}[\omega]`.

The paper's second normalisation scheme (Algorithm 3) divides QMDD edge
weights by a *greatest common divisor*, which requires
:math:`\mathbb{Z}[\omega]` to be a Euclidean ring.  It is: the absolute
field norm ``E`` (:meth:`repro.rings.zomega.ZOmega.euclidean_norm`) is a
Euclidean function, with the quotient obtained by performing the
division in :math:`\mathbb{Q}[\omega]` and rounding each coefficient to
the nearest integer (paper, Section IV-B; the remainder then satisfies
``E(r) <= (9/16) E(z2)``).

The rounding quotient occasionally needs adjustment in corner cases, so
:func:`euclidean_divmod` falls back to scanning the 3^4 nearest integer
quotients; norm-Euclideanity of :math:`\mathbb{Q}(\zeta_8)` guarantees a
remainder with strictly smaller norm exists.

:func:`euclidean_divmod` is the specification.  :func:`gcd_zomega` runs
the same remainder sequence on plain int quadruples (no ring objects
per step) and defers to :func:`euclidean_divmod` for the rare step
whose rounded quotient misses the norm bound.
"""

from __future__ import annotations

from itertools import product
from typing import Tuple

from repro.errors import ZeroDivisionRingError
from repro.rings.zomega import (
    Coefficients,
    ZOmega,
    _zomega,
    adjugate_coefficients,
    mul_coefficients,
)

__all__ = ["euclidean_divmod", "gcd_zomega", "gcd_many"]


def _round_ratio_half_even(numerator: int, denominator: int) -> int:
    """Round ``numerator / denominator`` (``denominator > 0``) to the
    nearest integer, ties to even -- pure integer arithmetic (the hot
    loop used to route through :class:`fractions.Fraction`, whose
    constructor runs an integer gcd per call)."""
    floor, remainder = divmod(numerator, denominator)
    doubled = remainder << 1
    if doubled > denominator:
        return floor + 1
    if doubled < denominator:
        return floor
    return floor + (floor & 1)


def _quotient_ratio(z1: ZOmega, z2: ZOmega) -> Tuple[Tuple[int, int, int, int], int]:
    """The exact coefficients of ``z1 / z2`` in ``Q[omega]`` as an
    integer coefficient quadruple over a positive common denominator."""
    u, v = z2.norm_zsqrt2()
    # (u - v*sqrt2) = v*w^3 + 0*w^2 - v*w + u
    numerator = z1 * z2.conj() * ZOmega(v, 0, -v, u)
    denominator = u * u - 2 * v * v
    if denominator < 0:
        numerator = -numerator
        denominator = -denominator
    return numerator.coefficients(), denominator


def euclidean_divmod(z1: ZOmega, z2: ZOmega) -> Tuple[ZOmega, ZOmega]:
    """Division with remainder: ``z1 = q * z2 + r`` with ``E(r) < E(z2)``.

    Raises :class:`ZeroDivisionRingError` for a zero divisor.
    """
    if z2.is_zero():
        raise ZeroDivisionRingError("Euclidean division by zero in Z[omega]")
    coefficients, denominator = _quotient_ratio(z1, z2)
    rounded = [_round_ratio_half_even(coefficient, denominator) for coefficient in coefficients]
    quotient = ZOmega(*rounded)
    remainder = z1 - quotient * z2
    bound = z2.euclidean_norm()
    if remainder.euclidean_norm() < bound:
        return (quotient, remainder)
    # Nearest-integer rounding can fail on the boundary of the fundamental
    # domain; scan the neighbouring lattice quotients (norm-Euclideanity
    # guarantees a suitable one exists).
    best: Tuple[ZOmega, ZOmega] = (quotient, remainder)
    best_norm = remainder.euclidean_norm()
    for offsets in product((-1, 0, 1), repeat=4):
        candidate = ZOmega(*(base + offset for base, offset in zip(rounded, offsets)))
        candidate_remainder = z1 - candidate * z2
        candidate_norm = candidate_remainder.euclidean_norm()
        if candidate_norm < best_norm:
            best = (candidate, candidate_remainder)
            best_norm = candidate_norm
            if best_norm < bound:
                break
    if best_norm >= bound:  # pragma: no cover - mathematically unreachable
        raise ArithmeticError(f"Euclidean step failed for {z1!r} / {z2!r}")
    return best


def gcd_zomega(z1: ZOmega, z2: ZOmega) -> ZOmega:
    """A greatest common divisor of two ``Z[omega]`` elements.

    GCDs are only defined up to multiplication by units; the caller
    (Algorithm 3's normalisation) applies its own unit-selection rules
    afterwards.  ``gcd(0, 0) = 0`` by convention.  The result is the
    last non-zero remainder of repeated :func:`euclidean_divmod`, i.e.
    always the same associate.
    """
    if z1.is_zero():
        return z2
    if z2.is_zero():
        return z1
    return _zomega(*_gcd_coefficients(z1.coefficients(), z2.coefficients()))


def _gcd_coefficients(x: Coefficients, y: Coefficients) -> Coefficients:
    """The Euclidean loop of :func:`gcd_zomega` on int quadruples.

    Each step is :func:`euclidean_divmod`'s: round the exact quotient
    ``x * conj(y) * (u - v sqrt2) / (u^2 - 2 v^2)`` to the nearest
    integers and keep the remainder if its norm is below ``E(y)``;
    otherwise the step is delegated to :func:`euclidean_divmod` itself.
    The remainder's relative norm ``(u, v)`` is carried into the next
    step, where it is the divisor's.
    """
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    u = a2 * a2 + b2 * b2 + c2 * c2 + d2 * d2
    v = a2 * b2 + b2 * c2 + c2 * d2 - a2 * d2
    while a2 or b2 or c2 or d2:
        denominator = u * u - 2 * v * v
        # x * adj(y) / denominator is the exact quotient x / y.
        p, q, r, s = adjugate_coefficients(a2, b2, c2, d2, u, v)
        p, q, r, s = mul_coefficients(a1, b1, c1, d1, p, q, r, s)
        if denominator < 0:
            p, q, r, s, denominator = -p, -q, -r, -s, -denominator
        qa = _round_ratio_half_even(p, denominator)
        qb = _round_ratio_half_even(q, denominator)
        qc = _round_ratio_half_even(r, denominator)
        qd = _round_ratio_half_even(s, denominator)
        p, q, r, s = mul_coefficients(qa, qb, qc, qd, a2, b2, c2, d2)
        p, q, r, s = a1 - p, b1 - q, c1 - r, d1 - s
        ru = p * p + q * q + r * r + s * s
        rv = p * q + q * r + r * s - p * s
        if abs(ru * ru - 2 * rv * rv) >= denominator:
            _, remainder = euclidean_divmod(_zomega(a1, b1, c1, d1), _zomega(a2, b2, c2, d2))
            p, q, r, s = remainder.coefficients()
            ru, rv = remainder.norm_zsqrt2()
        a1, b1, c1, d1, a2, b2, c2, d2 = a2, b2, c2, d2, p, q, r, s
        u, v = ru, rv
    return (a1, b1, c1, d1)


def gcd_many(*elements: ZOmega) -> ZOmega:
    """Iterated GCD of any number of elements (``0`` if all are zero)."""
    result = ZOmega.zero()
    for element in elements:
        result = gcd_zomega(result, element)
        if result.is_unit():
            break
    return result
