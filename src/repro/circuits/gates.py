r"""Quantum gate definitions with exact and numeric matrices.

Every gate carries its 2x2 base matrix twice:

* ``exact`` -- the entries as :class:`~repro.rings.domega.DOmega` values,
  available exactly when the gate is a Clifford+T-expressible operation
  (entries in ``D[omega]``, Giles/Selinger [8] as cited in the paper);
* ``matrix`` -- IEEE-754 complex entries, always available.

The algebraic number systems consume ``exact`` and raise on gates that
only have a numeric matrix (arbitrary rotations); those must first be
compiled to Clifford+T via :mod:`repro.approx` -- mirroring how the
paper preprocessed the GSE benchmark with Quipper.

Phase conventions: ``T = diag(1, omega)``, ``S = T^2``, ``Z = S^2``
exactly as in the paper's Example 2.  ``P(theta) = diag(1, e^{i theta})``
is exact whenever ``theta`` is a multiple of ``pi/4``; the rotation
gates ``RX/RY/RZ`` carry the usual ``e^{-i theta/2}`` convention and are
numeric-only (their global phase ``e^{i pi/8}`` for ``theta = pi/4``
lies outside ``D[omega]``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import CircuitError
from repro.rings.domega import DOmega

__all__ = [
    "GateDef",
    "H",
    "X",
    "Y",
    "Z",
    "S",
    "SDG",
    "T",
    "TDG",
    "SQRT_X",
    "identity_gate",
    "phase_gate",
    "rx_gate",
    "ry_gate",
    "rz_gate",
    "u_gate",
    "STANDARD_GATES",
]

_INV_SQRT2 = 1 / math.sqrt(2)


def _check_angles(name: str, *angles: float) -> None:
    """Raise :class:`CircuitError` unless every angle is finite."""
    if not all(math.isfinite(angle) for angle in angles):
        raise CircuitError(f"gate {name!r} needs finite angles, got {angles!r}")


@dataclass(frozen=True)
class GateDef:
    """An (uncontrolled) single-qubit gate.

    Attributes
    ----------
    name:
        Lower-case identifier, also used for QASM serialisation.
    matrix:
        Row-major numeric entries ``(u00, u01, u10, u11)``.
    exact:
        The same entries in ``D[omega]``, or ``None`` for gates outside
        the Clifford+T-exact set.
    params:
        Real gate parameters (rotation angles), for display/QASM.
    """

    name: str
    matrix: Tuple[complex, complex, complex, complex]
    exact: Optional[Tuple[DOmega, DOmega, DOmega, DOmega]] = None
    params: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not all(cmath.isfinite(entry) for entry in self.matrix):
            raise CircuitError(f"gate {self.name!r} has a non-finite matrix entry: {self.matrix!r}")
        _check_angles(self.name, *self.params)

    @property
    def is_exactly_representable(self) -> bool:
        """True iff the gate is Clifford+T-exact (D[omega] entries)."""
        return self.exact is not None

    def dagger(self) -> "GateDef":
        """The adjoint gate (conjugate transpose)."""
        u00, u01, u10, u11 = self.matrix
        matrix = (
            u00.conjugate(),
            u10.conjugate(),
            u01.conjugate(),
            u11.conjugate(),
        )
        exact = None
        if self.exact is not None:
            e00, e01, e10, e11 = self.exact
            exact = (e00.conj(), e10.conj(), e01.conj(), e11.conj())
        params = tuple(-p for p in self.params)
        if self.name in ("p", "rx", "ry", "rz"):
            # Rotation families are closed under adjoints: the dagger is
            # the same gate with the negated angle.
            name = self.name
        elif matrix == self.matrix:
            name = self.name  # self-adjoint gates keep their name
        elif self.name.endswith("dg"):
            name = self.name[:-2]
        else:
            name = self.name + "dg"
        return GateDef(name=name, matrix=matrix, exact=exact, params=params)

    def is_unitary(self, tolerance: float = 1e-9) -> bool:
        """Numeric unitarity check ``U U^dagger = I``."""
        u00, u01, u10, u11 = self.matrix
        rows = (
            abs(u00) ** 2 + abs(u01) ** 2,
            abs(u10) ** 2 + abs(u11) ** 2,
        )
        cross = u00 * u10.conjugate() + u01 * u11.conjugate()
        return (
            abs(rows[0] - 1) < tolerance
            and abs(rows[1] - 1) < tolerance
            and abs(cross) < tolerance
        )

    def __str__(self) -> str:
        if self.params:
            args = ", ".join(f"{p:.6g}" for p in self.params)
            return f"{self.name}({args})"
        return self.name


def _exact(a, b, c, d) -> Tuple[DOmega, DOmega, DOmega, DOmega]:
    return (a, b, c, d)


_ONE = DOmega.one()
_ZERO = DOmega.zero()
_MINUS_ONE = DOmega.from_int(-1)
_I = DOmega.imag_unit()
_MINUS_I = -DOmega.imag_unit()
_INV_SQRT2_EXACT = DOmega.one_over_sqrt2()
_OMEGA = DOmega.omega_power(1)
_OMEGA_CONJ = DOmega.omega_power(7)


#: Hadamard (paper Example 2).
H = GateDef(
    name="h",
    matrix=(_INV_SQRT2, _INV_SQRT2, _INV_SQRT2, -_INV_SQRT2),
    exact=_exact(_INV_SQRT2_EXACT, _INV_SQRT2_EXACT, _INV_SQRT2_EXACT, -_INV_SQRT2_EXACT),
)

#: NOT / Pauli-X (paper Example 2).
X = GateDef(name="x", matrix=(0, 1, 1, 0), exact=_exact(_ZERO, _ONE, _ONE, _ZERO))

#: Pauli-Y.
Y = GateDef(name="y", matrix=(0, -1j, 1j, 0), exact=_exact(_ZERO, _MINUS_I, _I, _ZERO))

#: Pauli-Z = S^2 (paper Example 2).
Z = GateDef(name="z", matrix=(1, 0, 0, -1), exact=_exact(_ONE, _ZERO, _ZERO, _MINUS_ONE))

#: Phase gate S = T^2 (paper Example 2).
S = GateDef(name="s", matrix=(1, 0, 0, 1j), exact=_exact(_ONE, _ZERO, _ZERO, _I))

#: Adjoint phase gate.
SDG = GateDef(name="sdg", matrix=(1, 0, 0, -1j), exact=_exact(_ONE, _ZERO, _ZERO, _MINUS_I))

#: pi/4 gate T = diag(1, omega) (paper Example 2).
T = GateDef(
    name="t",
    matrix=(1, 0, 0, cmath.exp(1j * math.pi / 4)),
    exact=_exact(_ONE, _ZERO, _ZERO, _OMEGA),
)

#: Adjoint T gate.
TDG = GateDef(
    name="tdg",
    matrix=(1, 0, 0, cmath.exp(-1j * math.pi / 4)),
    exact=_exact(_ONE, _ZERO, _ZERO, _OMEGA_CONJ),
)

#: sqrt(X) = H S H -- Clifford, hence exact: 1/2 [[1+i, 1-i], [1-i, 1+i]].
_HALF_1PI = DOmega.from_coefficients(0, 1, 0, 1, k=2)  # (1+i)/2
_HALF_1MI = DOmega.from_coefficients(0, -1, 0, 1, k=2)  # (1-i)/2
SQRT_X = GateDef(
    name="sx",
    matrix=(0.5 + 0.5j, 0.5 - 0.5j, 0.5 - 0.5j, 0.5 + 0.5j),
    exact=_exact(_HALF_1PI, _HALF_1MI, _HALF_1MI, _HALF_1PI),
)


def identity_gate() -> GateDef:
    """The single-qubit identity (useful for tests and padding)."""
    return GateDef(name="id", matrix=(1, 0, 0, 1), exact=_exact(_ONE, _ZERO, _ZERO, _ONE))


def phase_gate(theta: float) -> GateDef:
    """``P(theta) = diag(1, e^{i theta})``.

    Exact (``D[omega]`` entries) iff ``theta`` is a multiple of
    ``pi/4`` -- then ``e^{i theta}`` is a power of ``omega``.
    """
    _check_angles("p", theta)
    exact = None
    ratio = theta / (math.pi / 4)
    nearest = round(ratio)
    if abs(ratio - nearest) < 1e-12:
        exact = _exact(_ONE, _ZERO, _ZERO, DOmega.omega_power(nearest % 8))
        theta = nearest * math.pi / 4
    return GateDef(
        name="p",
        matrix=(1, 0, 0, cmath.exp(1j * theta)),
        exact=exact,
        params=(theta,),
    )


def rz_gate(theta: float) -> GateDef:
    """``RZ(theta) = diag(e^{-i theta/2}, e^{i theta/2})`` (numeric only).

    Even for ``theta = pi/4`` the entries involve ``e^{i pi/8}`` which is
    outside ``D[omega]``; algebraic simulation requires a Clifford+T
    approximation (:mod:`repro.approx`), exactly as the paper's GSE
    benchmark required Quipper preprocessing.
    """
    _check_angles("rz", theta)
    half = theta / 2.0
    return GateDef(
        name="rz",
        matrix=(cmath.exp(-1j * half), 0, 0, cmath.exp(1j * half)),
        params=(theta,),
    )


def ry_gate(theta: float) -> GateDef:
    """``RY(theta)`` rotation (numeric only in general)."""
    _check_angles("ry", theta)
    half = theta / 2.0
    return GateDef(
        name="ry",
        matrix=(math.cos(half), -math.sin(half), math.sin(half), math.cos(half)),
        params=(theta,),
    )


def rx_gate(theta: float) -> GateDef:
    """``RX(theta)`` rotation (numeric only in general)."""
    _check_angles("rx", theta)
    half = theta / 2.0
    return GateDef(
        name="rx",
        matrix=(
            math.cos(half),
            -1j * math.sin(half),
            -1j * math.sin(half),
            math.cos(half),
        ),
        params=(theta,),
    )


def u_gate(theta: float, phi: float, lam: float) -> GateDef:
    """The generic single-qubit gate ``U(theta, phi, lambda)`` (numeric)."""
    _check_angles("u", theta, phi, lam)
    return GateDef(
        name="u",
        matrix=(
            math.cos(theta / 2),
            -cmath.exp(1j * lam) * math.sin(theta / 2),
            cmath.exp(1j * phi) * math.sin(theta / 2),
            cmath.exp(1j * (phi + lam)) * math.cos(theta / 2),
        ),
        params=(theta, phi, lam),
    )


#: Named fixed gates for QASM parsing and convenience lookup.
STANDARD_GATES = {
    gate.name: gate
    for gate in (H, X, Y, Z, S, SDG, T, TDG, SQRT_X, identity_gate())
}
