r"""The tolerance-based complex value table of numerical QMDD packages.

State-of-the-art QMDD implementations (paper Section III) store every
edge weight in a global *complex number table*.  When a computation
produces a new value, the table is searched for an existing entry within
a configurable tolerance ``eps`` (component-wise on real and imaginary
part); if one is found, the new value is *identified* with the stored
entry.  This is what lets the package detect redundancies despite
floating-point round-off -- and simultaneously what destroys information
when ``eps`` is too large (paper Example 4/5).

Key behavioural details reproduced here:

* ``eps = 0`` means bit-exact comparison -- two results that differ in
  the last mantissa bit create *distinct* entries, so structurally equal
  sub-matrices are no longer shared (the exponential blow-up of
  Figs. 3a/4a/5a for high accuracy).
* The table is seeded with exact anchors (0 and 1; more generally every
  previously stored value acts as an anchor).  With a large ``eps``,
  small genuine amplitudes are *snapped* onto the 0 entry -- the
  information-loss mechanism that produces the all-zero state vector of
  Example 5 / Fig. 2.
* Lookup is O(1).  An exact dictionary of stored values answers first
  (for every ``eps``; at ``eps = 0`` it is the whole table).  Otherwise
  the tolerance search hashes ``round(value / grid)`` on a ``grid =
  2 eps`` lattice and scans only the 2 or 3 buckets per axis that can
  hold a match; values of magnitude at least ``eps * 2**54`` on both
  axes can only match bit-equal entries and skip the search.  The
  result is the entry the full nine-bucket scan would return (see
  :meth:`ComplexTable._search` and ``docs/ALGORITHMS.md``).
* Non-finite values are refused with :class:`~repro.errors.DDError`.
"""

from __future__ import annotations

import struct
from cmath import isfinite
from math import inf
from typing import Dict, List, Optional, Tuple

from repro.errors import DDError

__all__ = ["ComplexTable", "ComplexEntry"]

#: Probes with both components at least ``eps * 2**54`` are exact-only.
_EXACT_ONLY_SCALE = 2.0**54
#: Per-unit slack of the rounded bucket quotient (see ComplexTable._search).
_TIE_MARGIN = 2.0**-51


def _axis_buckets(q: float) -> Tuple[int, Tuple[int, ...]]:
    """The bucket ``round(q)`` of one axis and, ascending, the buckets of
    that axis that can hold a match (see :meth:`ComplexTable._search`)."""
    k = round(q)
    f = q - k
    margin = (abs(q) + 1.0) * _TIE_MARGIN
    if f > margin:
        return k, (k, k + 1)
    if f < -margin:
        return k, (k - 1, k)
    return k, (k - 1, k, k + 1)


def _round_to_single(value: complex) -> complex:
    """Round both components through IEEE-754 binary32."""
    re = struct.unpack("f", struct.pack("f", value.real))[0]
    im = struct.unpack("f", struct.pack("f", value.imag))[0]
    return complex(re, im)


class ComplexEntry:
    """An interned complex value.

    Identity (``is``) of entries encodes tolerance-equality of values:
    the whole point of the table is that two values within ``eps`` of
    each other are represented by the *same* entry object, making
    edge-weight comparison O(1) and tolerance-transitive within a run.
    """

    __slots__ = ("value", "index")

    def __init__(self, value: complex, index: int) -> None:
        self.value = value
        self.index = index

    def __repr__(self) -> str:
        return f"ComplexEntry({self.value!r}, index={self.index})"


class ComplexTable:
    """Global complex-value interning table with tolerance ``eps``.

    Parameters
    ----------
    eps:
        The tolerance value of the paper (``0`` for bit-exact matching).
        Two complex numbers are identified when *both* the real and the
        imaginary parts differ by at most ``eps`` from a stored entry --
        the component-wise criterion used by the established QMDD
        package.
    """

    def __init__(self, eps: float = 0.0, precision: str = "double") -> None:
        if eps < 0:
            raise ValueError("tolerance eps must be non-negative")
        if precision not in ("double", "single"):
            raise ValueError(f"unknown precision {precision!r}")
        self.eps = float(eps)
        #: "single" rounds every stored value through IEEE-754 binary32,
        #: modelling a lower-precision implementation (the paper argues
        #: the accuracy floor scales with the machine precision; this
        #: knob lets the evaluation demonstrate it in the cheap
        #: direction).
        self.precision = precision
        self._single = precision == "single"
        # Tombstoned (None) slots are left behind by sweep_entries;
        # indices are append-only and never reused.
        self._entries: list[Optional[ComplexEntry]] = []
        # Every live entry under its value.  ``complex`` keys compare
        # -0.0 equal to 0.0, so a signed-zero probe finds its entry.
        self._exact: Dict[complex, ComplexEntry] = {}
        # Bucket grid for tolerance search: one bucket per 2*eps square so
        # a candidate within eps is always in the same or a neighbouring
        # bucket of its anchor.
        self._grid = 2.0 * self.eps
        # Probes at or beyond this magnitude on both axes can only match
        # bit-equal values (see _bucketed); 0 at eps=0, where every probe
        # is exact.  Infinite for huge eps, where no finite probe is.
        self._exact_bound = self.eps * _EXACT_ONLY_SCALE
        self._buckets: Dict[Tuple[int, int], List[ComplexEntry]] = {}
        # Observability counters (see repro.obs): ``lookups`` is bumped
        # once per probe -- the single hot-path increment -- while
        # ``inserts`` is bumped on the (cold) insert path, so hits and
        # identifications are derived, never separately counted.
        self.lookups = 0
        self.inserts = 0
        self.swept = 0
        self.zero = self.lookup(complex(0.0, 0.0))
        self.one = self.lookup(complex(1.0, 0.0))

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """The index space size (tombstones included; never shrinks)."""
        return len(self._entries)

    def entries(self) -> Tuple[Optional[ComplexEntry], ...]:
        return tuple(self._entries)

    def entry(self, index: int) -> Optional[ComplexEntry]:
        """The entry at ``index``, or ``None`` if out of range or swept.

        Sanitizer hook: lets the DD layer verify that an edge weight's
        ``index`` round-trips to the very same interned object.
        """
        if isinstance(index, int) and 0 <= index < len(self._entries):
            return self._entries[index]
        return None

    def _bucketed(self, value: complex) -> bool:
        """Whether ``value`` needs the tolerance search.

        A probe is *exact-only* when ``|re|`` and ``|im|`` are both at
        least ``eps * 2**54`` (always at ``eps = 0``): every other double
        then lies more than ``eps`` away on each axis, so only a
        bit-equal entry can match and the exact dict answers alone.
        Exact-only entries are never bucketed.
        """
        bound = self._exact_bound
        return abs(value.real) < bound or abs(value.imag) < bound

    def _search(self, value: complex) -> Tuple[Optional[ComplexEntry], Tuple[int, int]]:
        """Tolerance search of a bucketed probe: ``(nearest entry or
        None, the probe's bucket key)``.

        Only the buckets that can hold a match are scanned.
        Per axis let ``q = fl(v / grid)``, ``k = round(q)`` and
        ``f = q - k`` (exact: Sterbenz).  A match ``s`` has
        ``fl(|s - v|) <= eps``, so ``|s - v| <= eps (1 + u)`` with
        ``u = 2**-53``, and the two rounded quotients differ by at most
        ``1/2 + u (2|q| + 1)`` plus subnormal noise -- strictly less
        than ``1/2 + r`` with the margin ``r = (|q| + 1) 2**-51``.
        Hence ``f > r`` puts every match in buckets ``k, k+1`` and
        ``f < -r`` in ``k-1, k``; only within ``r`` of ``f = 0`` (where
        ``q +- 1/2`` sits on a rounding tie) all three are scanned.
        Buckets are visited in ascending ``(x, y)`` order, entries in
        insertion order, so equal distances keep the first-found entry.
        """
        re = value.real
        im = value.imag
        try:
            kx, xs = _axis_buckets(re / self._grid)
            ky, ys = _axis_buckets(im / self._grid)
        except (ValueError, OverflowError):  # round() of a NaN or an inf
            raise DDError(
                f"cannot intern {value!r}: not finite, or beyond the "
                f"tolerance grid of eps={self.eps:g}"
            ) from None
        eps = self.eps
        get = self._buckets.get
        best: Optional[ComplexEntry] = None
        best_distance = inf
        for x in xs:
            for y in ys:
                bucket = get((x, y))
                if bucket is None:
                    continue
                for entry in bucket:
                    stored = entry.value
                    dre = abs(stored.real - re)
                    if dre <= eps:
                        dim = abs(stored.imag - im)
                        if dim <= eps:
                            distance = dre + dim
                            if distance < best_distance:
                                best, best_distance = entry, distance
        return best, (kx, ky)

    def lookup(self, value: complex) -> ComplexEntry:
        """Intern ``value``: return the entry it is identified with.

        With ``eps > 0`` the *stored* value of an existing nearby entry
        is returned (the incoming value is discarded -- this is the
        lossy identification step).  Otherwise a new entry is created.

        A stored value bit-equal to the probe answers first: stored
        values are pairwise more than ``eps`` apart, so it is the unique
        distance-0 minimum the tolerance search would return.
        """
        self.lookups += 1
        value = complex(value)
        if self._single:
            value = _round_to_single(value)
        entry = self._exact.get(value)
        if entry is not None:
            return entry
        try:
            bound = self._exact_bound  # _bucketed, inlined
            if abs(value.real) < bound or abs(value.imag) < bound:
                entry, key = self._search(value)
                if entry is not None:
                    return entry
                return self._insert(value, key)
            return self._insert(value, None)
        except DDError:
            self.lookups -= 1  # a refused value is not an identification
            raise

    def find(self, value: complex) -> Optional[ComplexEntry]:
        """The entry :meth:`lookup` would return, or ``None`` where it
        would insert.  Side-effect free: counts nothing, stores nothing."""
        value = complex(value)
        if self._single:
            value = _round_to_single(value)
        entry = self._exact.get(value)
        if entry is None and self._bucketed(value):
            entry = self._search(value)[0]
        return entry

    def holds(self, entry: ComplexEntry) -> bool:
        """Whether both probe paths still reach ``entry``: its exact-dict
        slot and, unless it is exact-only, its bucket."""
        value = entry.value
        if self._exact.get(value) is not entry:
            return False
        if not self._bucketed(value):
            return True
        key = self._search(value)[1]
        return any(other is entry for other in self._buckets.get(key, ()))

    def _insert(self, value: complex, key: Optional[Tuple[int, int]]) -> ComplexEntry:
        # A bucketed probe passed round() on both axes, so only the
        # exact-only path can still carry an inf or a NaN.
        if key is None and not isfinite(value):
            raise DDError(f"cannot intern non-finite value {value!r}")
        if not self._grid:
            value += 0j  # eps=0 stores -0.0 as 0.0 (-0.0 + 0.0 == +0.0)
        self.inserts += 1
        entry = ComplexEntry(value, len(self._entries))
        self._entries.append(entry)
        self._exact[value] = entry
        if key is not None:
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = [entry]
            else:
                bucket.append(entry)
        return entry

    def sweep_entries(self, live_indices: "set[int]") -> int:
        """Garbage-collect exact-mode entries not in ``live_indices``.

        Only meaningful for ``eps == 0``: re-interning a swept value is
        bit-identical, so sweeping never changes results.  With
        ``eps > 0`` this is a no-op returning 0 -- every stored entry
        is an identification *anchor*, and removing one would change
        which entry later values within eps snap to (identification is
        only transitive within a run because anchors stay live).

        Swept slots are tombstoned (``None``) and indices never reused:
        unique-table keys embed entry indices, and a recycled index
        could alias two different values into one node key.
        """
        if self.eps > 0.0:
            return 0
        swept = 0
        entries = self._entries
        exact = self._exact
        for index, entry in enumerate(entries):
            if entry is None or index in live_indices:
                continue
            if entry is self.zero or entry is self.one:
                continue
            if exact.get(entry.value) is entry:
                del exact[entry.value]
            entries[index] = None
            swept += 1
        self.swept += swept
        return swept

    # ------------------------------------------------------------------
    # Convenience predicates used by the DD layer
    # ------------------------------------------------------------------

    def is_zero(self, entry: ComplexEntry) -> bool:
        return entry is self.zero

    def is_one(self, entry: ComplexEntry) -> bool:
        return entry is self.one

    @property
    def identifications(self) -> int:
        """Probes answered by an existing entry (the lossy eps-snaps).

        Every lookup either identifies with a stored value or inserts a
        fresh one, so this is exact without a hot-path branch.  With
        ``eps == 0`` an identification is a bit-exact re-probe (lossless
        sharing); with ``eps > 0`` it is the paper's information-losing
        identification step (Example 4/5).
        """
        return self.lookups - self.inserts

    def statistics(self) -> Dict[str, float]:
        """Table health metrics surfaced by the evaluation harness.

        Reports the uniform engine-table schema (size/hits/misses/
        inserts/evictions, see :mod:`repro.obs`) plus the table-specific
        extras (``eps``, ``buckets``, ``identifications``).  With
        ``eps > 0`` entries are never evicted (tolerance-transitivity
        relies on every anchor staying live); in exact mode the garbage
        collector may sweep unreferenced entries (``swept``).
        """
        live = float(len(self._entries) - self.swept)
        return {
            "size": live,
            "hits": float(self.identifications),
            "misses": float(self.inserts),
            "inserts": float(self.inserts),
            "evictions": float(self.swept),
            "swept": float(self.swept),
            "entries": live,
            "identifications": float(self.identifications),
            "eps": self.eps,
            "buckets": float(len(self._buckets)) if self.eps > 0 else float(len(self._exact)),
        }
