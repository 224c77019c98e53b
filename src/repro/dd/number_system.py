r"""Edge-weight number systems for QMDDs.

The decision-diagram engine (:mod:`repro.dd.manager`) is generic over a
*number system* -- the object that owns edge weights and defines

* the arithmetic (``add``, ``mul``) used by the DD operations,
* canonical hashable *keys* for the unique and compute tables, and
* the edge-weight *normalisation* rule applied to every freshly built
  node (this is where the paper's Algorithms 2 and 3 live).

Three families are provided:

:class:`NumericSystem`
    The state of the art the paper critiques (Section III): IEEE-754
    complex doubles interned through a tolerance table
    (:class:`~repro.numeric.complex_table.ComplexTable`) with
    configurable ``eps``.  Normalisation divides by the leftmost
    non-zero weight (default) or by the largest-magnitude weight
    (variant of [29], more numerically stable).

:class:`AlgebraicQOmegaSystem`
    The paper's first proposed scheme: exact weights in the field
    ``Q[omega]``; normalisation per **Algorithm 2** divides all outgoing
    weights by the leftmost non-zero one using exact field inverses.

:class:`AlgebraicGcdSystem`
    The paper's second scheme: exact weights in the ring ``D[omega]``;
    normalisation per **Algorithm 3** factors out a greatest common
    divisor, unit-adjusted so the leftmost non-zero weight becomes the
    canonical associate (properties (a)-(c) of Section IV-B).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager, nullcontext
from math import gcd as _int_gcd
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.dd.unique_table import ComputeTable
from repro.errors import DDError, InexactDivisionError
from repro.numeric.complex_table import ComplexEntry, ComplexTable
from repro.rings.domega import DOmega
from repro.rings.qomega import QOmega

__all__ = [
    "NumberSystem",
    "NumericSystem",
    "AlgebraicQOmegaSystem",
    "AlgebraicGcdSystem",
    "WeightTable",
]


class WeightTable:
    """Hash-cons table interning exact ring values to dense int ids.

    The numerical system already interns weights through
    :class:`~repro.numeric.complex_table.ComplexTable`; this is the
    algebraic counterpart (arXiv:1911.12691's lookup-table idea applied
    to exact ring elements).  Interning buys two things:

    * ``NumberSystem.key`` becomes a small ``int`` instead of a tuple of
      big integers, so unique- and compute-table keys hash cheaply;
    * arithmetic over interned ids can be memoised (see the
      ``weight_*`` compute tables of the algebraic systems).

    Canonical instances are kept alive in ``_values``, so the
    identity-keyed fast path (``id(value)``) can never observe a recycled
    object id for a registered value.  The garbage collector may
    :meth:`sweep` unreferenced entries: swept slots are *tombstoned*
    (set to ``None``), never reused -- ids stay append-only monotonic,
    because unique- and compute-table keys embed them and a recycled id
    could alias two different weights.
    """

    __slots__ = (
        "_by_key",
        "_by_identity",
        "_values",
        "_width_of",
        "hits",
        "misses",
        "swept",
        "max_bit_width",
    )

    def __init__(self, width_of: Optional[Callable[[Any], int]] = None) -> None:
        self._by_key: Dict[Tuple, int] = {}
        self._by_identity: Dict[int, int] = {}
        self._values: List[Optional[Any]] = []
        #: Optional bit-width probe run once per *fresh* value (the cold
        #: insert path), feeding the ``rings.<ring>.bit_width`` gauge of
        #: :mod:`repro.obs` without touching interned-value arithmetic.
        self._width_of = width_of
        self.hits = 0
        self.misses = 0
        self.swept = 0
        self.max_bit_width = 0

    def __len__(self) -> int:
        """The id space size (tombstones included; ids never shrink)."""
        return len(self._values)

    def intern_id(self, value: Any) -> int:
        """The dense id of ``value``, interning it on first sight.

        Note on counters: the number systems bind ``_by_identity.get``
        directly for their identity fast path, so ``hits``/``misses``
        describe the *fallback* probes that reach this method -- i.e.
        values seen through a fresh Python object.
        """
        eid = self._by_identity.get(id(value))
        if eid is not None:
            self.hits += 1
            return eid
        key = value.key()
        eid = self._by_key.get(key)
        if eid is None:
            self.misses += 1
            eid = len(self._values)
            self._values.append(value)
            self._by_key[key] = eid
            self._by_identity[id(value)] = eid
            if self._width_of is not None:
                width = self._width_of(value)
                if width > self.max_bit_width:
                    self.max_bit_width = width
        else:
            self.hits += 1
        return eid

    def intern(self, value: Any) -> Any:
        """The canonical instance equal to ``value``."""
        return self._values[self.intern_id(value)]

    def value(self, eid: int) -> Any:
        value = self._values[eid]
        if value is None:
            raise DDError(
                f"weight id {eid} was swept by the garbage collector "
                "(stale id escaped a memo invalidation)"
            )
        return value

    def sweep(self, live_ids: "set[int]") -> int:
        """Tombstone every interned value whose id is not in ``live_ids``.

        Swept slots are set to ``None`` and removed from both lookup
        indexes; the id is never reused (see the class docstring).  A
        previously swept *value* re-interns later under a fresh id.
        Returns the number of entries swept.
        """
        swept = 0
        values = self._values
        by_key = self._by_key
        by_identity = self._by_identity
        for eid, value in enumerate(values):
            if value is None or eid in live_ids:
                continue
            by_key.pop(value.key(), None)
            by_identity.pop(id(value), None)
            values[eid] = None
            swept += 1
        self.swept += swept
        return swept

    def lookup_key(self, key: Tuple) -> Optional[int]:
        """The id registered for a canonical ring key, or ``None``.

        Sanitizer hook: unlike :meth:`intern_id` this never inserts, so
        probing whether a weight is a registered canonical instance has
        no side effect that would mask the violation on a later probe.
        """
        return self._by_key.get(key)

    def statistics(self) -> Dict[str, int]:
        # Uniform engine-table schema (see repro.obs): every miss
        # inserts, so inserts == misses; the garbage collector's sweeps
        # are the only form of eviction (live canonical instances still
        # never leave -- the identity fast path depends on that).
        live = len(self._values) - self.swept
        return {
            "size": live,
            "hits": self.hits,
            "misses": self.misses,
            "inserts": self.misses,
            "evictions": self.swept,
            "swept": self.swept,
            "entries": live,
            "max_bit_width": self.max_bit_width,
        }


class NumberSystem(ABC):
    """Strategy interface for QMDD edge weights."""

    #: Short identifier used in reports ("numeric", "algebraic-q", ...).
    name: str = "abstract"

    #: Whether arbitrary (non-Clifford+T) complex values can be
    #: represented.  False for the exact systems: they raise on values
    #: outside D[omega] (such gates must first be Clifford+T approximated,
    #: see :mod:`repro.approx`).
    supports_arbitrary_complex: bool = False

    # -- constants ------------------------------------------------------

    @property
    @abstractmethod
    def zero(self) -> Any: ...

    @property
    @abstractmethod
    def one(self) -> Any: ...

    # -- arithmetic -------------------------------------------------------

    @abstractmethod
    def add(self, left: Any, right: Any) -> Any: ...

    @abstractmethod
    def mul(self, left: Any, right: Any) -> Any: ...

    @abstractmethod
    def neg(self, value: Any) -> Any: ...

    @abstractmethod
    def conj(self, value: Any) -> Any:
        """Complex conjugation (needed for adjoints and inner products)."""

    # -- predicates and keys ------------------------------------------------

    @abstractmethod
    def is_zero(self, value: Any) -> bool: ...

    @abstractmethod
    def is_one(self, value: Any) -> bool: ...

    @abstractmethod
    def key(self, value: Any) -> Any:
        """A canonical hashable key (equal keys <=> identified values)."""

    # -- conversions -----------------------------------------------------------

    @abstractmethod
    def from_domega(self, value: DOmega) -> Any:
        """Import an exact Clifford+T amplitude (always possible)."""

    @abstractmethod
    def from_complex(self, value: complex) -> Any:
        """Import an arbitrary complex value (exact systems raise)."""

    @abstractmethod
    def to_complex(self, value: Any) -> complex:
        """Export for display / accuracy metrics."""

    # -- normalisation ----------------------------------------------------------

    @abstractmethod
    def normalize(self, weights: Tuple[Any, ...]) -> Tuple[Any, Tuple[Any, ...]]:
        """Normalise a node's outgoing weights.

        Returns ``(eta, normalized)`` with
        ``weights[i] == eta * normalized[i]`` for all ``i`` and at least
        one weight non-zero on input.  The normalised tuple must be
        canonical: any two weight tuples describing the same node up to
        a scalar factor normalise to identical tuples.
        """

    def normalize_keyed(
        self, weights: Tuple[Any, ...]
    ) -> Tuple[Any, Tuple[Any, ...], Tuple[Any, ...]]:
        """:meth:`normalize` plus the keys of the normalised weights.

        The unique table needs both; systems that memoise normalisation
        override this to return the cached keys alongside, saving one
        ``key`` round-trip per weight on the node-construction hot path.
        """
        eta, normalized = self.normalize(weights)
        return eta, normalized, tuple(self.key(weight) for weight in normalized)

    # -- sanitizer hooks ---------------------------------------------------------

    def uncounted(self) -> ContextManager[None]:
        """A scope whose weight-table probes stay out of :meth:`metric_values`.

        The sanitizer re-normalises nodes and replays compute-table
        entries inside this scope, so checking a run does not change the
        counters the run reports.  Default: the system counts nothing.
        """
        return nullcontext()

    def check_canonical(self, value: Any) -> Optional[str]:
        """Why ``value`` is *not* a canonical weight, or ``None`` if it is.

        The sanitizer calls this on every edge weight of a walked DD.
        A canonical weight is (a) in the representation's normal form
        (Algorithm 1 for the exact systems, the eps-snap residue
        property for the numeric table) and (b) the *registered*
        instance of the system's interning table, so weight keys
        round-trip.  The check must be side-effect free: it must not
        intern the probed value.
        """
        return None

    def value_for_key(self, key: Any) -> Any:
        """The canonical weight registered under a table ``key``.

        Inverse of :meth:`key` for keys that were handed out before;
        used by the sanitizer to replay compute-table entries whose
        keys embed weight keys.  Raises if the key is unknown.
        """
        raise DDError(f"system {self.name!r} cannot resolve weight keys")

    # -- optional metrics ----------------------------------------------------------

    def bit_width(self, value: Any) -> int:
        """Largest integer bit-width in the representation (0 if N/A)."""
        return 0

    def division_helper(self, numerator: Any, denominator: Any) -> Optional[Any]:
        """``numerator / denominator`` if cheap and exact, else ``None``.

        Used by the addition compute-table to factor out a common weight
        for better cache locality; systems where division can leave the
        ring return ``None`` and the cache falls back to explicit keys.
        """
        return None

    def weight_order_key(self, value: Any) -> Optional[Any]:
        """A *value-based* total-order key for weights, or ``None``.

        When this returns a key, the addition compute-table orders its
        operands by ``(weight_order_key, node uid)`` instead of by node
        uid alone.  The distinction only matters for inexact systems:
        the operand order decides which weight the ratio factoring
        divides by, and float division is not direction-symmetric, so a
        uid-based order makes the last bits of numeric results depend
        on node *creation history* -- in particular, on whether the
        garbage collector has re-interned a node under a fresh uid.
        Exact systems return ``None`` (division direction cannot change
        an exact result) and keep the cheaper uid comparison.
        """
        return None

    def weight_statistics(self) -> Dict[str, Dict[str, int]]:
        """Per-system interning/memo counters (empty if not applicable).

        Maps a table name to its counter dict; the manager merges this
        into :meth:`~repro.dd.manager.DDManager.cache_stats`.
        """
        return {}

    # -- garbage-collection hooks -------------------------------------------------

    def invalidate_memos(self) -> int:
        """Drop memoised weight-arithmetic results (GC invalidation hook).

        Called whenever interned nodes or weights may have been swept:
        memo entries embed weight ids/instances, so they must not
        outlive a sweep.  Returns the number of entries dropped.
        """
        return 0

    def sweep_weights(self, live_keys: "set[Any]") -> int:
        """Garbage-collect interned weights not in ``live_keys``.

        ``live_keys`` holds the canonical weight keys (as produced by
        :meth:`key`) that must survive -- every weight referenced by a
        resident node, root edge or gate signature.  Systems whose
        interning table cannot be swept safely return 0.  Callers must
        invalidate memos in the same pass.
        """
        return 0

    def metric_values(self) -> Dict[str, float]:
        """System-specific scalar metrics under their dotted obs names.

        Sampled lazily by the manager's registry collector (see
        :mod:`repro.obs`), so producing these costs nothing per
        operation.  Numeric systems report the eps-identification
        counters; algebraic systems report the interned coefficient
        bit-width high-water mark.
        """
        return {}


# ---------------------------------------------------------------------------
# Numerical system (state of the art, Section III)
# ---------------------------------------------------------------------------


class NumericSystem(NumberSystem):
    """Floating-point weights with tolerance ``eps``.

    Parameters
    ----------
    eps:
        The identification tolerance (paper Section III); ``0`` for
        bit-exact comparison.
    normalization:
        ``"leftmost"`` divides by the leftmost non-zero weight (the
        original QMDD rule); ``"max-magnitude"`` divides by the (leftmost
        of the) largest-magnitude weights, keeping all weights at
        absolute value <= 1 for better numerical stability [29].
    """

    supports_arbitrary_complex = True

    def __init__(
        self,
        eps: float = 0.0,
        normalization: str = "leftmost",
        precision: str = "double",
    ) -> None:
        if normalization not in ("leftmost", "max-magnitude"):
            raise ValueError(f"unknown normalization scheme {normalization!r}")
        self.table = ComplexTable(eps=eps, precision=precision)
        self.eps = self.table.eps
        self.normalization = normalization
        self.precision = precision
        suffix = ", single" if precision == "single" else ""
        self.name = f"numeric(eps={eps:g}{suffix})"

    # -- constants ------------------------------------------------------

    @property
    def zero(self) -> ComplexEntry:
        return self.table.zero

    @property
    def one(self) -> ComplexEntry:
        return self.table.one

    # -- arithmetic -------------------------------------------------------

    def add(self, left: ComplexEntry, right: ComplexEntry) -> ComplexEntry:
        return self.table.lookup(left.value + right.value)

    def mul(self, left: ComplexEntry, right: ComplexEntry) -> ComplexEntry:
        table = self.table
        if left is table.zero or right is table.zero:
            return table.zero
        if left is table.one:
            return right
        if right is table.one:
            return left
        return table.lookup(left.value * right.value)

    def neg(self, value: ComplexEntry) -> ComplexEntry:
        return self.table.lookup(-value.value)

    def conj(self, value: ComplexEntry) -> ComplexEntry:
        return self.table.lookup(value.value.conjugate())

    # -- predicates ----------------------------------------------------------

    def is_zero(self, value: ComplexEntry) -> bool:
        return value is self.table.zero

    def is_one(self, value: ComplexEntry) -> bool:
        return value is self.table.one

    def key(self, value: ComplexEntry) -> int:
        return value.index

    # -- conversions -------------------------------------------------------------

    def from_domega(self, value: DOmega) -> ComplexEntry:
        return self.table.lookup(value.to_complex())

    def from_complex(self, value: complex) -> ComplexEntry:
        return self.table.lookup(value)

    def to_complex(self, value: ComplexEntry) -> complex:
        return value.value

    # -- normalisation ---------------------------------------------------------------

    def normalize(self, weights: Tuple[ComplexEntry, ...]) -> Tuple[ComplexEntry, Tuple[ComplexEntry, ...]]:
        eta, normalized, _keys = self.normalize_keyed(weights)
        return eta, normalized

    def normalize_keyed(
        self, weights: Tuple[ComplexEntry, ...]
    ) -> Tuple[ComplexEntry, Tuple[ComplexEntry, ...], Tuple[int, ...]]:
        table = self.table
        zero = table.zero
        one = table.one
        if len(weights) == 2 and self.normalization == "leftmost":
            # Vector hot path, unrolled: the same lookups in the same
            # order as the general loop below.
            w0, w1 = weights
            if w0 is not zero:
                if w1 is zero:
                    return w0, (one, zero), (one.index, zero.index)
                n1 = table.lookup(w1.value / w0.value)
                return w0, (one, n1), (one.index, n1.index)
            if w1 is zero:
                raise DDError("normalize called on all-zero weights")
            return w1, (zero, one), (zero.index, one.index)
        pivot_index = self._pivot(weights)
        eta = weights[pivot_index]
        lookup = table.lookup
        normalized = []
        for index, weight in enumerate(weights):
            if weight is zero:
                normalized.append(zero)
            elif index == pivot_index:
                normalized.append(one)
            else:
                normalized.append(lookup(weight.value / eta.value))
        return eta, tuple(normalized), tuple([weight.index for weight in normalized])

    def _pivot(self, weights: Sequence[ComplexEntry]) -> int:
        if self.normalization == "leftmost":
            for index, weight in enumerate(weights):
                if weight is not self.table.zero:
                    return index
            raise DDError("normalize called on all-zero weights")
        best_index, best_magnitude = -1, -1.0
        for index, weight in enumerate(weights):
            if weight is self.table.zero:
                continue
            magnitude = abs(weight.value)
            if magnitude > best_magnitude + 1e-18:
                best_index, best_magnitude = index, magnitude
        if best_index < 0:
            raise DDError("normalize called on all-zero weights")
        return best_index

    def division_helper(self, numerator: ComplexEntry, denominator: ComplexEntry) -> Optional[ComplexEntry]:
        if denominator is self.table.zero:
            return None
        return self.table.lookup(numerator.value / denominator.value)

    def weight_order_key(self, value: ComplexEntry) -> Tuple[float, float]:
        # Value-based operand order keeps the add-cache's ratio
        # direction (and with it the last float bits of every result)
        # independent of node uids, which change when the garbage
        # collector re-interns swept structure.
        return (value.value.real, value.value.imag)

    # -- sanitizer hooks ---------------------------------------------------------

    def check_canonical(self, value: ComplexEntry) -> Optional[str]:
        if not isinstance(value, ComplexEntry):
            return f"weight {value!r} is not a ComplexEntry of the tolerance table"
        registered = self.table.entry(value.index)
        if registered is None or registered is not value:
            return (
                f"entry index {value.index} does not round-trip through the "
                "complex table (shadow ComplexEntry instance)"
            )
        # eps-snap residue: a stored value must identify with itself --
        # looking it up again may never create or pick another entry --
        # and both probe paths (exact dict, bucket) must still hold it.
        # ``find`` and ``holds`` count nothing and store nothing.
        if self.table.find(value.value) is not value or not self.table.holds(value):
            return (
                f"stored value {value.value!r} no longer snaps onto its own "
                f"entry within eps={self.eps:g}"
            )
        return None

    @contextmanager
    def uncounted(self) -> Iterator[None]:
        # Entries a replay inserts stay in the table (nodes and caches
        # may already refer to them); only the counters are restored.
        table = self.table
        lookups, inserts = table.lookups, table.inserts
        try:
            yield
        finally:
            table.lookups, table.inserts = lookups, inserts

    def value_for_key(self, key: int) -> ComplexEntry:
        entry = self.table.entry(key)
        if entry is None:
            raise DDError(f"unknown complex-table index {key!r}")
        return entry

    def weight_statistics(self) -> Dict[str, Dict[str, int]]:
        return {"weight_table": self.table.statistics()}  # type: ignore[dict-item]

    def metric_values(self) -> Dict[str, float]:
        return {
            "numeric.eps.identifications": float(self.table.identifications),
            "numeric.eps.lookups": float(self.table.lookups),
            "numeric.eps.inserts": float(self.table.inserts),
        }

    # -- garbage-collection hooks -------------------------------------------------

    def sweep_weights(self, live_keys: "set[Any]") -> int:
        # Exact mode (eps == 0) sweeps safely: re-interning a swept
        # value is bit-identical.  The tolerance table refuses (returns
        # 0): its entries are identification anchors (see
        # ComplexTable.sweep_entries).
        return self.table.sweep_entries(live_keys)


# ---------------------------------------------------------------------------
# Shared interned-arithmetic base of the two algebraic systems
# ---------------------------------------------------------------------------


class _InternedAlgebraicSystem(NumberSystem):
    """Common machinery of the exact systems: a :class:`WeightTable`
    hash-consing ring elements into int ids, plus bounded memo tables
    for ``mul``/``add``/``conj``/``normalize`` keyed on those ids.

    The DD hot path produces the same few weight products over and over
    (states mid-simulation carry a small set of distinct weights), so
    memoising the exact big-integer arithmetic turns most ring
    operations into two dict lookups.
    """

    supports_arbitrary_complex = False

    #: Ring tag used in the dotted metric namespace
    #: (``rings.<ring_name>.bit_width``).
    ring_name: str = "ring"

    def __init__(self) -> None:
        # Probe coefficient bit-widths on the cold insert path only, so
        # the ``rings.<ring>.bit_width`` high-water mark costs nothing
        # on interned-value hits.
        self.table = WeightTable(width_of=self._width_of)
        self._zero = self.table.intern(self._raw_zero())
        self._one = self.table.intern(self._raw_one())
        self._mul_memo = ComputeTable("weight_mul", 1 << 17)
        self._add_memo = ComputeTable("weight_add", 1 << 17)
        self._conj_memo = ComputeTable("weight_conj", 1 << 16)
        self._norm_memo = ComputeTable("weight_normalize", 1 << 16)
        self._div_memo = ComputeTable("weight_div", 1 << 16)
        # Bound lookup for the interning fast path: almost every operand
        # on the hot path is already a canonical instance, so a single
        # dict probe replaces the ``intern_id`` call (miss -> full path).
        self._id_of = self.table._by_identity.get
        self._zero_id = self.table.intern_id(self._zero)
        self._one_id = self.table.intern_id(self._one)

    # Subclasses provide the raw ring constants and operations.

    @abstractmethod
    def _raw_zero(self) -> Any: ...

    @abstractmethod
    def _raw_one(self) -> Any: ...

    @abstractmethod
    def _raw_normalize(self, weights: Tuple[Any, ...]) -> Tuple[Any, Tuple[Any, ...]]: ...

    # -- constants ------------------------------------------------------

    @property
    def zero(self) -> Any:
        return self._zero

    @property
    def one(self) -> Any:
        return self._one

    # -- interning ------------------------------------------------------

    def key(self, value: Any) -> int:
        return self.table.intern_id(value)

    # -- memoised arithmetic --------------------------------------------

    def add(self, left: Any, right: Any) -> Any:
        # Identity-only fast paths: hot-path weights are interned, so the
        # canonical zero/one flow through as singletons.  Raw equal-but-
        # not-identical values still get the right answer from the memo
        # path below (the actual ring addition runs).
        if left is self._zero:
            return right
        if right is self._zero:
            return left
        id_of = self._id_of
        left_id = id_of(id(left))
        if left_id is None:
            left_id = self.table.intern_id(left)
        right_id = id_of(id(right))
        if right_id is None:
            right_id = self.table.intern_id(right)
        if right_id < left_id:
            left_id, right_id = right_id, left_id
        memo_key = (left_id, right_id)
        result = self._add_memo.get(memo_key)
        if result is None:
            result = self.table.intern(self.table.value(left_id) + self.table.value(right_id))
            self._add_memo.put(memo_key, result)
        return result

    def mul(self, left: Any, right: Any) -> Any:
        if left is self._one:
            return right
        if right is self._one:
            return left
        if left is self._zero or right is self._zero:
            return self._zero
        id_of = self._id_of
        left_id = id_of(id(left))
        if left_id is None:
            left_id = self.table.intern_id(left)
        right_id = id_of(id(right))
        if right_id is None:
            right_id = self.table.intern_id(right)
        if right_id < left_id:
            left_id, right_id = right_id, left_id
        memo_key = (left_id, right_id)
        result = self._mul_memo.get(memo_key)
        if result is None:
            result = self.table.intern(self.table.value(left_id) * self.table.value(right_id))
            self._mul_memo.put(memo_key, result)
        return result

    def neg(self, value: Any) -> Any:
        return -value

    def conj(self, value: Any) -> Any:
        memo_key = self._id_of(id(value))
        if memo_key is None:
            memo_key = self.table.intern_id(value)
        result = self._conj_memo.get(memo_key)
        if result is None:
            result = self.table.intern(value.conj())
            self._conj_memo.put(memo_key, result)
        return result

    def normalize(self, weights: Tuple[Any, ...]) -> Tuple[Any, Tuple[Any, ...]]:
        eta, normalized, _keys = self.normalize_keyed(weights)
        return eta, normalized

    def normalize_keyed(
        self, weights: Tuple[Any, ...]
    ) -> Tuple[Any, Tuple[Any, ...], Tuple[int, ...]]:
        intern_id = self.table.intern_id
        if len(weights) == 2:
            id_of = self._id_of
            key0 = id_of(id(weights[0]))
            if key0 is None:
                key0 = intern_id(weights[0])
            key1 = id_of(id(weights[1]))
            if key1 is None:
                key1 = intern_id(weights[1])
            memo_key = (key0, key1)
        else:
            memo_key = tuple(intern_id(weight) for weight in weights)
        result = self._norm_memo.get(memo_key)
        if result is None:
            result = self._normalize_miss(weights, memo_key)
            self._norm_memo.put(memo_key, result)
        return result

    def _normalize_miss(
        self, weights: Tuple[Any, ...], memo_key: Tuple[int, ...]
    ) -> Tuple[Any, Tuple[Any, ...], Tuple[int, ...]]:
        if len(weights) == 2:
            # Scale-invariance fast path: for both exact normalisations
            # ``normalize(c*w) == (c * eta', normalized')`` *exactly* --
            # Algorithm 2 divides by the pivot (the common factor
            # cancels) and Algorithm 3's gcd is multiplicative with an
            # associate-invariant output.  Reducing to the ratio class
            # ``(w0/pivot, w1/pivot)`` lets one raw normalisation serve
            # every globally-rescaled weight tuple.
            key0, key1 = memo_key
            zero_id = self._zero_id
            pivot_id = key0 if key0 != zero_id else key1
            if pivot_id != self._one_id and pivot_id != zero_id:
                value = self.table.value
                pivot = value(pivot_id)
                ratio0 = self.division_helper(value(key0), pivot)
                ratio1 = self.division_helper(value(key1), pivot)
                if ratio0 is not None and ratio1 is not None:
                    base = self.normalize_keyed((ratio0, ratio1))
                    return (self.mul(pivot, base[0]), base[1], base[2])
        eta, normalized = self._raw_normalize(weights)
        interned = tuple(self.table.intern(weight) for weight in normalized)
        return (
            self.table.intern(eta),
            interned,
            tuple(self.table.intern_id(weight) for weight in interned),
        )

    # -- predicates -----------------------------------------------------

    def is_zero(self, value: Any) -> bool:
        # Identity fast path: canonical zero flows through unchanged
        # almost everywhere (zero edges share the interned instance).
        return value is self._zero or value.is_zero()

    def is_one(self, value: Any) -> bool:
        return value is self._one or value.is_one()

    # -- sanitizer hooks ------------------------------------------------

    @abstractmethod
    def _recanonicalize(self, value: Any) -> Any:
        """Rebuild ``value`` through the ring constructor.

        The constructors apply the representation's normal form
        (Algorithm 1 for ``D[omega]``; the extended reduction for
        ``Q[omega]``), so a value is in normal form iff rebuilding it
        reproduces the same canonical key.
        """

    def check_canonical(self, value: Any) -> Optional[str]:
        try:
            rebuilt = self._recanonicalize(value)
        except Exception as error:  # malformed ring element
            return f"weight {value!r} cannot be recanonicalised: {error}"
        if rebuilt.key() != value.key():
            return (
                f"weight {value!r} is not in ring normal form "
                f"(recanonicalises to {rebuilt!r})"
            )
        eid = self.table.lookup_key(value.key())
        if eid is None:
            return f"weight {value!r} was never interned in the WeightTable"
        if self.table.value(eid) is not value:
            return (
                f"weight {value!r} is a shadow instance of interned id {eid} "
                "(weight ids would not round-trip)"
            )
        return None

    def value_for_key(self, key: int) -> Any:
        if not isinstance(key, int) or not 0 <= key < len(self.table):
            raise DDError(f"unknown weight-table id {key!r}")
        return self.table.value(key)

    # -- conversions ----------------------------------------------------

    def from_complex(self, value: complex) -> Any:
        raise DDError(
            "the algebraic representation cannot import arbitrary complex "
            "values; approximate the gate with Clifford+T first (repro.approx)"
        )

    def to_complex(self, value: Any) -> complex:
        return value.to_complex()

    def bit_width(self, value: Any) -> int:
        return value.max_bit_width()

    @staticmethod
    def _width_of(value: Any) -> int:
        return int(value.max_bit_width())

    def metric_values(self) -> Dict[str, float]:
        prefix = f"rings.{self.ring_name}"
        return {
            f"{prefix}.bit_width": float(self.table.max_bit_width),
            f"{prefix}.interned_values": float(len(self.table)),
        }

    def weight_statistics(self) -> Dict[str, Dict[str, int]]:
        stats: Dict[str, Dict[str, int]] = {"weight_table": self.table.statistics()}
        for memo in self._weight_memos():
            stats[memo.name] = memo.statistics()
        return stats

    # -- garbage-collection hooks ---------------------------------------

    def _weight_memos(self) -> Tuple[ComputeTable, ...]:
        return (
            self._mul_memo,
            self._add_memo,
            self._conj_memo,
            self._norm_memo,
            self._div_memo,
        )

    def invalidate_memos(self) -> int:
        # Memo keys and values embed interned ids/instances; after any
        # sweep they could resolve to tombstones, so the whole
        # generation goes.
        dropped = 0
        for memo in self._weight_memos():
            dropped += memo.invalidate()
        return dropped

    def sweep_weights(self, live_keys: "set[Any]") -> int:
        live = {key for key in live_keys if isinstance(key, int)}
        live.add(self._zero_id)
        live.add(self._one_id)
        return self.table.sweep(live)


# ---------------------------------------------------------------------------
# Algebraic system with Q[omega] inverses (paper Algorithm 2)
# ---------------------------------------------------------------------------


class AlgebraicQOmegaSystem(_InternedAlgebraicSystem):
    """Exact weights in the cyclotomic field ``Q[omega]``.

    Normalisation implements the paper's **Algorithm 2**: divide every
    outgoing weight by the leftmost non-zero weight (exact field
    inverse), so the leftmost non-zero normalised weight is exactly 1.
    At least half of all edge weights become trivial this way, which the
    paper identifies as the reason this scheme outperforms the GCD
    scheme (Section V-B).
    """

    name = "algebraic-q"
    ring_name = "qomega"

    def _raw_zero(self) -> QOmega:
        return QOmega.zero()

    def _raw_one(self) -> QOmega:
        return QOmega.one()

    def from_domega(self, value: DOmega) -> QOmega:
        return QOmega.from_domega(value)

    def _recanonicalize(self, value: QOmega) -> QOmega:
        return QOmega(value.zeta, value.k, value.e)

    def _raw_normalize(self, weights: Tuple[QOmega, ...]) -> Tuple[QOmega, Tuple[QOmega, ...]]:
        pivot_index = -1
        for index, weight in enumerate(weights):
            if not weight.is_zero():
                pivot_index = index
                break
        if pivot_index < 0:
            raise DDError("normalize called on all-zero weights")
        eta = weights[pivot_index]
        if eta.is_one():
            # Already normalised (the scale-invariance fast path of
            # ``_normalize_miss`` hands over ratio tuples led by 1).
            return (eta, weights)
        normalized = []
        for index, weight in enumerate(weights):
            if weight.is_zero():
                normalized.append(self._zero)
            elif index == pivot_index:
                normalized.append(self._one)
            else:
                normalized.append(weight / eta)
        return (eta, tuple(normalized))

    def division_helper(self, numerator: QOmega, denominator: QOmega) -> Optional[QOmega]:
        if denominator.is_zero():
            return None
        if numerator is denominator:
            return self._one
        id_of = self._id_of
        numerator_id = id_of(id(numerator))
        if numerator_id is None:
            numerator_id = self.table.intern_id(numerator)
        denominator_id = id_of(id(denominator))
        if denominator_id is None:
            denominator_id = self.table.intern_id(denominator)
        memo_key = (numerator_id, denominator_id)
        result = self._div_memo.get(memo_key)
        if result is None:
            result = self.table.intern(numerator / denominator)
            self._div_memo.put(memo_key, result)
        return result


# ---------------------------------------------------------------------------
# Algebraic system with D[omega] GCDs (paper Algorithm 3)
# ---------------------------------------------------------------------------

#: Sentinel cached by :meth:`AlgebraicGcdSystem.division_helper` for pairs
#: whose quotient leaves ``D[omega]`` (a plain ``None`` would read as a miss).
_INEXACT = object()


class AlgebraicGcdSystem(_InternedAlgebraicSystem):
    """Exact weights in the ring ``D[omega]`` with GCD normalisation.

    Normalisation implements the paper's **Algorithm 3**: the
    normalisation factor is a greatest common divisor of the outgoing
    weights, unit-adjusted so the leftmost non-zero weight becomes the
    canonical associate satisfying properties (a)-(c) of Section IV-B.
    All weights stay inside ``D[omega]`` (no odd denominators), at the
    price that few weights become trivial -- the overhead the paper
    measures in Section V-B.
    """

    name = "algebraic-gcd"
    ring_name = "domega"

    def __init__(self) -> None:
        super().__init__()
        # canonical_associate is a fundamental-unit walk plus a
        # lexicographic scan; the same pivot quotients recur across many
        # weight tuples, so memoise per canonical key.
        self._assoc_memo = ComputeTable("weight_assoc", 1 << 15)

    def _raw_zero(self) -> DOmega:
        return DOmega.zero()

    def _raw_one(self) -> DOmega:
        return DOmega.one()

    def from_domega(self, value: DOmega) -> DOmega:
        return value

    def _recanonicalize(self, value: DOmega) -> DOmega:
        # Algorithm 1: the constructor divides out sqrt2 while the
        # parity criterion holds, so this re-derives the minimal k.
        return DOmega(value.zeta, value.k)

    def _raw_normalize(self, weights: Tuple[DOmega, ...]) -> Tuple[DOmega, Tuple[DOmega, ...]]:
        nonzero = [weight for weight in weights if not weight.is_zero()]
        if not nonzero:
            raise DDError("normalize called on all-zero weights")
        pivot = nonzero[0]
        # Fast path: the pivot divides every other weight.  Then every
        # gcd is an associate of the pivot, the pivot quotient is a unit
        # and Algorithm 3's output collapses to ``eta = pivot`` with
        # weights ``w_i / pivot`` -- identical to the general path
        # (independent of which associate the Euclidean gcd returns) but
        # without the Euclidean loop or the canonical-associate walk.
        # Empirically this covers the large majority of fresh tuples in
        # simulation (single non-zero children, proportional branches).
        quotients: Optional[List[DOmega]] = []
        for weight in nonzero[1:]:
            quotient = self.division_helper(weight, pivot)
            if quotient is None:
                quotients = None
                break
            quotients.append(quotient)
        if quotients is not None:
            iterator = iter([self._one] + quotients)
            normalized = tuple(
                self._zero if weight.is_zero() else next(iterator) for weight in weights
            )
            return (pivot, normalized)
        # Second fast path: detect a *unit* gcd without running the
        # Euclidean algorithm.  ``sqrt2`` (hence 2) is a unit of
        # ``D[omega]``, so any common divisor ``g`` satisfies
        # ``E(g) | gcd_i E(w_i)`` over the integer Euclidean norms of the
        # numerators; when that integer gcd is a power of two, ``E(g)``
        # is too and ``g`` is a unit.  The output below is invariant
        # under the choice of associate, so ``divisor = 1`` (an associate
        # of any unit) gives the same result as the Euclidean gcd.  This
        # covers e.g. permuted children of an already-normalised node
        # (coprime weights -- the Euclidean loop's worst case) and the
        # Hadamard sums ``(a + b, a - b)`` of a coprime pair, whose gcd
        # divides the unit 2.
        norm_gcd = 0
        for weight in nonzero:
            norm_gcd = _int_gcd(norm_gcd, weight.numerator_euclidean_norm())
            if norm_gcd == 1:
                break
        if norm_gcd & (norm_gcd - 1) == 0:
            divisor = DOmega.one()
        else:
            # Third fast path: some *other* weight divides the rest, so
            # it is itself an associate of the gcd.
            divisor = None
            for candidate in nonzero[1:]:
                if all(
                    self.division_helper(weight, candidate) is not None
                    for weight in nonzero
                    if weight is not candidate
                ):
                    divisor = candidate
                    break
            if divisor is None:
                divisor = DOmega.gcd(nonzero)
        # Algorithm 3 lines 5-10: adjust the GCD by a unit so the leftmost
        # non-zero weight becomes its canonical associate.
        unit_divisor = divisor.k == 0 and divisor.zeta.is_one()
        pivot_quotient = pivot if unit_divisor else pivot.exact_divide(divisor)
        assoc_key = pivot_quotient.key()
        pair = self._assoc_memo.get(assoc_key)
        if pair is None:
            _canonical, unit = pivot_quotient.canonical_associate()
            pair = (self.table.intern(unit), self.table.intern(unit.unit_inverse()))
            self._assoc_memo.put(assoc_key, pair)
        unit, unit_inverse = pair
        eta = unit if unit_divisor else divisor * unit
        division_helper = self.division_helper
        mul = self.mul
        normalized = []
        for weight in weights:
            if weight.is_zero():
                normalized.append(self._zero)
            else:
                quotient = weight if unit_divisor else division_helper(weight, divisor)
                normalized.append(mul(quotient, unit_inverse))
        return (eta, tuple(normalized))

    def weight_statistics(self) -> Dict[str, Dict[str, int]]:
        stats = super().weight_statistics()
        stats[self._assoc_memo.name] = self._assoc_memo.statistics()
        return stats

    def _weight_memos(self) -> Tuple[ComputeTable, ...]:
        # The associate memo caches interned unit instances, which a
        # weight sweep may tombstone -- invalidate it alongside.
        return super()._weight_memos() + (self._assoc_memo,)

    def division_helper(self, numerator: DOmega, denominator: DOmega) -> Optional[DOmega]:
        if denominator.is_zero():
            return None
        if numerator is denominator:
            return self._one
        id_of = self._id_of
        numerator_id = id_of(id(numerator))
        if numerator_id is None:
            numerator_id = self.table.intern_id(numerator)
        denominator_id = id_of(id(denominator))
        if denominator_id is None:
            denominator_id = self.table.intern_id(denominator)
        memo_key = (numerator_id, denominator_id)
        result = self._div_memo.get(memo_key)
        if result is None:
            try:
                result = self.table.intern(numerator.exact_divide(denominator))
            except InexactDivisionError:
                result = _INEXACT
            self._div_memo.put(memo_key, result)
        return None if result is _INEXACT else result
