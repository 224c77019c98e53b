"""Hash-consing of QMDD nodes (the *unique table*) and bounded
memoisation tables (*compute tables*).

The unique table guarantees that two structurally identical nodes (same
level, same children, same canonical edge-weight keys) are the *same*
Python object.  Together with edge-weight normalisation this makes the
QMDD a canonical representation (paper Section II-B): equality of
(sub-)matrices reduces to pointer equality of nodes.

:class:`ComputeTable` is the shared memoisation primitive behind the
manager's operation caches (add, mat-vec, mat-mat, kron, apply) and the
weight-arithmetic memos of the algebraic number systems: a bounded dict
with hit/miss/insert counters and wholesale eviction once full (the
cheap strategy of the established DD packages, which overwrite entries
rather than grow without bound).

Both tables keep their counters *monotonic*: eviction, ``clear`` and
``sweep`` drop entries but never reset ``hits``/``misses``/``inserts``,
so ``statistics()`` always describes the whole run (the sanitizer and
the benchmarks rely on this when comparing counter snapshots).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Optional, Set, Tuple

from repro.dd.edge import Edge, Node

__all__ = ["UniqueTable", "ComputeTable"]


class ComputeTable:
    """A bounded memo table with hit/miss/insert/eviction counters.

    Counter accounting balances at all times::

        inserts - evicted_entries - discards == len(table)

    ``put`` of an already-present key is counted under ``updates`` (the
    entry count does not change), ``discard`` of a present key under
    ``discards``, and every wholesale drop (capacity eviction,
    ``clear``, ``invalidate``) under ``evicted_entries`` -- so
    observability snapshots reconcile exactly.
    """

    __slots__ = (
        "name",
        "capacity",
        "hits",
        "misses",
        "inserts",
        "updates",
        "discards",
        "evictions",
        "evicted_entries",
        "generation",
        "invalidations",
        "_table",
    )

    def __init__(self, name: str, capacity: int = 1 << 18) -> None:
        if capacity < 1:
            raise ValueError("compute-table capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.updates = 0
        self.discards = 0
        self.evictions = 0
        self.evicted_entries = 0
        self.generation = 0
        self.invalidations = 0
        self._table: Dict[Any, Any] = {}

    def __len__(self) -> int:
        return len(self._table)

    def get(self, key: Any) -> Any:
        value = self._table.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: Any, value: Any) -> None:
        table = self._table
        if key in table:
            # Overwrite in place: the entry count is unchanged, so this
            # is an update, not an insert (keeps the balance invariant
            # inserts - evicted_entries - discards == len).
            table[key] = value
            self.updates += 1
            return
        if len(table) >= self.capacity:
            # Wholesale eviction: cheap, and the counters are cumulative
            # (``evicted_entries`` accounts for the dropped entries), so
            # ``statistics()`` stays monotonic across the swap.
            self.evicted_entries += len(table)
            table.clear()
            self.evictions += 1
        table[key] = value
        self.inserts += 1

    def clear(self) -> None:
        """Drop all entries (counters are kept; they describe the run)."""
        self.evicted_entries += len(self._table)
        self._table.clear()

    def invalidate(self) -> int:
        """Drop all entries and advance the generation stamp.

        The garbage collector calls this after sweeping the unique
        tables: any memoised result may reference a swept node, so the
        whole generation is retired at once (entries are not
        generation-tagged individually; the stamp records the epoch for
        observability and lets callers detect cross-GC reuse).  Returns
        the number of entries dropped.
        """
        dropped = len(self._table)
        self.evicted_entries += dropped
        self._table.clear()
        self.generation += 1
        self.invalidations += 1
        return dropped

    # -- sanitizer access ------------------------------------------------

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Iterate over the live ``(key, value)`` entries.

        Deterministic (dict insertion order); used by the sanitizer to
        sample entries for replay.  Do not mutate the table while
        iterating.
        """
        return iter(self._table.items())

    def discard(self, key: Any) -> Any:
        """Remove one entry; returns it or ``None``.

        Sanitizer hook: an entry is taken out, recomputed from scratch
        and compared against the removed value (simply re-getting it
        would answer the question with the memo under test).  A
        successful removal counts under ``discards`` so snapshots keep
        balancing.
        """
        value = self._table.pop(key, None)
        if value is not None:
            self.discards += 1
        return value

    def statistics(self) -> Dict[str, int]:
        # Uniform observability schema: every engine table reports at
        # least size/hits/misses/inserts/evictions (see repro.obs).
        return {
            "size": len(self._table),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "inserts": self.inserts,
            "updates": self.updates,
            "discards": self.discards,
            "evictions": self.evictions,
            "evicted_entries": self.evicted_entries,
            "generation": self.generation,
            "invalidations": self.invalidations,
        }


class UniqueTable:
    """Interning table for nodes of one arity (vector or matrix).

    ``uid_source`` is a callable yielding fresh node uids; a manager
    passes the *same* source to its vector and matrix tables so that
    uids are globally unique -- compute-table keys built from uids
    would otherwise collide across arities.

    :meth:`sweep` is the only way a node leaves the table; the garbage
    collector (:meth:`repro.dd.mem.MemoryManager.collect`) calls it and
    then invalidates the derived state that may reference swept nodes.
    """

    def __init__(self, uid_source: Optional[Callable[[], int]] = None) -> None:
        self._table: Dict[Tuple[Any, ...], Node] = {}
        if uid_source is None:
            from itertools import count

            uid_source = count(1).__next__  # 0 is the terminal
        self._next_uid = uid_source
        self.hits = 0
        self.misses = 0
        self.evictions = 0  # sweeps that dropped entries
        self.evicted_entries = 0  # cumulative entries dropped

    def __len__(self) -> int:
        return len(self._table)

    @staticmethod
    def _key(
        level: int, edges: Tuple[Edge, ...], weight_keys: Tuple[Any, ...]
    ) -> Tuple[Any, ...]:
        if len(edges) == 2:
            return (level, (edges[0].node.uid, edges[1].node.uid), weight_keys)
        return (level, tuple(edge.node.uid for edge in edges), weight_keys)

    def get_or_create(
        self, level: int, edges: Tuple[Edge, ...], weight_keys: Tuple[Any, ...]
    ) -> Node:
        """Return the canonical node for ``(level, children)``.

        ``weight_keys`` must be the canonical hashable keys of the edge
        weights (as provided by the active number system); the children
        node identities are taken from their stable ``uid``.
        """
        key = self._key(level, edges, weight_keys)
        node = self._table.get(key)
        if node is not None:
            self.hits += 1
            return node
        self.misses += 1
        node = Node(self._next_uid(), level, edges)
        self._table[key] = node
        return node

    def resident(
        self, level: int, edges: Tuple[Edge, ...], weight_keys: Tuple[Any, ...]
    ) -> Optional[Node]:
        """The interned node for this key, or ``None`` -- never creates.

        Sanitizer hook: a reachable node is canonical iff ``resident``
        of its own key returns that very object (anything else is a
        shadow duplicate that escaped hash-consing).
        """
        return self._table.get(self._key(level, edges, weight_keys))

    def nodes(self) -> Iterator[Node]:
        """Iterate over all interned nodes (sanitizer/uid-map hook)."""
        return iter(self._table.values())

    def sweep(self, marked_uids: Set[int]) -> int:
        """Drop every node whose uid is *not* in ``marked_uids``.

        The mark-and-sweep primitive.  ``marked_uids`` must be closed
        under reachability, or a kept node would point at a swept one.
        Outstanding edges to dropped nodes stay valid Python objects but
        re-intern as fresh nodes if the same structure is built again.
        Derived state is not touched here: the collector invalidates it
        once, after sweeping both tables.  Returns the number dropped.
        """
        table = self._table
        dead = [key for key, node in table.items() if node.uid not in marked_uids]
        for key in dead:
            del table[key]
        if dead:
            self.evictions += 1
            self.evicted_entries += len(dead)
        return len(dead)

    def statistics(self) -> Dict[str, int]:
        # Every miss interns a fresh node, so inserts == misses.  The
        # schema mirrors ComputeTable.statistics (uniform across every
        # engine table; see repro.obs): evictions counts the sweeps that
        # dropped entries, evicted_entries the entries they dropped.
        return {
            "size": len(self._table),
            "hits": self.hits,
            "misses": self.misses,
            "inserts": self.misses,
            "evictions": self.evictions,
            "evicted_entries": self.evicted_entries,
        }
