# lint-path: src/repro/dd/rogue_pruner.py
"""RL007: node residency changes bypass the lifecycle layer.

Popping nodes out of the raw unique-table dict can drop a node that a
registered root still reaches and skips the collector's invalidation
of compute tables and weight memos; minting uids by hand breaks the
shared uid space of the vector and matrix tables.
"""


def rogue_prune(manager, live_uids):
    table = manager._vector_table
    for key in list(table._table):  # lint-expect: RL007
        if table._table[key].uid not in live_uids:  # lint-expect: RL007
            del table._table[key]  # lint-expect: RL007


def rogue_uid(table):
    return table._next_uid()  # lint-expect: RL007


def fine(manager, live_roots):
    # The blessed path: the collector marks from the registered roots
    # (plus these extra ones), sweeps, then invalidates derived caches.
    return manager.memory.collect(extra_roots=live_roots)
