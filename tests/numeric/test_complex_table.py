"""Tests for the tolerance-based complex value table."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DDError
from repro.numeric import ComplexTable

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
complexes = st.builds(complex, finite, finite)


class TestExactMode:
    def test_zero_eps_distinguishes_last_bit(self):
        table = ComplexTable(eps=0.0)
        a = table.lookup(1 / math.sqrt(2))
        assert table.lookup(1 / math.sqrt(2)) is a  # identical bits intern
        # A value one ulp away must create a distinct entry.
        bumped = table.lookup(math.nextafter(1 / math.sqrt(2), 2.0))
        assert bumped is not a

    def test_negative_zero_normalised(self):
        table = ComplexTable(eps=0.0)
        assert table.lookup(complex(-0.0, 0.0)) is table.zero

    def test_seeded_anchors(self):
        table = ComplexTable(eps=0.0)
        assert table.lookup(0j) is table.zero
        assert table.lookup(1 + 0j) is table.one
        assert table.is_zero(table.zero)
        assert table.is_one(table.one)

    @given(complexes)
    def test_idempotent_interning(self, value):
        table = ComplexTable(eps=0.0)
        assert table.lookup(value) is table.lookup(value)


class TestToleranceMode:
    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            ComplexTable(eps=-1.0)

    def test_values_within_eps_identified(self):
        table = ComplexTable(eps=1e-5)
        a = table.lookup(0.5 + 0.5j)
        b = table.lookup(0.5 + 1e-6 + (0.5 - 1e-6) * 1j)
        assert b is a
        assert b.value == a.value  # the incoming value was discarded

    def test_values_outside_eps_distinct(self):
        table = ComplexTable(eps=1e-5)
        a = table.lookup(0.5 + 0j)
        b = table.lookup(0.5 + 1e-4 + 0j)
        assert b is not a

    def test_componentwise_criterion(self):
        # Both components must be within eps (the established package's
        # criterion) -- a point eps-close in modulus but not per component
        # stays distinct.
        table = ComplexTable(eps=1e-5)
        a = table.lookup(0.5 + 0j)
        b = table.lookup(0.5 + 2e-5j)
        assert b is not a

    def test_snap_to_zero_loses_small_amplitudes(self):
        """The information-loss mechanism behind the paper's Example 5."""
        table = ComplexTable(eps=1e-3)
        tiny = table.lookup(5e-4 + 0j)
        assert tiny is table.zero

    def test_snap_to_one(self):
        table = ComplexTable(eps=1e-3)
        assert table.lookup(1.0005 + 0j) is table.one

    @given(complexes, st.floats(min_value=1e-10, max_value=1e-2))
    def test_lookup_always_within_eps_of_input(self, value, eps):
        table = ComplexTable(eps=eps)
        entry = table.lookup(value)
        assert abs(entry.value.real - value.real) <= eps
        assert abs(entry.value.imag - value.imag) <= eps

    def test_bucket_neighbour_search(self):
        # Values straddling a bucket boundary must still be identified.
        eps = 1e-4
        table = ComplexTable(eps=eps)
        boundary = 3 * eps  # precisely between buckets of width 2*eps
        a = table.lookup(complex(boundary - eps / 4, 0.0))
        b = table.lookup(complex(boundary + eps / 4, 0.0))
        assert a is b

    def test_statistics(self):
        table = ComplexTable(eps=1e-6)
        table.lookup(0.3 + 0.4j)
        stats = table.statistics()
        assert stats["entries"] == 3.0  # zero, one, and the new value
        assert stats["eps"] == 1e-6


class TestGrowthBehaviour:
    def test_exact_table_growth_vs_tolerant(self):
        """eps = 0 accumulates near-duplicate entries; a tolerant table
        re-uses them -- the compactness side of the trade-off."""
        import random

        rng = random.Random(42)
        exact = ComplexTable(eps=0.0)
        tolerant = ComplexTable(eps=1e-8)
        base = 1 / math.sqrt(2)
        for _ in range(100):
            noisy = base + rng.uniform(-1e-12, 1e-12)
            exact.lookup(complex(noisy, 0.0))
            tolerant.lookup(complex(noisy, 0.0))
        assert len(exact) > 50
        assert len(tolerant) == 3  # zero, one, ~1/sqrt2


class TestNonFiniteValues:
    @pytest.mark.parametrize("eps", [0.0, 1e-20, 1e-10, 1e-3])
    @pytest.mark.parametrize(
        "value",
        [
            complex(math.nan, 0.0),
            complex(math.inf, 0.0),
            complex(0.5, math.nan),
            complex(-math.inf, math.inf),
            math.nan,
        ],
    )
    def test_insert_raises_dd_error(self, eps, value):
        table = ComplexTable(eps=eps)
        size = len(table)
        for _ in range(2):  # NaN once inserted a fresh entry per probe
            with pytest.raises(DDError):
                table.lookup(value)
        assert len(table) == size and table.inserts == size
        assert table.identifications == 0  # the zero and one probes


class TestSideEffectFreeProbes:
    @pytest.mark.parametrize("eps", [0.0, 1e-10])
    def test_find_neither_counts_nor_inserts(self, eps):
        table = ComplexTable(eps=eps)
        entry = table.lookup(0.25 + 0.5j)
        before = (table.lookups, table.inserts, len(table))
        assert table.find(0.25 + 0.5j) is entry
        assert table.find(0.75 - 0.5j) is None
        assert (table.lookups, table.inserts, len(table)) == before

    def test_find_identifies_within_eps(self):
        table = ComplexTable(eps=1e-5)
        entry = table.lookup(0.25 + 0.5j)
        assert table.find(0.25 + 4e-6 + 0.5j) is entry

    def test_exact_only_entries_skip_the_buckets(self):
        # At eps=1e-20 no other double lies within eps of 0.7 (it is
        # above eps * 2**54), so the entry needs no bucket.
        table = ComplexTable(eps=1e-20)
        buckets = table.statistics()["buckets"]
        entry = table.lookup(0.7 + 0.7j)
        assert table.statistics()["buckets"] == buckets
        assert table.holds(entry) and table.lookup(0.7 + 0.7j) is entry
        assert table.lookup(complex(0.7, 1e-30)) is not entry  # bucketed: im is tiny

    def test_holds_sees_a_lost_bucket_slot(self):
        table = ComplexTable(eps=1e-10)
        entry = table.lookup(0.25 + 0.5j)
        assert table.holds(entry)
        for bucket in table._buckets.values():
            if entry in bucket:
                bucket.remove(entry)
        assert table.find(0.25 + 0.5j) is entry  # the exact dict still answers
        assert not table.holds(entry)
