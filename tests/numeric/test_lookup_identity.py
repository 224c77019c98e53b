"""The numeric fast path changes no result: payload digests and a
differential check against the reference tolerance scan.

``DIGESTS`` pins the serialized final states of numeric runs across the
paper's eps sweep (plus single precision and the max-magnitude pivot).
They were computed with the reference table, whose eps > 0 probes scan
all nine neighbouring buckets, and must never be regenerated to make
this test pass.  The hypothesis test replays one probe sequence into
:class:`ComplexTable` and into that reference scan, kept below as the
specification, and requires identical entry indices and counters.
"""

import hashlib
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bwt import bwt_circuit
from repro.algorithms.grover import grover_circuit
from repro.algorithms.gse import gse_circuit
from repro.api import RunRequest, SimulatorConfig, run
from repro.evalsuite.tradeoff import DEFAULT_EPSILONS
from repro.numeric import ComplexTable

CIRCUITS = {
    "grover_5q": lambda: grover_circuit(5, 11),
    "bwt_d2_s3": lambda: bwt_circuit(2, 3),
    "gse_2s_2b": lambda: gse_circuit(num_sites=2, precision_bits=2, max_words=500),
}

CONFIGS = {
    **{f"eps={eps:g}": SimulatorConfig(system="numeric", eps=eps) for eps in DEFAULT_EPSILONS},
    "single,eps=1e-10": SimulatorConfig(system="numeric", eps=1e-10, precision="single"),
    "max-magnitude,eps=1e-10": SimulatorConfig(
        system="numeric", eps=1e-10, normalization="max-magnitude"
    ),
}

DIGESTS = {
    ("grover_5q", "eps=0"): (
        "83ad534d30d015caf763f5d44d0b4d1d"
        "fda21455160b4bde943d6e4326cd6810"
    ),
    ("grover_5q", "eps=1e-20"): (
        "171ae7f41d6bec9fe3eb2646623751f4"
        "bb39771a2347b734d9f0a5c66a0ac877"
    ),
    ("grover_5q", "eps=1e-15"): (
        "7f45ffc9c05dfd4b69c47c5d407a55bc"
        "766fd456290af2e37c6d119399c3407a"
    ),
    ("grover_5q", "eps=1e-10"): (
        "517c0aa2ed40b7c0d57147724ea0769f"
        "c75719f6f53a9050f446ff604446f4a7"
    ),
    ("grover_5q", "eps=1e-05"): (
        "517c0aa2ed40b7c0d57147724ea0769f"
        "c75719f6f53a9050f446ff604446f4a7"
    ),
    ("grover_5q", "eps=0.001"): (
        "f596d911ddd59ce8d6210413b51a98e2"
        "d7655d8239cecf798e0a2473f09491f4"
    ),
    ("grover_5q", "single,eps=1e-10"): (
        "02f332974bf8f536c6cecfbb46fa4669"
        "c0d28123f4857ac68a4aae833c9fd2f0"
    ),
    ("grover_5q", "max-magnitude,eps=1e-10"): (
        "39aa87f031fd776aca6efedd7a92d424"
        "9de271ac26098b7f52032c80600279c7"
    ),
    ("bwt_d2_s3", "eps=0"): (
        "789934687939618711fb35b56d0d23c6"
        "34cbc277c030c527a671204e1436a2b6"
    ),
    ("bwt_d2_s3", "eps=1e-20"): (
        "b3550e1e5d005a039008a56e8b1537c6"
        "8c5544d103745bdc63a31bc44fd3d8c4"
    ),
    ("bwt_d2_s3", "eps=1e-15"): (
        "6c674631fbef057eed20df0c0e69ac95"
        "789526e95197948182b8ea6ac0dd5d27"
    ),
    ("bwt_d2_s3", "eps=1e-10"): (
        "6c674631fbef057eed20df0c0e69ac95"
        "789526e95197948182b8ea6ac0dd5d27"
    ),
    ("bwt_d2_s3", "eps=1e-05"): (
        "6c674631fbef057eed20df0c0e69ac95"
        "789526e95197948182b8ea6ac0dd5d27"
    ),
    ("bwt_d2_s3", "eps=0.001"): (
        "6c674631fbef057eed20df0c0e69ac95"
        "789526e95197948182b8ea6ac0dd5d27"
    ),
    ("bwt_d2_s3", "single,eps=1e-10"): (
        "86fb6c7cb6056dedfd5ae85ea2ff5ac0"
        "427c71eac4df2c72d3b6a1515e7565ce"
    ),
    ("bwt_d2_s3", "max-magnitude,eps=1e-10"): (
        "a07704f2eff7fdc31f3791f9b50e62ee"
        "c3fefe73d0967cd4783904256a269043"
    ),
    ("gse_2s_2b", "eps=0"): (
        "73f6c949cd1a0159b95b3d45682109b9"
        "908b4acc034fee72472772e843348bf4"
    ),
    ("gse_2s_2b", "eps=1e-20"): (
        "81dc34690fd54f711c3f63ac55a9413b"
        "e7bb657eae39679700f72a1b854cfddd"
    ),
    ("gse_2s_2b", "eps=1e-15"): (
        "78ba5579544c7444385b0603c44d6c63"
        "2fe24385c610ed6e8bfc08bb300516af"
    ),
    ("gse_2s_2b", "eps=1e-10"): (
        "02856510bbced8e98c0fde0f328f1be7"
        "3e4f8d76cffc0b434dfbdef36dc67da9"
    ),
    ("gse_2s_2b", "eps=1e-05"): (
        "02856510bbced8e98c0fde0f328f1be7"
        "3e4f8d76cffc0b434dfbdef36dc67da9"
    ),
    ("gse_2s_2b", "eps=0.001"): (
        "02856510bbced8e98c0fde0f328f1be7"
        "3e4f8d76cffc0b434dfbdef36dc67da9"
    ),
    ("gse_2s_2b", "single,eps=1e-10"): (
        "5d066e63f651f6da684cf0194c382aaa"
        "b55d07ffcd2180dcb9630b300973b429"
    ),
    ("gse_2s_2b", "max-magnitude,eps=1e-10"): (
        "55e8096bf9487d4fbbb3f24e49e0baf4"
        "da16b37aa6ccc547e7ed7218df3077ea"
    ),
}


@pytest.fixture(scope="module")
def circuits():
    return {name: build() for name, build in CIRCUITS.items()}


@pytest.mark.parametrize("circuit_name, config_label", sorted(DIGESTS))
def test_final_state_payload_is_pinned(circuits, circuit_name, config_label):
    result = run(RunRequest(circuits[circuit_name], CONFIGS[config_label]))
    digest = hashlib.sha256(result.state_payload.encode("utf-8")).hexdigest()
    assert digest == DIGESTS[(circuit_name, config_label)]


# ---------------------------------------------------------------------------
# The reference scan
# ---------------------------------------------------------------------------


def _round_to_single(value: complex) -> complex:
    pack = struct.Struct("f")
    return complex(
        pack.unpack(pack.pack(value.real))[0], pack.unpack(pack.pack(value.imag))[0]
    )


class ReferenceTable:
    """The tolerance table as specified: eps = 0 interns bit-exact
    values (-0.0 stored as 0.0); every eps > 0 probe scans the nine
    buckets around ``round(value / (2 eps))`` and keeps the first entry
    at the smallest ``|dre| + |dim|`` with both parts within eps."""

    def __init__(self, eps: float, precision: str = "double") -> None:
        self.eps = eps
        self.single = precision == "single"
        self.values = []
        self.exact = {}
        self.buckets = {}
        self.lookups = 0
        self.inserts = 0
        self.lookup(0j)
        self.lookup(1 + 0j)

    def _insert(self, value: complex) -> int:
        self.inserts += 1
        self.values.append(value)
        return len(self.values) - 1

    def _key(self, value: complex):
        grid = 2.0 * self.eps
        return (round(value.real / grid), round(value.imag / grid))

    def lookup(self, value: complex) -> int:
        self.lookups += 1
        value = complex(value)
        if self.single:
            value = _round_to_single(value)
        if self.eps == 0.0:
            key = (value.real + 0.0, value.imag + 0.0)
            if key not in self.exact:
                self.exact[key] = self._insert(complex(*key))
            return self.exact[key]
        kx, ky = self._key(value)
        best, best_distance = None, math.inf
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for index in self.buckets.get((kx + dx, ky + dy), ()):
                    stored = self.values[index]
                    dre = abs(stored.real - value.real)
                    dim = abs(stored.imag - value.imag)
                    if dre <= self.eps and dim <= self.eps and dre + dim < best_distance:
                        best, best_distance = index, dre + dim
        if best is not None:
            return best
        index = self._insert(value)
        self.buckets.setdefault((kx, ky), []).append(index)
        return index


def _nudge(value: float, ulps: int) -> float:
    toward = math.copysign(math.inf, ulps)
    for _ in range(abs(ulps)):
        value = math.nextafter(value, toward)
    return value


#: The paper's sweep, powers of two (grid arithmetic is then exact, so
#: constructed distances land exactly on eps), and arbitrary values.
EPSILONS = (
    st.sampled_from([0.0, 1e-20, 1e-15, 1e-10, 1e-5, 1e-3])
    | st.sampled_from([2.0**-30, 2.0**-10, 0.5])
    | st.floats(min_value=1e-300, max_value=1e3)
)


@st.composite
def probe_sequences(draw):
    """Probes aimed at the fast path's edges: bucket-rounding ties
    (``k +- 0.5`` grid units, and whole units, where a match window
    touches three buckets), the exact-only bound ``eps * 2**54``,
    signed zeros, points exactly eps from earlier probes -- each nudged
    by a few ulps -- plus exact and ulp-nudged re-probes."""
    eps = draw(EPSILONS)
    grid = 2.0 * eps
    history = []

    def axis() -> float:
        kind = draw(st.sampled_from(("tie", "bound", "zero", "near", "free")))
        if kind == "zero":
            return draw(st.sampled_from((0.0, -0.0)))
        if kind == "tie":
            offset = draw(st.sampled_from((-0.5, -0.25, 0.0, 0.25, 0.5)))
            value = (draw(st.integers(-64, 64)) + offset) * grid
        elif kind == "bound":
            value = draw(st.sampled_from((-1.0, 1.0))) * eps * 2.0**54
            value *= draw(st.sampled_from((0.25, 0.375, 0.5, 0.75, 1.0, 2.0)))
        elif kind == "near" and history:
            base = draw(st.sampled_from(history))
            value = draw(st.sampled_from((base.real, base.imag)))
            value += draw(st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0))) * eps
        else:
            value = draw(st.floats(min_value=-2.0, max_value=2.0))
        return _nudge(value, draw(st.integers(-3, 3)))

    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        kind = draw(st.integers(0, 5)) if history else 5
        if kind == 0:
            value = draw(st.sampled_from(history))
        elif kind == 1:
            base = draw(st.sampled_from(history))
            value = complex(
                _nudge(base.real, draw(st.integers(-2, 2))),
                _nudge(base.imag, draw(st.integers(-2, 2))),
            )
        else:
            value = complex(axis(), axis())
        history.append(value)
    return eps, history


def _replay(eps, values, precision="double"):
    table = ComplexTable(eps, precision)
    reference = ReferenceTable(eps, precision)
    for value in values:
        counters = (table.lookups, table.inserts, len(table))
        found = table.find(value)
        assert (table.lookups, table.inserts, len(table)) == counters  # find is pure
        entry = table.lookup(value)
        assert entry.index == reference.lookup(value)
        assert entry is found if found is not None else entry.index == counters[2]
        assert table.holds(entry)
    assert (table.lookups, table.inserts) == (reference.lookups, reference.inserts)


_EPS = 2.0**-10
_GRID = 2 * _EPS


@pytest.mark.parametrize(
    "values",
    [
        # (2.5 grid) rounds half-even into bucket 2, and the probe at 3
        # grid units sits exactly eps from it: a whole-unit probe must
        # scan three buckets per axis.
        [complex(2.5 * _GRID, 0), complex(3 * _GRID, 0)],
        [complex(0, 2.5 * _GRID), complex(0, 3 * _GRID)],
        # Two entries exactly eps on either side of the probe: the
        # first found in ascending bucket order wins, on either axis
        # and in the two- and three-bucket cases alike.
        [complex(2.5 * _GRID, 0), complex(3.5 * _GRID, 0), complex(3 * _GRID, 0)],
        [complex(0, 2.5 * _GRID), complex(0, 3.5 * _GRID), complex(0, 3 * _GRID)],
        [complex(2.75 * _GRID, 0), complex(3.75 * _GRID, 0), complex(3.25 * _GRID, 0)],
        [complex(0, 2.75 * _GRID), complex(0, 3.75 * _GRID), complex(0, 3.25 * _GRID)],
        [complex(0, 3.25 * _GRID), complex(0, 2.25 * _GRID), complex(0, 2.75 * _GRID)],
        # Below eps * 2**53 one ulp is eps: a one-ulp neighbour must be
        # identified, so the value cannot be exact-only.
        [complex(1.5 * 2.0**42, 1.5 * 2.0**42), complex(1.5 * 2.0**42 + _EPS, 1.5 * 2.0**42 + _EPS)],
        # Just below the power of two eps * 2**53 the gap halves to eps.
        [complex(2.0**43, 2.0**43), complex(2.0**43 - _EPS, 2.0**43 - _EPS)],
    ],
)
def test_constructed_edge_cases_match_reference(values):
    _replay(_EPS, values)


@settings(max_examples=400, deadline=None)
@given(probe_sequences(), st.sampled_from(["double", "single"]))
def test_lookup_matches_reference_scan(sequence, precision):
    eps, values = sequence
    _replay(eps, values, precision)
