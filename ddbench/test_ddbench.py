"""Self-tests of the benchmark's own code.

    python3 -m pytest ddbench/test_ddbench.py -q
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def _stream_prefix(seed: int, count: int = 200):
    families = inputs.serve_families(seed)
    stream = inputs.serve_stream(seed, families)
    return families, [next(stream) for _ in range(count)]


def test_same_seed_same_schedule_and_keys():
    assert inputs.poisson_schedule(7, 40.0, 5.0) == inputs.poisson_schedule(7, 40.0, 5.0)
    assert _stream_prefix(7) == _stream_prefix(7)


def test_different_seed_different_schedule_and_keys():
    assert inputs.poisson_schedule(7, 40.0, 5.0) != inputs.poisson_schedule(8, 40.0, 5.0)
    families_a, items_a = _stream_prefix(7)
    families_b, items_b = _stream_prefix(8)
    assert families_a != families_b
    assert items_a != items_b


def test_hamiltonian_draw_is_seeded_and_keeps_default_signs():
    import random

    base = inputs.default_hamiltonian(inputs.GSE_SITES)
    first = inputs.draw_hamiltonian(random.Random("gse:3"))
    assert first == inputs.draw_hamiltonian(random.Random("gse:3"))
    assert first != inputs.draw_hamiltonian(random.Random("gse:4"))
    for drawn, default in zip(first.fields, base.fields):
        assert drawn * default > 0
        assert abs(drawn) <= abs(default) * (1 + inputs.GSE_JITTER)


def test_layer_map_covers_every_module_exactly_once():
    source = os.path.join(ROOT, "src")
    modules = set()
    for directory, _dirs, files in os.walk(os.path.join(source, "repro")):
        for name in files:
            if not name.endswith(".py"):
                continue
            relative = os.path.relpath(os.path.join(directory, name), source)[:-3]
            parts = relative.split(os.sep)
            if parts[-1] == "__init__":
                parts = parts[:-1]
            modules.add(".".join(parts))
    listed = [module for owned in layers.LAYERS.values() for module in owned]
    assert len(listed) == len(set(listed)), "a module is listed under two layers"
    assert set(listed) == modules


def test_every_layer_has_a_self_share_metric():
    assert set(run.SELF_SHARES) == set(layers.LAYERS)


def test_percentile_nearest_rank():
    samples = list(range(1, 101))
    assert inputs.percentile(samples, 0.5) == 50
    assert inputs.percentile(samples, 0.99) == 99
    assert inputs.percentile(samples, 1.0) == 100
    assert inputs.percentile([3.0, 1.0, 2.0], 0.99) == 3.0
    assert inputs.percentile([5.0], 0.5) == 5.0


def test_zipf_cdf_and_rank():
    cdf = inputs.zipf_cdf(4, 1.0)
    total = 1 + 1 / 2 + 1 / 3 + 1 / 4
    expected = [1 / total, 1.5 / total, (1.5 + 1 / 3) / total, 1.0]
    assert all(abs(a - b) < 1e-12 for a, b in zip(cdf, expected))
    assert inputs.zipf_rank(0.0, cdf) == 0
    assert inputs.zipf_rank(expected[0] + 1e-9, cdf) == 1
    assert inputs.zipf_rank(0.999999, cdf) == 3


def test_union_length_of_child_spans():
    assert layers._union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0
    assert layers._union_length([]) == 0.0


def test_respelled_circuit_keeps_the_canonical_hash():
    from repro.circuits.canonical import canonical_hash

    circuit = inputs.grover_circuit(6, 5)
    for spelling in ("renamed", "phase"):
        copy = inputs.respell(circuit, spelling)
        assert copy.name != circuit.name
        assert canonical_hash(copy) == canonical_hash(circuit)
    assert any(op.gate.name == "p" for op in inputs.respell(circuit, "phase"))


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
