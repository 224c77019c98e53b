r"""Canonical circuit+configuration hashing for caches and dedup.

Display names are presentation, not identity: ``T`` and ``p(pi/4)``
apply the same unitary (``diag(1, omega)``), the evalsuite drivers
label circuits by whatever the builder chose to call them, and two
sweeps of the same gate sequence under the same configuration should
share one cache entry.  :func:`canonical_hash` gives every
(circuit, config) pair a stable 256-bit identity built from what the
simulator actually consumes:

* **gate identity** -- the exact ``D[omega]`` entry keys
  (:meth:`repro.rings.domega.DOmega.key`) when the gate is
  Clifford+T-exact, so every spelling of the same exact gate hashes
  identically; numeric-only gates hash by the IEEE-754 bit patterns of
  their matrix entries (name-independent, and distinguishes angles the
  float grid distinguishes -- exactly the resolution the numeric
  simulator itself has);
* **operand normalisation** -- positive and negative control sets are
  order-insensitive in the gate model, so they are sorted before
  hashing;
* **configuration fingerprint** -- every semantic
  :class:`repro.api.SimulatorConfig` field except ``telemetry``
  (observability never changes simulation results; everything else --
  including the GC policy and memory budget, which can turn a success
  into a :class:`~repro.errors.MemoryBudgetExceeded` -- does or can).
  Floats enter as exact IEEE-754 bit patterns, never via ``repr``.

The circuit's display ``name`` and the gate's display name are
deliberately **excluded**.  The hash is used as the key of the
``repro.serve`` result cache and as the circuit identity recorded by
the evalsuite drivers (:class:`repro.evalsuite.tradeoff.TradeoffResult`).

**Specification and fast path.**  The digest is defined as sha256 of
``repr(circuit_fingerprint(c)) + "|" + repr(config_fingerprint(cfg))``;
:func:`circuit_fingerprint` stays public as that specification.
:func:`canonical_hash` builds the same text from memoized pieces, in
the spirit of the complex-value lookup tables of Zulehner et al.
("How to Efficiently Handle Complex Values?"): a value's identity is
derived once, then reused by lookup.

* the ``repr`` of a gate's identity is memoized on the
  :class:`~repro.circuits.gates.GateDef` object; the entry keeps the
  gate and is checked with ``is``, so a recycled ``id`` can never
  alias two gates;
* the text of one operation is memoized on ``(gate text, target,
  controls, negative controls)``, so freshly built circuits that reuse
  the standard gates hit too;
* per call, the operation texts are joined once and the config part is
  appended to the running ``hashlib.sha256``.

Both memos are bounded (cleared when full), process-local module state
and deliberately not configurable.  There is no per-:class:`Circuit`
memo: ``Circuit.operations`` is a public mutable list, so a cached
digest would need snapshot checks; state stored on the object would
travel with it through pickling to process workers; and the service's
benchmark keeps every completed request alive, so per-object memos
grew its peak memory by a third.  The service computes a request's
key once (:func:`repro.serve.cache.request_key`) and hands it to both
the cache lookup and the store.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.circuits.circuit import Circuit
from repro.circuits.gates import GateDef

__all__ = ["canonical_hash", "circuit_fingerprint", "config_fingerprint"]

#: Fingerprint format version -- bump on any change to the hashed
#: material so stale cross-process caches can never alias.
_VERSION = 1

#: The semantic configuration fields, in hash order.  ``telemetry`` is
#: deliberately absent (observability is invisible to results).
_CONFIG_FIELDS: Tuple[str, ...] = (
    "system",
    "eps",
    "normalization",
    "precision",
    "sanitize",
    "gc",
    "gc_min_yield",
    "max_nodes",
    "max_bytes",
    "record_bit_widths",
)
#: v1 also hashed the since-removed ``use_apply_kernel`` switch, which
#: every simulation now runs with; its constant pair keeps v1 digests.
_RETIRED_PAIRS: Tuple[Tuple[str, Any], ...] = (("use_apply_kernel", True),)
#: The float-typed fields among them (ints are widened before hashing).
_FLOAT_FIELDS = frozenset({"eps", "gc_min_yield"})


def _float_bits(value: float) -> bytes:
    """The exact IEEE-754 little-endian image of ``value``."""
    return struct.pack("<d", float(value))


def _gate_identity(gate: GateDef) -> Tuple[Any, ...]:
    """Name-normalised identity of a base gate.

    Exact gates are identified by their ``D[omega]`` entry keys -- the
    canonical integer coordinates the algebraic managers intern -- so
    ``T`` and ``phase_gate(pi/4)`` (or ``SDG`` and
    ``phase_gate(-pi/2)``) collapse to one identity.  Numeric-only
    gates are identified by the bit patterns of their eight matrix
    components.
    """
    if gate.exact is not None:
        return ("exact", tuple(entry.key() for entry in gate.exact))
    parts = b"".join(
        _float_bits(component)
        for entry in gate.matrix
        for component in (complex(entry).real, complex(entry).imag)
    )
    return ("numeric", parts)


def _sorted_qubits(qubits: Iterable[int]) -> Tuple[int, ...]:
    """Control sets are order-insensitive.

    Indices enter as plain ints: an index equal to an int (a numpy
    integer, a bool) finds that int's operation-memo entry, so both
    must have the same text.
    """
    return tuple(sorted(int(qubit) for qubit in qubits))


def circuit_fingerprint(circuit: Circuit) -> Tuple[Any, ...]:
    """The hashable canonical form of one circuit (no display names).

    This is the specification of the circuit part of
    :func:`canonical_hash`, which builds ``repr`` of this tuple from
    memoized pieces instead of materialising it.
    """
    return (
        _VERSION,
        circuit.num_qubits,
        tuple(
            (
                _gate_identity(operation.gate),
                int(operation.target),
                _sorted_qubits(operation.controls),
                _sorted_qubits(operation.negative_controls),
            )
            for operation in circuit.operations
        ),
    )


def config_fingerprint(config: Optional[Any]) -> Tuple[Any, ...]:
    """The hashable canonical form of a simulator configuration.

    Duck-typed over the :class:`repro.api.SimulatorConfig` fields so
    this module needs no import from the facade (which imports this
    package).  ``None`` hashes as the distinct "no configuration"
    marker, not as the default configuration.  Int values of the
    float-typed fields enter as float bits, so equal configurations
    (``eps=0`` and ``eps=0.0``) get equal fingerprints.
    """
    if config is None:
        return ("none",)
    values = []
    for name in _CONFIG_FIELDS:
        value = getattr(config, name)
        if name in _FLOAT_FIELDS and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if isinstance(value, float):
            value = _float_bits(value)
        values.append((name, value))
    return (*values, *_RETIRED_PAIRS)


#: Memo capacities.  Clearing a full memo keeps each at or below its
#: cap; a circuit with more distinct pieces than that only loses reuse.
_GATE_MEMO_CAP = 1 << 12
_OPERATION_MEMO_CAP = 1 << 14

#: ``id(gate) -> (gate, repr(_gate_identity(gate)))``.  Holding the gate
#: keeps its ``id`` from being recycled while the entry lives; lookups
#: still check the entry's gate with ``is``.
_GATE_TEXTS: Dict[int, Tuple[GateDef, str]] = {}
#: ``(gate text, target, controls, negative controls) -> operation text``.
_OPERATION_TEXTS: Dict[Tuple[Any, ...], str] = {}


def _remember_gate(gate: GateDef) -> str:
    """Compute and memoize ``repr(_gate_identity(gate))``."""
    text = repr(_gate_identity(gate))
    if len(_GATE_TEXTS) >= _GATE_MEMO_CAP:
        _GATE_TEXTS.clear()
    _GATE_TEXTS[id(gate)] = (gate, text)
    return text


def _operation_text(
    gate_text: str, target: int, controls: Iterable[int], negative_controls: Iterable[int]
) -> str:
    """``repr`` of one operation's entry in :func:`circuit_fingerprint`."""
    return "(%s, %r, %r, %r)" % (
        gate_text,
        int(target),
        _sorted_qubits(controls),
        _sorted_qubits(negative_controls),
    )


def _circuit_text(circuit: Circuit) -> str:
    """``repr(circuit_fingerprint(circuit))``, built from the memos."""
    gate_texts = _GATE_TEXTS
    operation_texts = _OPERATION_TEXTS
    parts = []
    for operation in circuit.operations:
        gate = operation.gate
        entry = gate_texts.get(id(gate))
        gate_text = entry[1] if entry is not None and entry[0] is gate else _remember_gate(gate)
        key = (gate_text, operation.target, operation.controls, operation.negative_controls)
        try:
            text = operation_texts[key]
        except KeyError:
            text = _operation_text(*key)
            if len(operation_texts) >= _OPERATION_MEMO_CAP:
                operation_texts.clear()
            operation_texts[key] = text
        except TypeError:  # unhashable operand containers: no reuse
            text = _operation_text(*key)
        parts.append(text)
    body = ", ".join(parts)
    if len(parts) == 1:
        body += ","  # a one-element tuple's repr
    return "(%r, %r, (%s))" % (_VERSION, circuit.num_qubits, body)


def canonical_hash(circuit: Circuit, config: Optional[Any] = None) -> str:
    """A stable sha256 hex identity for ``(circuit, config)``.

    Independent of display names, control ordering and process (no
    ``repr`` of floats, no interpreter ``hash`` randomisation); equal
    exactly when the simulator would be handed the same work.
    """
    digest = hashlib.sha256(_circuit_text(circuit).encode("utf-8"))
    digest.update(b"|")
    digest.update(repr(config_fingerprint(config)).encode("utf-8"))
    return digest.hexdigest()
