"""Build generalized cluster states by circuit.

Every graph edge becomes one controlled-multiplication gate whose control
is the odd endpoint and whose target is the even endpoint.  An edge
directed even -> odd applies LEFT multiplication on the target; an edge
directed odd -> even applies RIGHT multiplication.  Gates sharing a target
are applied in that vertex's stored edge order; gates on different targets
commute (controls are never written).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import ClusterGraph
from .groups import FiniteGroup, _mul
from .states import DENSE_CAP, OverBudget, Register, SparseState

__all__ = [
    "Gate",
    "GateSchedule",
    "schedule",
    "depth",
    "build_cluster_state",
    "build_qubit_reference",
    "OverBudget",
    "check_keys",
    "odd_assignments",
]

MAX_KEYS = 8_000_000


def check_keys(G: FiniteGroup, n_odd: int) -> int:
    """|G|^n_odd, the key count of a cluster state with ``n_odd`` odd
    sites; raises ``OverBudget`` past ``MAX_KEYS``."""
    total = G.order ** n_odd
    if total > MAX_KEYS:
        raise OverBudget(
            f"{total} keys ({G.name}^{n_odd}) exceed the state budget "
            f"{MAX_KEYS}; reduce odd sites or group order"
        )
    return total


@dataclass(frozen=True)
class Gate:
    edge: str
    control: str
    target: str
    sense: str  # "left" | "right"


GateSchedule = tuple  # tuple[Gate, ...]


def schedule(g: ClusterGraph) -> GateSchedule:
    """One gate per edge: even vertices in ascending id order, and at each
    even vertex its edges in the stored ordering."""
    gates: list[Gate] = []
    parities = dict(g.vertices)
    for v in sorted(g.even_vertices):
        for eid in g.orderings[v]:
            e = g.edge(eid)
            if e.tail == v:  # even -> odd
                gates.append(Gate(eid, control=e.head, target=v, sense="left"))
            else:  # odd -> even
                gates.append(Gate(eid, control=e.tail, target=v, sense="right"))
            if parities[gates[-1].control] != "odd":
                raise ValueError(f"edge {eid}: control endpoint is not odd")
    return tuple(gates)


def depth(sched: GateSchedule) -> int:
    """Layers needed when each target takes one gate per layer: the maximum
    number of gates sharing a target."""
    counts: dict = {}
    for gate in sched:
        counts[gate.target] = counts.get(gate.target, 0) + 1
    return max(counts.values(), default=0)


def odd_assignments(g: ClusterGraph, reg: Register) -> tuple:
    """Every assignment of one element per odd site of ``g``, even digits
    at the identity, as a grid with one axis per odd vertex in ``g``'s
    order: (digits, codes).  ``digits`` maps each odd vertex to
    arange(|G|) along its own axis, length 1 along the others, so the
    digits of any set of sites broadcast over just their axes; ``codes``
    is the grid of codes.  Raveled in C order, row i holds i's base-|G|
    digits, the last odd vertex least significant.  A one-element group's
    grid has no axes, so 60 odd sites stay within numpy's axis limit;
    ``check_keys`` bounds the grid's size.  The codes grow one axis per
    odd vertex, so all of them cost about |G|/(|G|-1) passes over the
    grid."""
    n = reg.group.order
    check_keys(reg.group, len(g.odd_vertices))
    axes = len(g.odd_vertices) if n > 1 else 0
    codes = np.zeros((), dtype=np.int64)
    digits = {}
    for i, v in enumerate(g.odd_vertices):
        shape = (1,) * i + (n,) + (1,) * (axes - 1 - i) if axes else ()
        digits[v] = np.arange(n).reshape(shape)
        if axes:
            codes = codes[..., None] + reg.place_value(v, np.arange(n))
    return digits, codes


def build_cluster_state(g: ClusterGraph, G: FiniteGroup) -> SparseState:
    """Entangle |identity-superposition> odd sites into |e> even sites along
    the schedule.  The result has exactly |G|^(#odd) equal-magnitude keys.

    Gates run on the odd-site grid (``odd_assignments``): a target's
    digits span only the axes of the controls it has met, so a gate costs
    |G|^(controls met) entries, and each even site adds its place value
    to the codes once."""
    reg = Register(G, g.vertex_ids)
    digits, codes = odd_assignments(g, reg)
    even: dict = {}  # even site -> its digits so far (the identity at first)
    for gate in schedule(g):
        control = digits[gate.control]  # odd digits are never written
        target = even.get(gate.target, 0)
        if gate.sense == "left":
            even[gate.target] = _mul(G, control, target)
        else:
            even[gate.target] = _mul(G, target, G.inverse[control])
    for v, d in even.items():
        codes += reg.place_value(v, d)
    amps = np.full(codes.size, G.order ** (-len(g.odd_vertices) / 2),
                   dtype=complex)
    return SparseState(reg, codes.ravel(), amps)


def build_qubit_reference(g: ClusterGraph, G: FiniteGroup) -> SparseState:
    """Independent qubit-route reference for order-2 groups: the standard
    CPHASE-built cluster state with a Hadamard applied on every even site.

    Built densely with explicit |+> preparation, CZ phases and Hadamards —
    no shared code with the group circuit.  Errors for |G| != 2.
    """
    if G.order != 2:
        raise ValueError("qubit reference requires an order-2 group")
    sites = g.vertex_ids
    nq = len(sites)
    dim = 2**nq
    if dim > DENSE_CAP:
        raise ValueError(f"dense dimension {dim} exceeds cap {DENSE_CAP}")
    bit = {s: nq - 1 - i for i, s in enumerate(sites)}  # site -> bit position
    vec = np.full(dim, dim ** (-0.5), dtype=complex)  # |+...+>
    idx = np.arange(dim)
    for e in g.edges:
        both = ((idx >> bit[e.tail]) & 1) & ((idx >> bit[e.head]) & 1)
        vec = np.where(both == 1, -vec, vec)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    for v in g.even_vertices:
        b = bit[v]
        shaped = vec.reshape(2 ** (nq - 1 - b), 2, 2**b)
        vec = np.einsum("ij,ajb->aib", h, shaped).reshape(dim)
    # site i holds bit nq-1-i of the index, so the index is the code
    return SparseState(Register(G, sites), idx, vec)
