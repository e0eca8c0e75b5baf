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
from .groups import FiniteGroup
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


def odd_assignments(g: ClusterGraph, reg: Register) -> np.ndarray:
    """Codes of every assignment of one element per odd site of ``g``,
    even digits at the identity.  Row i holds i's base-|G| digits, the last
    odd vertex least significant; ``check_keys`` bounds the row count."""
    n = reg.group.order
    total = check_keys(reg.group, len(g.odd_vertices))
    codes = np.zeros(total, dtype=np.int64)
    rest = np.arange(total, dtype=np.int64)
    for v in reversed(g.odd_vertices):
        codes += reg.place_value(v, rest % n)
        rest //= n
    return codes


def build_cluster_state(g: ClusterGraph, G: FiniteGroup) -> SparseState:
    """Entangle |identity-superposition> odd sites into |e> even sites along
    the schedule.  The result has exactly |G|^(#odd) equal-magnitude keys."""
    reg = Register(G, g.vertex_ids)
    codes = odd_assignments(g, reg)
    table = G.table
    inverse = G.inverse
    even: dict = {}  # even site -> its digits so far (the identity at first)
    for gate in schedule(g):
        control = reg.digit(codes, gate.control)  # odd digits are never written
        target = even.get(gate.target, 0)
        if gate.sense == "left":
            even[gate.target] = table[control, target]
        else:
            even[gate.target] = table[target, inverse[control]]
    for v, digits in even.items():
        codes += reg.place_value(v, digits)
    amps = np.full(len(codes), G.order ** (-len(g.odd_vertices) / 2),
                   dtype=complex)
    return SparseState(reg, codes, amps)


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
