"""Tensor-network (PEPS) form of the cluster states.

One tensor per site, one maximally correlated bond per edge, bond dimension
= group order.  Odd sites carry the copy tensor (physical digit equals
every incident bond); even sites carry the word tensor (physical digit
equals the gate-accumulated word of the incident bond values, outward legs
direct and inward legs inverted, in the site's gate order).  Contracting
every bond therefore reproduces the circuit state exactly, which is the
module's main check.

The gate that writes an even site's digit also acts simply on the word
tensor's virtual side: a physical left multiplication slides to the
last-ordered outward leg, or, when the site has no outward legs, to a
right multiplication on the first-ordered inward leg.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .builder import build_cluster_state, odd_assignments
from .graphs import ClusterGraph
from .groups import FiniteGroup, _mul
from .states import Register, SparseState, fidelity

__all__ = [
    "PepsNetwork",
    "build_peps",
    "contract",
    "compare_to_circuit",
]


def _word_values(G: FiniteGroup, senses, cols) -> np.ndarray:
    """Accumulated word of the legs' values ``cols`` (arrays that
    broadcast): outward legs multiply in reverse order, then inward legs
    inverted in forward order."""
    val = 0
    for sense, col in zip(senses, cols):  # later outward legs multiply on the left
        if sense == "out":
            val = _mul(G, col, val)
    for sense, col in zip(senses, cols):  # inward legs invert in forward order
        if sense == "in":
            val = _mul(G, val, G.inverse[col])
    return val


@dataclass(frozen=True)
class PepsNetwork:
    graph: ClusterGraph
    group: FiniteGroup
    bond_dim: int
    legs: dict  # site -> tuple of edge ids (gate order at evens)
    senses: dict  # even site -> tuple of "out"/"in" per leg


def build_peps(g: ClusterGraph, G: FiniteGroup) -> PepsNetwork:
    legs = {}
    senses = {}
    for v in g.vertex_ids:
        if g.parity(v) == "even":
            order = g.orderings[v]
            legs[v] = tuple(order)
            senses[v] = tuple(
                "out" if g.edge(eid).tail == v else "in" for eid in order
            )
        else:
            legs[v] = tuple(e.id for e in g.incident_edges(v))
    return PepsNetwork(g, G, G.order, legs, senses)


def contract(net: PepsNetwork) -> SparseState:
    """Exact contraction of every bond.

    A copy tensor forces each leg of an odd site to that site's digit, so
    only the n^#odd assignments of one element per odd site survive the
    sum over bonds: each is enumerated once, and every bond takes the digit
    of its odd endpoint.  That is the circuit state's key count, and the
    builder's ``odd_assignments`` enumerates these rows, as a grid, under
    its state budget; the even digits come from the word tensors alone,
    each computed over the axes of its site's legs.  Returns the
    unnormalized physical state (every surviving assignment contributes
    amplitude 1)."""
    g, G = net.graph, net.group
    reg = Register(G, g.vertex_ids)
    digits, codes = odd_assignments(g, reg)
    for v in g.even_vertices:
        cols = []
        for eid in net.legs[v]:
            e = g.edge(eid)
            cols.append(digits[e.head if e.tail == v else e.tail])
        codes += reg.place_value(v, _word_values(G, net.senses[v], cols))
    return SparseState(reg, codes.ravel(), np.ones(codes.size, dtype=complex))


def compare_to_circuit(g: ClusterGraph, G: FiniteGroup) -> float:
    """Fidelity between the contracted network and the circuit state."""
    return fidelity(contract(build_peps(g, G)), build_cluster_state(g, G))
