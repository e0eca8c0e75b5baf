"""Network-form checks: exact contraction reproduces the circuit state, the
word tensor absorbs physical multiplications onto its virtual legs, and a
scrambled gate order is detected as a different state."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from gcs.builder import OverBudget, build_cluster_state
from gcs.graphs import Edge, build_graph, line_graph, ring_graph
from gcs.groups import builtin_group
from gcs.peps import build_peps, compare_to_circuit, contract
from gcs.states import fidelity
from helpers import entries
from references import even_tensor, odd_tensor, scramble_ordering


def general_small():
    vertices = [("e0", "even"), ("e1", "even"), ("e2", "even"),
                ("o0", "odd"), ("o1", "odd"), ("o2", "odd")]
    edges = [Edge("a", "e0", "o0"), Edge("b", "o1", "e0"),
             Edge("c", "e1", "o1"), Edge("d", "e1", "o0"),
             Edge("f", "o2", "e1"), Edge("g", "e2", "o2"),
             Edge("h", "e2", "o1")]
    return build_graph("general-small", vertices, edges)


GRAPHS = {
    "eoe": lambda: line_graph(3, "eoe"),
    "oeo": lambda: line_graph(3, "oeo"),
    "line6": lambda: line_graph(6, "e"),
    "ring4": lambda: ring_graph(4),
    "ring6": lambda: ring_graph(6),
    "general-small": general_small,
}


@pytest.mark.parametrize("gname", ["Z2", "Z3", "S3"])
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_contraction_matches_circuit(gname, graph_name):
    G = builtin_group(gname)
    g = GRAPHS[graph_name]()
    assert abs(compare_to_circuit(g, G) - 1.0) < 1e-10


def test_contraction_is_unnormalized_but_proportional():
    G = builtin_group("Z3")
    g = line_graph(3, "eoe")
    net = contract(build_peps(g, G))
    # every surviving bond assignment carries amplitude one
    assert entries(net) == {(z, z, z): 1.0 for z in range(3)}
    circuit = build_cluster_state(g, G)
    assert abs(fidelity(net, circuit) - 1.0) < 1e-12


def test_copy_tensor_structure():
    G = builtin_group("Z3")
    t = odd_tensor(G, 2)
    assert t.shape == (3, 3, 3)
    assert t[1, 1, 1] == 1.0 and t.sum() == 3.0


def test_word_tensor_structure_mixed_legs():
    G = builtin_group("S3")
    t = even_tensor(G, ("out", "in"))
    # physical digit must equal (outward value) * (inward value)^-1
    for a, b in itertools.product(range(6), repeat=2):
        z = G.table[a, G.inverse[b]]
        assert t[z, a, b] == 1.0
    assert t.sum() == 36.0


def test_word_tensor_reverses_outward_products():
    G = builtin_group("S3")
    t = even_tensor(G, ("out", "out"))
    for a, b in itertools.product(range(6), repeat=2):
        assert t[G.table[b, a], a, b] == 1.0


@pytest.mark.parametrize("senses", [
    ("out",), ("in",), ("out", "in"), ("in", "out"),
    ("out", "out", "in"), ("in", "in"), ("in", "out", "in", "out"),
])
def test_physical_multiplication_slides_to_a_virtual_leg(senses):
    """Left-multiplying the physical index equals acting on one virtual leg:
    the last outward leg (left multiplication), or the first inward leg
    (right multiplication) when every leg is inward."""
    G = builtin_group("S3")
    n = G.order
    k = len(senses)
    P = even_tensor(G, senses).reshape(n, n**k)
    for x in range(n):
        XL = np.zeros((n, n))
        XL[G.table[x, np.arange(n)], np.arange(n)] = 1.0
        if "out" in senses:
            leg = max(i for i, s in enumerate(senses) if s == "out")
            op = XL
        else:
            leg = min(i for i, s in enumerate(senses) if s == "in")
            op = np.zeros((n, n))
            op[G.table[np.arange(n), G.inverse[x]], np.arange(n)] = 1.0
        virt = np.eye(1)
        for i in range(k):
            virt = np.kron(virt, op if i == leg else np.eye(n))
        assert np.array_equal(XL @ P, P @ virt), (senses, x)


def test_scrambled_order_is_a_different_state():
    G = builtin_group("S3")
    g = general_small()
    g2 = scramble_ordering(g, "e1")
    circuit = build_cluster_state(g, G)
    net2 = contract(build_peps(g2, G))
    assert fidelity(net2, circuit) < 1 - 1e-6
    assert abs(compare_to_circuit(g2, G) - 1.0) < 1e-10


def test_budget_guard():
    # 6^9 rows, one per assignment of the nine odd sites: past MAX_KEYS
    G = builtin_group("S3")
    g = ring_graph(18)
    with pytest.raises(OverBudget, match="budget"):
        contract(build_peps(g, G))


def test_isolated_odd_vertex_still_sums():
    G = builtin_group("Z3")
    g = build_graph("dot", [("w", "odd")], [])
    net = contract(build_peps(g, G))
    assert entries(net) == {(0,): 1.0, (1,): 1.0, (2,): 1.0}


def _bond_enumeration(net):
    """Reference contraction: every bond (and every unbonded copy tensor)
    takes every group element, and copy tensors mask the assignments
    whose legs disagree."""
    g, G = net.graph, net.group
    odd_cols = {w: list(net.legs[w]) or [w] for w in g.odd_vertices}
    labels = [e.id for e in g.edges] + [w for w in g.odd_vertices if not net.legs[w]]
    entries = {}
    for combo in itertools.product(range(G.order), repeat=len(labels)):
        val = dict(zip(labels, combo))
        if any(len({val[c] for c in cols}) > 1 for cols in odd_cols.values()):
            continue
        key = []
        for v in g.vertex_ids:
            if g.parity(v) == "odd":
                key.append(val[odd_cols[v][0]])
                continue
            word = 0
            for eid, sense in zip(net.legs[v], net.senses[v]):
                if sense == "out":
                    word = int(G.table[val[eid], word])
            for eid, sense in zip(net.legs[v], net.senses[v]):
                if sense == "in":
                    word = int(G.table[word, G.inverse[val[eid]]])
            key.append(word)
        entries[tuple(key)] = entries.get(tuple(key), 0.0) + 1.0
    return entries


@pytest.mark.parametrize("graph", [
    # o1 carries three legs, o0 two
    general_small,
    # an isolated odd site next to a two-leg odd site with parallel edges
    lambda: build_graph("isolated", [("v", "even"), ("w", "odd"), ("u", "odd")],
                        [Edge("p", "w", "v"), Edge("q", "v", "w")]),
])
def test_contraction_matches_bond_enumeration(graph):
    g = graph()
    net = build_peps(g, builtin_group("S3"))
    assert entries(contract(net)) == _bond_enumeration(net)
