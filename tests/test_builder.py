import itertools

import numpy as np
import pytest

from gcs.builder import build_cluster_state, odd_assignments, schedule
from gcs.corpus import corpus_pairs
from gcs.graphs import (
    ClusterGraph,
    Edge,
    build_graph,
    line_graph,
    ring_graph,
)
from gcs.groups import builtin_group, group_from_json
from gcs.peps import build_peps, contract
from gcs.states import Register, SparseState, fidelity
from helpers import entries
from references import build_qubit_reference, multiply, scramble_ordering


def test_schedule_invariants():
    g = line_graph(5, "eoeoe")
    sched = schedule(g)
    assert sorted(gate.edge for gate in sched) == sorted(e.id for e in g.edges)
    # per-target order follows the stored vertex ordering
    for v in g.even_vertices:
        got = [gate.edge for gate in sched if gate.target == v]
        assert tuple(got) == g.orderings[v]
    # sense is left exactly for even->odd edges
    for gate in sched:
        e = g.edge(gate.edge)
        if gate.sense == "left":
            assert e.tail == gate.target and e.head == gate.control
        else:
            assert e.tail == gate.control and e.head == gate.target


@pytest.mark.parametrize("name", ["Z3", "S3"])
def test_eoe_state_closed_form(name):
    # e->o<-e with left gates: (1/sqrt|G|) sum_g |g,g,g>
    G = builtin_group(name)
    s = build_cluster_state(line_graph(3, "eoe"), G)
    n = G.order
    want = {(g, g, g): n ** (-0.5) for g in range(n)}
    assert entries(s) == pytest.approx(want)


@pytest.mark.parametrize("name", ["Z3", "S3"])
def test_oeo_state_closed_form(name):
    # o<-e<-o chain pattern: (1/|G|) sum_{g,h} |g, g h^-1, h>
    G = builtin_group(name)
    s = build_cluster_state(line_graph(3, "oeo"), G)
    n = G.order
    want = {
        (g, multiply(G, g, G.inverse[h]), h): 1.0 / n
        for g in range(n)
        for h in range(n)
    }
    assert entries(s) == pytest.approx(want)


def test_ring_even_values():
    # on the ring, even site s carries z_{s-1} z_{s+1}^{-1}
    G = builtin_group("S3")
    g = ring_graph(4)
    s = build_cluster_state(g, G)
    for key in s.keys.tolist():
        z = dict(zip(g.vertex_ids, key))
        for even, left, right in [("0", "3", "1"), ("2", "1", "3")]:
            assert z[even] == multiply(G, z[left], G.inverse[z[right]])


def test_all_outward_even_vertex_word_order():
    # degree-2 even vertex with two left gates: value is g2 g1 with g1 the
    # first edge in the vertex ordering
    G = builtin_group("S3")
    g = line_graph(3, "oeo", directions=["bwd", "fwd"])
    s = build_cluster_state(g, G)
    for key in s.keys.tolist():
        g0, v, g2 = key
        assert v == multiply(G, g2, g0)
    scr = build_cluster_state(scramble_ordering(g, "1"), G)
    for key in scr.keys.tolist():
        g0, v, g2 = key
        assert v == multiply(G, g0, g2)
    assert fidelity(s, scr) < 1 - 1e-6


def test_edgeless_graph():
    g = ClusterGraph("free", (("a", "odd"), ("b", "even")), (), {"b": ()})
    G = builtin_group("Z3")
    s = build_cluster_state(g, G)
    want = {(k, 0): 3 ** (-0.5) for k in range(3)}
    assert entries(s) == pytest.approx(want)


def test_key_count_is_group_power_odd():
    G = builtin_group("Z4")
    g = ring_graph(6)
    s = build_cluster_state(g, G)
    assert len(s) == 4 ** len(g.odd_vertices)
    assert s.norm() == pytest.approx(1.0)


@pytest.mark.parametrize("maker", [
    lambda: line_graph(3, "eoe"),
    lambda: line_graph(4, "oeoe"),
    lambda: line_graph(6, "eoeoeo"),
    lambda: ring_graph(4),
    lambda: ring_graph(8),
])
def test_z2_route_equivalence(maker):
    # group circuit vs Hadamard-on-even of the CPHASE cluster state
    G = builtin_group("Z2")
    g = maker()
    a = build_cluster_state(g, G)
    b = build_qubit_reference(g, G)
    assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)


def test_qubit_reference_rejects_other_groups():
    with pytest.raises(ValueError):
        build_qubit_reference(line_graph(3, "eoe"), builtin_group("Z3"))


def test_build_deterministic():
    G = builtin_group("S3")
    g = ring_graph(6)
    a = build_cluster_state(g, G)
    b = build_cluster_state(g, G)
    assert np.array_equal(a.keys, b.keys)
    assert np.array_equal(a.amps, b.amps)


# --- the grid against a per-row circuit ---


def _per_row_state(g, G):
    """The circuit applied row by row with ``multiply``/``G.inverse``: one
    row per odd assignment, the last odd vertex varying fastest, and each
    even vertex's gates taken from its stored ordering."""
    rows = []
    for assignment in itertools.product(range(G.order), repeat=len(g.odd_vertices)):
        digit = dict.fromkeys(g.vertex_ids, 0)
        digit.update(zip(g.odd_vertices, assignment))
        for v in sorted(g.even_vertices):
            for eid in g.orderings[v]:
                e = g.edge(eid)
                if e.tail == v:  # even -> odd: left multiplication
                    digit[v] = multiply(G, digit[e.head], digit[v])
                else:  # odd -> even: right multiplication by the inverse
                    digit[v] = multiply(G, digit[v], G.inverse[digit[e.tail]])
        rows.append([digit[v] for v in g.vertex_ids])
    reg = Register(G, g.vertex_ids)
    codes = reg.encode(np.array(rows, dtype=np.int64).reshape(len(rows), -1))
    amps = np.full(len(rows), G.order ** (-len(g.odd_vertices) / 2))
    return SparseState(reg, codes, amps)


def _assert_grid_matches_rows(g, G):
    psi = build_cluster_state(g, G)
    ref = _per_row_state(g, G)
    assert np.array_equal(psi.codes, ref.codes)
    assert np.array_equal(psi.amps, ref.amps)
    net = contract(build_peps(g, G))
    assert np.array_equal(net.codes, psi.codes)
    assert np.array_equal(net.amps, np.ones(len(psi)))


_SMALL_PAIRS = [
    (entry, gname) for entry, gname in corpus_pairs()
    if builtin_group(gname).order ** len(entry.graph.odd_vertices) <= 4096
]


@pytest.mark.parametrize("entry, gname", _SMALL_PAIRS,
                         ids=[f"{e.name}+{gname}" for e, gname in _SMALL_PAIRS])
def test_grid_matches_per_row_circuit_on_corpus(entry, gname):
    _assert_grid_matches_rows(entry.graph, builtin_group(gname))


def _odd_corners():
    """Odd and even vertices interleaved, parallel edges in both senses
    and in one sense, an isolated odd vertex and an even vertex with no
    edges."""
    vertices = [("a", "even"), ("p", "odd"), ("b", "even"), ("q", "odd"),
                ("lone", "even"), ("iso", "odd"), ("r", "odd")]
    edges = [Edge("e1", "a", "p"), Edge("e2", "p", "a"), Edge("e3", "q", "a"),
             Edge("e4", "a", "r"), Edge("e5", "p", "b"), Edge("e6", "p", "b"),
             Edge("e7", "b", "q"), Edge("e8", "b", "r"), Edge("e9", "a", "q")]
    return build_graph("corners", vertices, edges)


@pytest.mark.parametrize("gname", ["Z3", "S3", "Q8"])
def test_grid_matches_per_row_circuit_on_corner_cases(gname):
    G = builtin_group(gname)
    g = _odd_corners()
    _assert_grid_matches_rows(g, G)
    for v in ("a", "b"):  # every rotation of each gate ordering
        for k in range(1, len(g.orderings[v])):
            _assert_grid_matches_rows(scramble_ordering(g, v, k), G)
    _assert_grid_matches_rows(scramble_ordering(ring_graph(6), "0"), G)
    edgeless = ClusterGraph("free", (("a", "odd"), ("b", "even"), ("c", "odd")),
                            (), {"b": ()})
    _assert_grid_matches_rows(edgeless, G)


def _one_element_group():
    return group_from_json({
        "name": "Z1", "order": 1, "mul": [0], "inv": [0], "labels": ["e"],
        "irreps": [{"label": "A", "dim": 1, "matrices": [[[1, 0]]]}],
    })


def test_one_element_group_star_grid_has_no_axes():
    # 60 odd leaves would be 60 length-1 axes, past numpy 1.x's 32
    G = _one_element_group()
    leaves = [str(i) for i in range(60)]
    edges = [Edge(f"e{i}", "c", v) if i % 2 else Edge(f"e{i}", v, "c")
             for i, v in enumerate(leaves)]
    g = build_graph("star61", [("c", "even")] + [(v, "odd") for v in leaves],
                    edges)
    digits, codes = odd_assignments(g, Register(G, g.vertex_ids))
    assert codes.ndim <= 32 and all(d.ndim <= 32 for d in digits.values())
    psi = build_cluster_state(g, G)
    assert np.array_equal(psi.codes, [0]) and np.array_equal(psi.amps, [1.0])
    net = contract(build_peps(g, G))
    assert np.array_equal(net.codes, [0]) and np.array_equal(net.amps, [1.0])
    _assert_grid_matches_rows(g, G)
