"""The corpus is a frozen contract: graph inventory, seeded random families,
group pairings, and the battery result shape all pinned here so that reports
produced on different days stay comparable byte for byte."""

from __future__ import annotations

import numpy as np
import pytest

from gcs import stabilizers
from gcs.builder import build_cluster_state, schedule
from gcs.corpus import (
    build_corpus,
    corpus_battery,
    corpus_entry,
    corpus_pairs,
    derive_seed,
    stabilizer_residuals,
)
from gcs.graphs import scramble_ordering
from gcs.groups import builtin_group
from gcs.stabilizers import (
    PARAM,
    closed_form_stabilizers,
    initial_stabilizers,
    propagate,
    stabilizers_agree_on_random_states,
)
from gcs.states import group_basis_state, residual_norm, sample_states

EXPECTED_NAMES = (
    "line3e", "line3o", "line4e", "line5o", "line6e", "line7o", "line8e",
    "ring4", "ring6", "ring8",
    "general-small", "random-small", "random-medium",
    "qd2x2", "qd2x4",
)

# name -> (odd, even, edges)
EXPECTED_COUNTS = {
    "line3e": (1, 2, 2),
    "line3o": (2, 1, 2),
    "line4e": (2, 2, 3),
    "line5o": (3, 2, 4),
    "line6e": (3, 3, 5),
    "line7o": (4, 3, 6),
    "line8e": (4, 4, 7),
    "ring4": (2, 2, 4),
    "ring6": (3, 3, 6),
    "ring8": (4, 4, 8),
    "general-small": (3, 3, 7),
    "random-small": (4, 3, 7),
    "random-medium": (8, 4, 12),
    "qd2x2": (8, 8, 32),
    "qd2x4": (16, 16, 64),
}

FIVE_GROUPS = ("Z2", "Z3", "Z4", "S3", "D4")
EXPECTED_GROUPS = {
    "random-medium": ("Z2", "Z3"),
    "qd2x2": ("Z2", "Z3", "S3"),
    "qd2x4": ("Z2",),
}

# the seeded families never move: (edge id, tail, head)
RANDOM_SMALL_EDGES = (
    ("e0", "o0", "v0"),
    ("e1", "v0", "o1"),
    ("e2", "o2", "v2"),
    ("e3", "o3", "v2"),
    ("e4", "v0", "o1"),  # deliberate parallel of e1: multigraph coverage
    ("e5", "v1", "o3"),
    ("e6", "v2", "o0"),
)
RANDOM_MEDIUM_EDGES = (
    ("e0", "o0", "v0"),
    ("e1", "o1", "v2"),
    ("e2", "v0", "o2"),
    ("e3", "v2", "o3"),
    ("e4", "v3", "o4"),
    ("e5", "v0", "o5"),
    ("e6", "v0", "o6"),
    ("e7", "o7", "v1"),
    ("e8", "o7", "v0"),
    ("e9", "v1", "o2"),
    ("e10", "v2", "o1"),
    ("e11", "o4", "v3"),
)


def test_entry_names_and_order():
    assert tuple(e.name for e in build_corpus()) == EXPECTED_NAMES


def test_entry_counts():
    for e in build_corpus():
        g = e.graph
        got = (len(g.odd_vertices), len(g.even_vertices), len(g.edges))
        assert got == EXPECTED_COUNTS[e.name], e.name


def test_group_pairings():
    total = 0
    for e in build_corpus():
        expected = EXPECTED_GROUPS.get(e.name, FIVE_GROUPS)
        assert e.groups == expected, e.name
        total += len(e.groups)
    assert total == 66


def test_random_graphs_frozen():
    small = corpus_entry("random-small").graph
    assert tuple((ed.id, ed.tail, ed.head) for ed in small.edges) \
        == RANDOM_SMALL_EDGES
    medium = corpus_entry("random-medium").graph
    assert tuple((ed.id, ed.tail, ed.head) for ed in medium.edges) \
        == RANDOM_MEDIUM_EDGES


def test_build_corpus_deterministic():
    a, b = build_corpus(), build_corpus()
    assert len(a) == len(b)
    for ea, eb in zip(a, b):
        assert ea.name == eb.name
        assert ea.groups == eb.groups
        assert ea.graph.vertices == eb.graph.vertices
        assert ea.graph.edges == eb.graph.edges
        assert ea.graph.orderings == eb.graph.orderings


def test_corpus_entry_lookup():
    assert corpus_entry("ring6").name == "ring6"
    with pytest.raises(KeyError):
        corpus_entry("no-such-graph")


def test_corpus_pairs_filters():
    assert len(corpus_pairs()) == 66
    assert len(corpus_pairs(max_edges=8)) == 60
    z2 = corpus_pairs(groups=("Z2",))
    assert len(z2) == 15 and all(gname == "Z2" for _, gname in z2)
    qd = [(e, gname) for e, gname in corpus_pairs() if e.name.startswith("qd")]
    assert {e.name for e, _ in qd} == {"qd2x2", "qd2x4"} and len(qd) == 4


def test_enough_small_z2_graphs_for_qubit_reference():
    # the independent qubit-route reference is dense, so it needs graphs
    # whose full Hilbert space fits; at least ten must qualify
    small = [e for e, _ in corpus_pairs(groups=("Z2",))
             if len(e.graph.vertices) <= 16]
    assert len(small) >= 10


def test_derive_seed_stable():
    assert derive_seed(0, "line3e", "Z3", "even[v1]") == 1390894629
    assert derive_seed(0, "line3e", "Z3", "even[v1]") \
        != derive_seed(1, "line3e", "Z3", "even[v1]")


def test_battery_small_pair_golden():
    res = corpus_battery(corpus_entry("line3e"), "Z3")
    assert res["graph"] == "line3e" and res["group"] == "Z3"
    assert res["closed_form_max_residual"] == 0.0
    assert res["propagated_max_residual"] == 0.0
    assert res["routes_max_residual"] == 0.0
    assert res["checks_passed"] is True
    assert res["peps_fidelity"] == pytest.approx(1.0, abs=1e-12)
    # same inputs, same report
    assert corpus_battery(corpus_entry("line3e"), "Z3") == res


def test_battery_passes_on_varied_pairs():
    for name, gname in (("ring4", "S3"), ("random-small", "D4"),
                        ("general-small", "Z4")):
        res = corpus_battery(corpus_entry(name), gname)
        assert res["checks_passed"], (name, gname, res)


def test_battery_contracts_the_torus():
    # 32 bonds but only 2^8 rows, one per assignment of the odd sites
    res = corpus_battery(corpus_entry("qd2x2"), "Z2")
    assert res["peps_fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert res["checks_passed"]


def test_stabilizer_residuals_routes():
    entry = corpus_entry("general-small")
    G = builtin_group("S3")
    psi = build_cluster_state(entry.graph, G)
    full = stabilizer_residuals(entry.graph, G, psi, seed=3)
    assert list(full) == ["closed", "propagated", "routes"]
    assert list(full["routes"]) == list(full["closed"])
    assert set(full["closed"]) == set(full["propagated"])
    assert max(max(r.values()) for r in full.values()) <= 1e-10
    bare = stabilizer_residuals(entry.graph, G, psi, seed=3, routes_states=0)
    assert bare == {**full, "routes": {}}


# --- Families against one label at a time ---


def _pair_rng(seed, g, G):
    return np.random.default_rng(derive_seed(seed, g.name, G.name))


def _per_label(g, G, psi, seed):
    """The three residual maps of ``stabilizer_residuals``, one operator
    at a time; each label's route check draws the pair's states from a
    fresh generator of the pair's seed."""
    closed = closed_form_stabilizers(g, G)
    propagated = propagate(schedule(g), initial_stabilizers(g, G))
    norm = psi.norm()
    return {
        "closed": {lab: residual_norm(op.apply(psi), psi) / norm
                   for lab, op in closed.items()},
        "propagated": {lab: residual_norm(op.apply(psi), psi) / norm
                       for lab, op in propagated.items()},
        "routes": {lab: stabilizers_agree_on_random_states(
                       {"": op}, {"": propagated[lab]}, psi.register,
                       _pair_rng(seed, g, G), states=5, keys_per_state=64)[""]
                   for lab, op in closed.items()},
    }


def _perturbed(name, gname):
    # plus a basis vector off the state's support, which a stabilizer that
    # moves it leaves off the support: S psi and psi hold different codes
    g, G = corpus_entry(name).graph, builtin_group(gname)
    psi = build_cluster_state(g, G)
    reg = psi.register
    off = np.setdiff1d(np.arange(reg.dimension), psi.codes)[0]
    kick = group_basis_state(reg, reg.digit_table(np.array([off]))[:, 0])
    return g, G, psi.add(kick.scaled(0.3))


def _scrambled():
    # the state of general-small checked against the stabilizers of the
    # graph with e1's gate order rotated: a negative control
    g, G = corpus_entry("general-small").graph, builtin_group("S3")
    return scramble_ordering(g, "e1"), G, build_cluster_state(g, G)


@pytest.mark.parametrize("case", [
    _scrambled,
    lambda: _perturbed("general-small", "S3"),  # every family in one pass
    lambda: _perturbed("ring8", "S3"),  # 1,296 rows: three members a pass
    lambda: _perturbed("random-medium", "Z3"),  # 6,561 rows: one a pass
])
def test_families_reproduce_the_per_label_residuals(case):
    g, G, psi = case()
    batched = stabilizer_residuals(g, G, psi, seed=3)
    assert batched == _per_label(g, G, psi, seed=3)
    closed = closed_form_stabilizers(g, G)
    assert list(batched["closed"]) == list(closed)
    assert any(not np.array_equal(op.apply(psi).codes, psi.codes)
               for op in closed.values())
    assert max(batched["closed"].values()) > 0.01
    assert max(batched["propagated"].values()) > 0.01


def test_family_route_check_reproduces_the_per_label_check():
    # the closed forms of one ordering against the propagation of another:
    # route residuals far from zero
    g, G = corpus_entry("general-small").graph, builtin_group("S3")
    g2 = scramble_ordering(g, "e1")
    closed = closed_form_stabilizers(g, G)
    propagated = propagate(schedule(g2), initial_stabilizers(g2, G))
    reg = build_cluster_state(g, G).register
    batched = stabilizers_agree_on_random_states(
        closed, propagated, reg, _pair_rng(3, g, G), 5, 64)
    assert batched == {
        lab: stabilizers_agree_on_random_states(
            {"": op}, {"": propagated[lab]}, reg, _pair_rng(3, g, G), 5, 64)[""]
        for lab, op in closed.items()}
    assert max(batched.values()) > 0.1


def test_mismatch_planted_in_one_member_shows_on_that_label_only():
    # one member of one propagated family rebound to another element: it
    # still acts in its family's pass, and only its label disagrees
    g, G = corpus_entry("general-small").graph, builtin_group("S3")
    closed = closed_form_stabilizers(g, G)
    propagated = propagate(schedule(g), initial_stabilizers(g, G))
    w = g.odd_vertices[1]
    planted = f"odd[{w},{G.labels[2]}]"
    propagated[planted] = propagated[planted].bind({PARAM: 3})
    family = propagated[f"odd[{w},{G.labels[0]}]"].family
    assert propagated[planted].family is family
    reg = build_cluster_state(g, G).register
    routes = stabilizers_agree_on_random_states(
        closed, propagated, reg, _pair_rng(3, g, G), 5, 64)
    assert list(routes) == list(closed)
    assert routes[planted] > 0.1
    assert all(r == 0.0 for lab, r in routes.items() if lab != planted)


def test_stabilizer_residuals_draws_once_per_pair(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])  # count
        return sample_states(*args, **kwargs)

    monkeypatch.setattr(stabilizers, "sample_states", counted)
    g, G = corpus_entry("general-small").graph, builtin_group("S3")
    psi = build_cluster_state(g, G)
    res = stabilizer_residuals(g, G, psi, seed=3)
    assert len(res["routes"]) > 1
    assert calls == [5]
