"""Ring symmetry checks: both operator families fix the cluster state, obey
the expected composition/tensor/direct-sum laws, and refuse non-rings."""

from __future__ import annotations

import numpy as np
import pytest

from gcs.builder import build_cluster_state
from gcs.graphs import Edge, build_graph, line_graph, ring_graph
from gcs import symmetry
from gcs.groups import (FiniteGroup, builtin_group, catalog_names,
                        rep_direct_sum, rep_tensor)
from gcs.states import Register, SparseState, fidelity, random_state
from gcs.symmetry import ring_even_cycle, verify_symmetry_algebra
from helpers import entries
from references import apply_u_even, apply_u_odd, residual_norm


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("gname", ["Z2", "Z3", "S3"])
def test_both_families_fix_the_ring_cluster_state(n, gname):
    G = builtin_group(gname)
    g = ring_graph(n)
    psi = build_cluster_state(g, G)
    for x in range(G.order):
        out = apply_u_odd(psi, g, x)
        assert residual_norm(out, psi) < 1e-10 * psi.norm()
    for r in G.irreps:
        out = apply_u_even(psi, g, r.label)
        assert residual_norm(out, psi) < 1e-10 * psi.norm()


def test_even_cycle_order_on_builtin_ring():
    g = ring_graph(6)
    assert ring_even_cycle(g) == ("0", "2", "4")


def test_unnormalized_even_weight_is_dimension_on_cluster_state():
    G = builtin_group("S3")
    g = ring_graph(4)
    psi = build_cluster_state(g, G)
    out = apply_u_even(psi, g, "std", normalized=False)
    assert residual_norm(out, SparseState(psi.register, psi.codes, 2 * psi.amps)) < 1e-10


def test_algebra_report_all_rings():
    G = builtin_group("S3")
    g = ring_graph(4)
    report = verify_symmetry_algebra(g, G, rng=np.random.default_rng(9), states=10)
    assert set(report) == {
        "odd_composition",
        "odd_identity",
        "even_trivial_identity",
        "even_tensor",
        "even_direct_sum",
        "odd_even_commutation",
    }
    assert max(report.values()) < 1e-10, report


def test_order_two_relations():
    # for the two-element group the two families generate commuting
    # involutions: each squares to the identity
    G = builtin_group("Z2")
    g = ring_graph(6)
    reg = Register(G, g.vertex_ids)
    rng = np.random.default_rng(4)
    for _ in range(10):
        psi = random_state(reg, rng, 30).normalized()
        twice = apply_u_odd(apply_u_odd(psi, g, 1), g, 1)
        assert residual_norm(twice, psi) < 1e-12
        ee = apply_u_even(apply_u_even(psi, g, "w1", normalized=False), g, "w1",
                          normalized=False)
        assert residual_norm(ee, psi) < 1e-12
        sq = rep_tensor(G.irrep("w1"), G.irrep("w1"))
        assert residual_norm(apply_u_even(psi, g, sq, normalized=False), psi) < 1e-12


def test_even_operator_is_basis_diagonal_but_not_identity():
    G = builtin_group("Z3")
    g = ring_graph(4)
    reg = Register(G, g.vertex_ids)
    rng = np.random.default_rng(8)
    psi = random_state(reg, rng, 50).normalized()
    out = apply_u_even(psi, g, "w1", normalized=False)
    assert np.array_equal(out.keys, psi.keys)  # same canonical key set
    assert residual_norm(out, psi) > 1e-3


def test_open_chain_and_bad_orientation_rejected():
    G = builtin_group("Z3")
    line = line_graph(4, "e")
    psi = build_cluster_state(line, G)
    with pytest.raises(ValueError, match="closed ring"):
        apply_u_odd(psi, line, 1)
    with pytest.raises(ValueError, match="closed ring"):
        apply_u_even(psi, line, "w1")
    with pytest.raises(ValueError, match="closed ring"):
        verify_symmetry_algebra(line, G)
    # a ring where one odd vertex controls both of its edges cannot
    # telescope, so it is rejected even though degrees all equal 2
    bad = build_graph(
        "bad-ring",
        [("0", "even"), ("1", "odd"), ("2", "even"), ("3", "odd")],
        [Edge("e0", "1", "0"), Edge("e1", "1", "2"),
         Edge("e2", "2", "3"), Edge("e3", "0", "3")],
    )
    with pytest.raises(ValueError, match="controls both"):
        ring_even_cycle(bad)


def test_odd_symmetry_composition_matches_group():
    G = builtin_group("S3")
    g = ring_graph(4)
    psi = build_cluster_state(g, G)
    reg = Register(G, g.vertex_ids)
    rng = np.random.default_rng(2)
    chi = random_state(reg, rng, 40).normalized()
    for a in range(6):
        for b in range(6):
            lhs = apply_u_odd(apply_u_odd(chi, g, b), g, a)
            rhs = apply_u_odd(chi, g, G.table[a, b])
            assert residual_norm(lhs, rhs) < 1e-12
    assert fidelity(apply_u_odd(psi, g, 3), psi) == pytest.approx(1.0)


def test_odd_symmetry_matches_digit_loop():
    # every odd digit right-multiplied by x^-1, written out key by key
    G = builtin_group("S3")
    g = ring_graph(8)
    reg = Register(G, g.vertex_ids)
    chi = random_state(reg, np.random.default_rng(5), 40)
    odd = [reg.axis(w) for w in g.odd_vertices]
    for x in range(G.order):
        want = {}
        for key, amp in entries(chi).items():
            key = list(key)
            for c in odd:
                key[c] = int(G.table[key[c], G.inverse[x]])
            want[tuple(key)] = amp
        out = apply_u_odd(chi, g, x)
        assert entries(out) == want
        assert np.all(np.diff(out.codes) > 0)


def _algebra_via_reference_operators(g, G, rng, states):
    """verify_symmetry_algebra's residuals, taken with the reference operators
    that validate the ring on every call: the per-state reference, one
    operator call per state, element pair and irrep."""
    checks = dict.fromkeys(("odd_composition", "odd_identity",
                            "even_trivial_identity", "even_tensor",
                            "even_direct_sum", "odd_even_commutation"), 0.0)
    reg = Register(G, g.vertex_ids)
    n = G.order
    pairs = [(a, b) for a in range(n) for b in range(n)]
    if len(pairs) > 36:
        idx = rng.choice(len(pairs), size=36, replace=False)
        pairs = [pairs[i] for i in idx]

    def odd(state, x):
        return apply_u_odd(state, g, x)

    def even(state, rep):
        return apply_u_even(state, g, rep, normalized=False)

    def note(name, lhs, rhs):
        checks[name] = max(checks[name], residual_norm(lhs, rhs))

    for _ in range(states):
        psi = random_state(reg, rng, 40).normalized()
        for a, b in pairs:
            note("odd_composition", odd(odd(psi, b), a), odd(psi, G.table[a, b]))
        note("odd_identity", odd(psi, 0), psi)
        note("even_trivial_identity", even(psi, G.irreps[0]), psi)
        for r1 in G.irreps:
            for r2 in G.irreps:
                note("even_tensor", even(psi, rep_tensor(r1, r2)),
                     even(even(psi, r1), r2))
                a, b = even(psi, r1), even(psi, r2)
                note("even_direct_sum", even(psi, rep_direct_sum(r1, r2)),
                     SparseState(reg, np.append(a.codes, b.codes),
                                 np.append(a.amps, b.amps)))
        for x in {1 % n, n - 1}:
            for r in G.irreps:
                note("odd_even_commutation", even(odd(psi, x), r),
                     odd(even(psi, r), x))
    return checks


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("gname", ["S3", "Q8"])
def test_algebra_validates_the_ring_once(n, gname, monkeypatch):
    G = builtin_group(gname)
    g = ring_graph(n)
    calls = []

    def counted(graph):
        calls.append(graph)
        return ring_even_cycle(graph)

    monkeypatch.setattr(symmetry, "ring_even_cycle", counted)
    report = verify_symmetry_algebra(g, G, rng=np.random.default_rng(n),
                                     states=3)
    assert calls == [g]
    monkeypatch.undo()
    want = _algebra_via_reference_operators(g, G, np.random.default_rng(n), 3)
    assert report == want
    assert max(report.values()) <= 1e-10


@pytest.mark.parametrize("states", [1, 5])
@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("gname", catalog_names())
def test_stacked_algebra_matches_the_per_state_reference(gname, n, states):
    # the stacked passes sum every residual as the per-operator path does,
    # so even the rounding-level tensor and direct-sum residuals agree
    G = builtin_group(gname)
    g = ring_graph(n)
    report = verify_symmetry_algebra(g, G, rng=np.random.default_rng(n),
                                     states=states)
    assert report == _algebra_via_reference_operators(
        g, G, np.random.default_rng(n), states)
    assert max(report.values()) <= 1e-10


def test_corrupted_table_breaks_odd_composition():
    # Z3 with one wrong product: right multiplication no longer composes
    # as the table says, and the stacked check must see it
    Z3 = builtin_group("Z3")
    table = Z3.table.copy()
    table[1, 2] = 1
    G = FiniteGroup("Z3-corrupt", 3, table, Z3.inverse, Z3.labels, Z3.irreps)
    g = ring_graph(6)
    report = verify_symmetry_algebra(g, G, rng=np.random.default_rng(0),
                                     states=2)
    assert report["odd_composition"] > 0.1
