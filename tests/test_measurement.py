"""Measurement phenomenology on the 3-site chains.

Measuring the middle of an even-odd-even chain in the group basis leaves a
perfectly correlated pair; the odd-even-odd chain leaves a maximally
entangled pair.  Representation-basis outcomes distinguish the two chains
more finely: the odd-even-odd post-state is maximally entangled within the
irrep's dimension, while the even-odd-even one is generically not flat.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from gcs.builder import build_cluster_state
from gcs.graphs import line_graph
from gcs.groups import builtin_group
from gcs.measurement import analyze_entanglement, measure, outcome_distribution
from gcs.states import Register, SparseState, fidelity, group_basis_state, random_state
from helpers import entries


def eoe_state(G):
    return build_cluster_state(line_graph(3, "eoe"), G)


def oeo_state(G):
    return build_cluster_state(line_graph(3, "oeo"), G)


@pytest.mark.parametrize("gname", ["Z2", "Z4", "S3", "D4"])
def test_distributions_sum_to_one(gname):
    G = builtin_group(gname)
    reg = Register(G, ("a", "b"))
    rng = np.random.default_rng(5)
    for _ in range(5):
        psi = random_state(reg, rng, 30)
        for basis in ("group", "rep"):
            dist = outcome_distribution(psi, "a", basis)
            assert abs(sum(p for _, p in dist) - 1.0) < 1e-10
            assert all(p >= -1e-12 for _, p in dist)


def test_group_distribution_matches_marginal_and_uniform_on_chain():
    G = builtin_group("S3")
    dist = outcome_distribution(eoe_state(G), "1", "group")
    assert [o for o, _ in dist] == list(G.labels)
    assert np.allclose([p for _, p in dist], 1 / 6, atol=1e-12)


def test_eoe_group_measurement_collapses_to_correlated_pair():
    G = builtin_group("S3")
    out = measure(eoe_state(G), "1", "group", forced="(12)")
    m = G.element("(12)")
    assert out.post_state.register.sites == ("0", "2")
    assert entries(out.post_state) == {(m, m): pytest.approx(1.0)}
    assert abs(out.probability - 1 / 6) < 1e-12
    ent = analyze_entanglement(out.post_state, ("0",))
    assert ent == {"rank": 1, "entropy": pytest.approx(0.0, abs=1e-12), "maximal": True}


def test_oeo_group_measurement_leaves_maximally_entangled_pair():
    G = builtin_group("S3")
    m = G.element("(123)")
    out = measure(oeo_state(G), "1", "group", forced="(123)")
    # middle digit is z0 z2^-1, so forcing it to m leaves sum_a |a, m^-1 a>
    want = {}
    for a in range(G.order):
        want[(a, G.table[G.inverse[m], a])] = 1 / np.sqrt(G.order)
    got = entries(out.post_state)
    assert set(got) == set(want)
    assert all(abs(got[k] - want[k]) < 1e-12 for k in want)
    ent = analyze_entanglement(out.post_state, ("0",))
    assert ent["rank"] == G.order
    assert abs(ent["entropy"] - np.log2(G.order)) < 1e-10
    assert ent["maximal"]


def test_eoe_rep_measurement_abelian_stays_maximal():
    G = builtin_group("Z4")
    out = measure(eoe_state(G), "1", "rep", forced=("w1", 0, 0))
    ent = analyze_entanglement(out.post_state, ("0",))
    assert ent["rank"] == 4 and ent["maximal"]


def test_eoe_rep_measurement_nonabelian_is_not_flat():
    G = builtin_group("S3")
    out = measure(eoe_state(G), "1", "rep", forced=("std", 0, 0))
    # post-state amplitudes follow the matrix entry, so the Schmidt spectrum
    # inherits its spread
    vals_sq = np.abs(G.irrep("std").matrices[:, 0, 0]) ** 2
    ent = analyze_entanglement(out.post_state, ("0",))
    assert not ent["maximal"]
    spread = vals_sq.max() - vals_sq.min()
    assert spread > 1e-3


def test_oeo_rep_measurement_maximal_within_irrep_dimension():
    G = builtin_group("S3")
    out = measure(oeo_state(G), "1", "rep", forced=("std", 0, 1))
    ent = analyze_entanglement(out.post_state, ("0",))
    assert ent["rank"] == 2
    assert abs(ent["entropy"] - 1.0) < 1e-8
    assert ent["maximal"]


def test_oeo_rep_post_state_closed_form():
    G = builtin_group("S3")
    d = 2
    i, j = 0, 1
    out = measure(oeo_state(G), "1", "rep", forced=("std", i, j))
    mats = G.irrep("std").matrices
    reg = out.post_state.register
    amps = {}
    for a in range(G.order):
        for b in range(G.order):
            w = np.conj(mats[G.table[a, G.inverse[b]], i, j])
            if abs(w) > 1e-14:
                amps[(a, b)] = w
    want = SparseState.from_dict(reg, amps)
    assert abs(fidelity(out.post_state, want) - 1.0) < 1e-10
    # the middle digit is uniform over the group, so every one of the |G|
    # representation-basis outcomes carries weight exactly 1/|G|
    dist = outcome_distribution(oeo_state(G), "1", "rep")
    probs = {o: p for o, p in dist}
    assert abs(probs[("std", i, j)] - 1 / G.order) < 1e-10


def test_forced_zero_probability_errors():
    G = builtin_group("Z3")
    reg = Register(G, ("a", "b"))
    psi = group_basis_state(reg, (1, 2))
    with pytest.raises(ValueError, match="zero probability"):
        measure(psi, "a", "group", forced="0")
    with pytest.raises(ValueError, match="not an outcome"):
        measure(psi, "a", "group", forced="nope")


def test_sampling_is_seeded_and_consistent():
    G = builtin_group("S3")
    psi = eoe_state(G)
    a = measure(psi, "1", "group", rng=np.random.default_rng(42))
    b = measure(psi, "1", "group", rng=np.random.default_rng(42))
    assert a.outcome == b.outcome
    assert fidelity(a.post_state, b.post_state) == pytest.approx(1.0)
    assert a.distribution == outcome_distribution(psi, "1", "group")
    with pytest.raises(ValueError, match="rng"):
        measure(psi, "1", "group")


def test_rep_basis_requires_complete_irrep_list():
    G = builtin_group("S3")
    partial = dataclasses.replace(G, irreps=G.irreps[:2])
    reg = Register(partial, ("a",))
    psi = group_basis_state(reg, (0,))
    with pytest.raises(ValueError, match="complete irrep list"):
        outcome_distribution(psi, "a", "rep")


def test_unknown_basis_rejected():
    G = builtin_group("Z2")
    psi = group_basis_state(Register(G, ("a",)), (0,))
    with pytest.raises(ValueError, match="basis"):
        outcome_distribution(psi, "a", "fourier")
