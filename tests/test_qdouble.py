"""Quantum-double preparation, operator families, dressing, and the
independent order-2 reference."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from gcs.groups import builtin_group
from gcs.qdouble import (
    _mini_prepare,
    _mini_star_operator,
    build_qd_lattice,
    conjugacy_class_projection_check,
    dressed_star,
    link_register,
    prepare_qd_with_measurement,
    qd_cluster_graph,
    random_plaquette_outcomes,
    qd_stabilizers,
    sector_matched_fidelity,
    shifted_plaquette,
    star_operator,
    wilson_cycles,
    z2_toric_reference,
)
from gcs.stabilizers import verify
from gcs.states import fidelity, random_state

GROUPS = {name: builtin_group(name) for name in ("Z2", "Z3", "S3")}
Z2, Z3, S3 = GROUPS["Z2"], GROUPS["Z3"], GROUPS["S3"]


# --- Lattice geometry ---


def test_lattice_counts():
    lat = build_qd_lattice(2, 2)
    assert len(lat.links) == 8
    assert len(lat.plaquettes) == 4
    assert len(lat.stars) == 4
    assert sum(p.clockwise for p in lat.plaquettes) == 2
    assert sorted(s.kind for s in lat.stars) == ["h", "h", "v", "v"]
    big = build_qd_lattice(4, 4)
    assert (len(big.links), len(big.plaquettes), len(big.stars)) == (32, 16, 16)


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (1, 2), (2, 1), (3, 3)])
def test_lattice_rejects_bad_dimensions(dims):
    with pytest.raises(ValueError):
        build_qd_lattice(*dims)


def test_link_orientations_alternate():
    lat = build_qd_lattice(2, 2)
    # even-parity horizontal links point in -x, odd-parity in +x
    assert lat.link("h[0,0]").tail == (1, 0) and lat.link("h[0,0]").head == (0, 0)
    assert lat.link("h[1,0]").tail == (1, 0) and lat.link("h[1,0]").head == (0, 0)
    assert lat.link("v[0,0]").tail == (0, 0) and lat.link("v[0,0]").head == (0, 1)
    assert lat.link("v[1,0]").tail == (1, 1) and lat.link("v[1,0]").head == (1, 0)


def test_star_kinds_match_inbound_pattern():
    # h-kind stars: horizontals in, verticals out; v-kind the reverse
    for dims in [(2, 2), (2, 4), (4, 4)]:
        lat = build_qd_lattice(*dims)
        for s in lat.stars:
            for slot in ("L", "R"):
                assert s.inbound[slot] == (s.kind == "h")
            for slot in ("U", "D"):
                assert s.inbound[slot] == (s.kind == "v")


def test_plaquette_words():
    lat = build_qd_lattice(2, 2)
    p = lat.plaquette("p[0,0]")
    assert p.clockwise
    assert p.word == ("v[0,0]", "h[0,0]", "v[1,0]", "h[0,1]")
    q = lat.plaquette("p[1,0]")
    assert not q.clockwise
    assert q.word == ("v[0,0]", "h[1,0]", "v[1,0]", "h[1,1]")


def test_every_link_in_two_plaquettes_and_two_stars():
    lat = build_qd_lattice(2, 4)
    in_p = {lk.id: 0 for lk in lat.links}
    for p in lat.plaquettes:
        for lid in p.slots.values():
            in_p[lid] += 1
    assert set(in_p.values()) == {2}
    in_s = {lk.id: 0 for lk in lat.links}
    for s in lat.stars:
        for lid in s.slots.values():
            in_s[lid] += 1
    assert set(in_s.values()) == {2}


# --- Cluster realization ---


def test_cluster_graph_shape():
    lat = build_qd_lattice(2, 2)
    g = qd_cluster_graph(lat)
    assert len(g.vertices) == 16
    assert len(g.edges) == 32
    assert len(g.odd_vertices) == 8
    # plaquette gate readings: clockwise U,R,D,L / counterclockwise U,L,D,R
    assert g.orderings["p[0,0]"] == tuple(
        f"g_p[0,0]_{s}" for s in ("U", "R", "D", "L")
    )
    assert g.orderings["p[1,0]"] == tuple(
        f"g_p[1,0]_{s}" for s in ("U", "L", "D", "R")
    )


def test_prepared_support_is_flat():
    lat = build_qd_lattice(2, 2)
    for G in (Z2, Z3):
        psi = prepare_qd_with_measurement(lat, G)[0]
        reg = psi.register
        assert reg.sites == tuple(lk.id for lk in lat.links)
        for p in lat.plaquettes:
            cols = [reg.axis(lid) for lid in p.word]
            hol = psi.keys[:, cols[0]].copy()
            for c in cols[1:]:
                hol = G.table[hol, psi.keys[:, c]]
            assert np.all(hol == 0)


def test_z2_prepared_key_count():
    # 8 links, 3 independent parity constraints: 32 flat configurations
    lat = build_qd_lattice(2, 2)
    psi = prepare_qd_with_measurement(lat, Z2)[0]
    assert len(psi) == 32
    mags = np.abs(psi.amps)
    assert np.max(mags) - np.min(mags) < 1e-12


# --- Operator families fix the prepared state ---


@pytest.mark.parametrize("gname", ["Z2", "Z3", "S3"])
def test_stabilizers_fix_ground_state_2x2(gname):
    G = GROUPS[gname]
    lat = build_qd_lattice(2, 2)
    psi = prepare_qd_with_measurement(lat, G)[0]
    residuals = verify(qd_stabilizers(lat, G), psi)
    worst = max(residuals, key=residuals.get)
    assert residuals[worst] <= 1e-10, worst


def test_stabilizers_fix_ground_state_2x4_z2():
    lat = build_qd_lattice(2, 4)
    psi = prepare_qd_with_measurement(lat, Z2)[0]
    residuals = verify(qd_stabilizers(lat, Z2), psi)
    worst = max(residuals, key=residuals.get)
    assert residuals[worst] <= 1e-10, worst


def test_star_composition_law():
    lat = build_qd_lattice(2, 2)
    reg = link_register(lat, S3)
    rng = np.random.default_rng(11)
    psi = random_state(reg, rng, n_keys=150)
    for sid in ("s[0,0]", "s[1,0]"):
        for g, h in [(1, 3), (3, 4), (2, 5)]:
            gh = int(S3.table[g, h])
            lhs = star_operator(lat, S3, sid, g).apply(
                star_operator(lat, S3, sid, h).apply(psi)
            )
            rhs = star_operator(lat, S3, sid, gh).apply(psi)
            assert lhs.add(rhs.scaled(-1.0)).norm() < 1e-10


def test_star_plaquette_commutation():
    lat = build_qd_lattice(2, 2)
    reg = link_register(lat, S3)
    rng = np.random.default_rng(12)
    psi = random_state(reg, rng, n_keys=120)
    for s in lat.stars:
        for p in lat.plaquettes:
            A = star_operator(lat, S3, s.id, 3)
            B = shifted_plaquette(lat, S3, p.id, 0)
            ab = A.apply(B.apply(psi))
            ba = B.apply(A.apply(psi))
            assert ab.add(ba.scaled(-1.0)).norm() < 1e-10


# --- Independent order-2 reference ---


def test_toric_reference_matches_projection():
    for dims in [(2, 2), (2, 4)]:
        lat = build_qd_lattice(*dims)
        psi = prepare_qd_with_measurement(lat, Z2)[0]
        assert sector_matched_fidelity(lat, psi) > 1 - 1e-10


def test_wilson_cycles_are_rows_and_columns():
    lat = build_qd_lattice(2, 4)
    row, col = wilson_cycles(lat)
    assert row == ("h[0,0]", "h[1,0]")
    assert col == ("v[0,0]", "v[0,1]", "v[0,2]", "v[0,3]")


def test_toric_reference_is_uniform_flat():
    lat = build_qd_lattice(2, 2)
    ref = z2_toric_reference(lat, Z2)
    assert len(ref) == 32
    assert np.allclose(np.abs(ref.amps), 1 / np.sqrt(32))
    with pytest.raises(ValueError):
        z2_toric_reference(lat, Z3)


# --- Measured variants ---


def test_identity_outcomes_reduce_to_projection():
    lat = build_qd_lattice(2, 2)
    psi = prepare_qd_with_measurement(lat, S3)[0]
    identity = {p.id: S3.labels[0] for p in lat.plaquettes}
    phi, stabs = prepare_qd_with_measurement(lat, S3, identity)
    assert fidelity(psi, phi) > 1 - 1e-12
    labels = list(stabs)
    # every plaquette projector and the full star family survive at m == e
    assert sum(lab.startswith("B[") for lab in labels) == 4
    assert sum(lab.startswith("A[") for lab in labels) == 4 * S3.order
    for s in lat.stars:
        for g in range(S3.order):
            elems = {"U": g, "D": g, "L": g, "R": g}
            op = dressed_star(lat, S3, s.id, g, {})
            assert op is not None
            for slot, lid in s.slots.items():
                want = "XL" if s.inbound[slot] else "XR"
                (f,) = op.factors_at(lid)
                assert f.kind == want
                assert f.word.evaluate(S3, {}) == elems[slot]


# S3 seeds 0 and 1 put a 3-cycle on a "v" star's end quadrant, where
# m^-1 a m and m a m^-1 differ; D4 and Q8 cannot tell them apart (m^2 is
# central in both)
@pytest.mark.parametrize("gname,seed", [("Z2", 5), ("Z3", 6), ("S3", 7),
                                        ("S3", 0), ("S3", 1)])
def test_shifted_outcomes_verify(gname, seed):
    G = GROUPS[gname]
    lat = build_qd_lattice(2, 2)
    rng = np.random.default_rng(seed)
    outcomes = random_plaquette_outcomes(lat, G, rng)
    state, stabs = prepare_qd_with_measurement(lat, G, outcomes)
    residuals = verify(stabs, state)
    worst = max(residuals, key=residuals.get)
    assert residuals[worst] <= 1e-10, worst
    # support carries exactly the requested holonomies
    reg = state.register
    for p in lat.plaquettes:
        cols = [reg.axis(lid) for lid in p.word]
        hol = state.keys[:, cols[0]].copy()
        for c in cols[1:]:
            hol = G.table[hol, state.keys[:, c]]
        assert np.all(hol == outcomes[p.id])


def test_outcomes_accept_labels():
    lat = build_qd_lattice(2, 2)
    # consistent on a 2x2 torus: outcomes on the two readings balance
    outcomes = {"p[0,0]": "1", "p[1,0]": "2", "p[0,1]": "2", "p[1,1]": "0"}
    state, _ = prepare_qd_with_measurement(lat, Z3, outcomes)
    assert state.norm() > 0
    with pytest.raises(KeyError):
        prepare_qd_with_measurement(lat, Z3, {"p[9,9]": 0})


def test_inconsistent_outcomes_annihilate():
    lat = build_qd_lattice(2, 2)
    with pytest.raises(ValueError, match="inconsistent"):
        prepare_qd_with_measurement(lat, Z2, {"p[0,0]": 1})


def test_preparation_is_deterministic():
    lat = build_qd_lattice(2, 2)
    a = prepare_qd_with_measurement(lat, Z3)[0]
    b = prepare_qd_with_measurement(lat, Z3)[0]
    assert np.array_equal(a.keys, b.keys)
    assert np.array_equal(a.amps, b.amps)


# --- Dressing walk against a brute-force pairing oracle ---


def _quadrants_of(lat, s):
    x, y, l1, l2 = s.x, s.y, lat.l1, lat.l2
    return [
        (f"p[{x},{y}]", "U", "R"),
        (f"p[{x},{(y - 1) % l2}]", "R", "D"),
        (f"p[{(x - 1) % l1},{(y - 1) % l2}]", "D", "L"),
        (f"p[{(x - 1) % l1},{y}]", "L", "U"),
    ]


def _oracle_pairs(lat, G, s, pid, slot_a, slot_b, m, psi):
    """All (a, b) leg elements that commute with the shifted plaquette,
    found by direct application to a random state."""
    B = shifted_plaquette(lat, G, pid, m)
    pairs = set()
    for a, b in itertools.product(range(G.order), repeat=2):
        elems = {slot: 0 for slot in ("U", "D", "L", "R")}
        elems[slot_a], elems[slot_b] = a, b
        D = star_operator(lat, G, s.id, 0, per_link=elems)
        lhs = D.apply(B.apply(psi))
        rhs = B.apply(D.apply(psi))
        if lhs.add(rhs.scaled(-1.0)).norm() < 1e-9:
            pairs.add((a, b))
    return pairs


@pytest.mark.parametrize("dims", [(2, 2), (2, 4), (4, 2), (4, 4), (6, 6)],
                         ids=["2x2", "2x4", "4x2", "4x4", "6x6"])
def test_quadrants_have_the_two_dressing_shapes(dims):
    # dressed_star relies on these: neighbours in a reading (earlier leg
    # outbound, later inbound) or its two ends (first inbound, last outbound)
    lat = build_qd_lattice(*dims)
    for s in lat.stars:
        ends = []
        for pid, fr, to in _quadrants_of(lat, s):
            word = lat.plaquette(pid).word
            first, last = sorted((fr, to), key=lambda k: word.index(s.slots[k]))
            at = (word.index(s.slots[first]), word.index(s.slots[last]))
            if at == (0, 3):
                assert s.inbound[first] and not s.inbound[last]
                ends.append((fr, to))
            else:
                assert at[1] - at[0] == 1
                assert not s.inbound[first] and s.inbound[last]
        assert ends == ([] if s.kind == "h" else [("R", "D"), ("D", "L")])


@pytest.mark.parametrize("sid", ["s[0,0]", "s[1,0]"])
@pytest.mark.parametrize("gname", ["S3", "D4", "Q8"])
def test_dressing_walk_matches_pairwise_oracle(gname, sid):
    G = builtin_group(gname)
    lat = build_qd_lattice(2, 2)
    rng = np.random.default_rng(23)
    outcomes = random_plaquette_outcomes(lat, G, rng)
    s = lat.star(sid)
    psi = random_state(link_register(lat, G), rng, n_keys=60)
    quads = _quadrants_of(lat, s)
    pair_sets = {
        (fr, to): _oracle_pairs(lat, G, s, pid, fr, to, outcomes[pid], psi)
        for pid, fr, to in quads
    }
    for g in range(G.order):
        op = dressed_star(lat, G, sid, g, outcomes)
        # oracle: does any chain U->R->D->L->U close with a_U == g?
        chains = [g]
        reachable = {"U": {g}}
        for (fr, to), pairs in pair_sets.items():
            reachable[to] = {b for a, b in pairs if a in reachable[fr]}
        closes = g in reachable["U"]
        assert (op is not None) == closes
        if op is not None:
            elems = {
                slot: op.factors_at(s.slots[slot])[0].word.evaluate(G, {})
                for slot in ("U", "D", "L", "R")
            }
            assert elems["U"] == g
            for (fr, to), pairs in pair_sets.items():
                assert (elems[fr], elems[to]) in pairs


def test_h_star_plain_for_any_outcomes():
    lat = build_qd_lattice(2, 2)
    rng = np.random.default_rng(31)
    outcomes = random_plaquette_outcomes(lat, S3, rng)
    for s in lat.stars:
        if s.kind != "h":
            continue
        for g in range(S3.order):
            op = dressed_star(lat, S3, s.id, g, outcomes)
            assert op is not None
            for slot, lid in s.slots.items():
                assert op.factors_at(lid)[0].word.evaluate(S3, {}) == g


# --- Single-vertex class phenomenology ---


def _class_separated(report):
    """The class keeps every star element, the centralizer fixes the
    pinned state and every other element moves it (``inf``: none other)."""
    return (report["residual_class_uniform"] <= 1e-10
            and report["residual_centralizer"] <= 1e-10
            and report["min_residual_outside_centralizer"] > 1e-3)


def test_class_projection_keeps_all_star_elements():
    rep = S3.element("(123)")
    report = conjugacy_class_projection_check(S3, rep)
    assert set(report) == {"class", "residual_class_uniform",
                           "residual_centralizer",
                           "min_residual_outside_centralizer"}
    assert sorted(report["class"]) == sorted(["(123)", "(132)"])
    assert _class_separated(report), report


def test_class_projection_transposition_and_identity():
    rep = S3.element("(12)")
    report = conjugacy_class_projection_check(S3, rep)
    assert _class_separated(report), report
    assert len(report["class"]) == 3
    ident = conjugacy_class_projection_check(S3, 0)
    assert ident["min_residual_outside_centralizer"] == np.inf
    assert _class_separated(ident), ident


def test_mismatched_pinning_annihilates():
    # holonomy consistency forces the NE outcome once SW, SE, NW are pinned
    h = S3.element("(12)")
    vecs = {}
    for red, out in (("SW", 0), ("SE", h), ("NW", 0), ("NE", 0)):
        v = np.zeros(S3.order)
        v[out] = 1.0
        vecs[red] = v
    psi = _mini_prepare(S3, vecs)
    assert psi.norm() < 1e-12


def test_mini_star_operator_abelian_case():
    # abelian groups: every element passes the pinned-outcome check
    h = 1
    vecs = {}
    for red, out in (("SW", 0), ("SE", h), ("NW", 0), ("NE", h)):
        v = np.zeros(Z3.order)
        v[out] = 1.0
        vecs[red] = v
    psi = _mini_prepare(Z3, vecs)
    psi = psi.normalized()
    for g in range(Z3.order):
        op = _mini_star_operator(Z3, g)
        assert op.apply(psi).add(psi.scaled(-1.0)).norm() < 1e-10
