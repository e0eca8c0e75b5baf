"""Stabilizer engine checks.

The gate conjugation rules are pinned against a brute-force oracle: build
the dense controlled-multiplication unitary U and compare the rewritten
operator's dense matrix against U S U^dagger entry by entry.  The closed
forms are then required to agree with circuit propagation in action, and
both must fix the states the circuit builder produces.
"""

from __future__ import annotations

import numpy as np
import pytest

from gcs.builder import build_cluster_state, schedule
from gcs.corpus import corpus_pairs, general_small_graph
from gcs.graphs import Edge, build_graph, line_graph, ring_graph
from gcs.groups import FiniteGroup, _mul, builtin_group
from gcs.qdouble import (
    build_qd_lattice,
    dressed_star,
    random_plaquette_outcomes,
    shifted_plaquette,
)
from gcs.stabilizers import (
    PARAM,
    STABILIZER_TOL,
    ConditionalMonomial,
    Factor,
    UnsupportedConjugation,
    Word,
    closed_form_even,
    closed_form_odd,
    closed_form_stabilizers,
    conjugate_by_cmult,
    initial_stabilizers,
    propagate,
    stabilizers_agree_on_random_states,
    verify,
)
from gcs.states import Register, SparseState, random_state, sample_states
from helpers import entries
from references import (css_stabilizers, dense, from_dict,
                        operators_agree_on_basis, pretty, pretty_word,
                        qd_stabilizers, residual_norm, scramble_ordering, zero)


def mono(G, variables, sites):
    return ConditionalMonomial(G, tuple(variables),
                               {s: tuple(fs) for s, fs in sites.items()})


def with_right(g, G):
    """The initial stabilizers plus each odd site's right multiplications,
    one family in PARAM per site."""
    stabs = initial_stabilizers(g, G)
    for w in g.odd_vertices:
        right = mono(G, (), {w: [Factor("XR", Word.var(PARAM))]})
        for e in range(G.order):
            stabs[f"odd-right[{w},{G.labels[e]}]"] = right.bind({PARAM: e})
    return stabs


def dense_cmult(G, sense):
    n = G.order
    U = np.zeros((n * n, n * n))
    for g in range(n):
        for k in range(n):
            out = G.table[g, k] if sense == "left" else G.table[k, G.inverse[g]]
            U[g * n + out, g * n + k] = 1.0
    return U


def dense_of(op, reg):
    n = reg.group.order
    dim = n ** reg.width
    M = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        key = []
        rest = idx
        for _ in range(reg.width):
            rest, d = divmod(rest, n)
            key.append(d)
        key = tuple(reversed(key))
        M[:, idx] = dense(op.apply(from_dict(reg, {key: 1.0})))
    return M


# --- Conjugation rule oracle ---


@pytest.mark.parametrize("gname", ["Z3", "S3"])
@pytest.mark.parametrize("sense", ["left", "right"])
def test_conjugation_rules_match_dense_oracle(gname, sense):
    G = builtin_group(gname)
    reg = Register(G, ("c", "t"))
    U = dense_cmult(G, sense)
    cases = []
    for w in range(G.order):
        for site in ("c", "t"):
            for kind in ("T", "XL", "XR"):
                cases.append(mono(G, (), {site: [Factor(kind, Word.const(w))]}))
    for op in cases:
        out = conjugate_by_cmult(op, "c", "t", sense, tag="e")
        lhs = dense_of(out, reg)
        rhs = U @ dense_of(op, reg) @ U.conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("sense", ["left", "right"])
def test_conjugation_of_composite_with_variables(sense):
    G = builtin_group("S3")
    reg = Register(G, ("c", "t"))
    U = dense_cmult(G, sense)
    g = 3  # a transposition
    word = Word.var("v").times(Word.const(g)).times(Word.var("v", inverted=True))
    op = mono(G, ("v",), {"c": [Factor("T", Word.var("v"))],
                          "t": [Factor("XL", word), Factor("XR", Word.const(g))]})
    out = conjugate_by_cmult(op, "c", "t", sense, tag="e")
    lhs = dense_of(out, reg)
    rhs = U @ dense_of(op, reg) @ U.conj().T
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_representation_factors_refuse_conjugation():
    G = builtin_group("S3")
    op = mono(G, (), {"t": [Factor("Z", irrep_label="std", i=0, j=1)]})
    with pytest.raises(UnsupportedConjugation):
        conjugate_by_cmult(op, "c", "t", "left")
    bystander = mono(G, (), {"x": [Factor("Z", irrep_label="std")]})
    assert conjugate_by_cmult(bystander, "c", "t", "left") is bystander


def test_untouched_operator_passes_through():
    G = builtin_group("Z3")
    op = mono(G, (), {"a": [Factor("XL", Word.const(1))]})
    assert conjugate_by_cmult(op, "c", "t", "left") is op


# --- Word algebra ---


def test_word_inverse_and_evaluation():
    G = builtin_group("S3")
    w = Word.const(3).times(Word.var("a")).times(Word.var("b", inverted=True))
    env = {"a": 4, "b": 5}
    val = w.evaluate(G, env)
    inv = w.inverse().evaluate(G, env)
    assert G.table[val, inv] == 0
    assert G.table[inv, val] == 0
    arr_env = {"a": np.array([4, 1]), "b": np.array([5, 2])}
    vals = w.evaluate(G, arr_env)
    assert vals[0] == val
    assert w.inverse().inverse().factors == w.factors


def test_word_pretty_forms():
    G = builtin_group("S3")
    w = Word.var("h").times(Word.const(3)).times(Word.var("h", inverted=True))
    assert pretty_word(w, G) == "h (12) h^-1"
    assert pretty_word(Word(), G) == "e"
    assert pretty_word(Word.const(3).inverse(), G) == "(12)^-1"


# --- Monomial application mechanics ---


def test_apply_projector_multiplication_and_weight():
    G = builtin_group("S3")
    reg = Register(G, ("a", "b"))
    psi = from_dict(reg, {(3, 2): 1.0, (1, 2): 2.0})
    op = mono(G, (), {"a": [Factor("T", Word.const(3)), Factor("XL", Word.const(1))]})
    out = op.apply(psi)
    assert entries(out) == {(G.table[1, 3], 2): 1.0}
    zop = mono(G, (), {"b": [Factor("Z", irrep_label="std", i=0, j=0)]})
    out2 = zop.apply(psi)
    mats = G.irrep("std").matrices
    assert abs(entries(out2)[(3, 2)] - mats[2, 0, 0]) < 1e-15


def test_apply_solves_chained_variables_without_enumeration():
    G = builtin_group("S3")
    reg = Register(G, ("a", "b", "c"))
    # sum[x,y] T(x)@a T(x y)@b Xl(y)@c : y solvable only after x
    op = mono(G, ("x", "y"), {
        "a": [Factor("T", Word.var("x"))],
        "b": [Factor("T", Word.var("x").times(Word.var("y")))],
        "c": [Factor("XL", Word.var("y"))],
    })
    psi = from_dict(reg, {(2, 4, 1): 1.0, (2, 5, 0): 0.5})
    out = op.apply(psi)
    y, y2 = G.table[G.inverse[2], 4], G.table[G.inverse[2], 5]
    assert entries(out) == {(2, 4, G.table[y, 1]): 1.0,
                             (2, 5, G.table[y2, 0]): 0.5}


def test_apply_rejects_an_unfixed_variable():
    G = builtin_group("Z3")
    reg = Register(G, ("a", "b"))
    # sum[x,y] T(y)@b Xl(x)@a: no leading projector fixes x
    op = mono(G, ("x", "y"), {"a": [Factor("XL", Word.var("x"))],
                              "b": [Factor("T", Word.var("y"))]})
    # a projector after the multiplication does not fix it either
    late = mono(G, ("x",), {"a": [Factor("XL", Word.const(1)),
                                  Factor("T", Word.var("x"))]})
    for psi in (from_dict(reg, {(1, 0): 1.0}), zero(reg)):
        for bad in (op, late):
            with pytest.raises(ValueError,
                               match="summation variables x are not fixed"):
                bad.apply(psi)


def test_every_derived_operator_is_a_row_map():
    # each summation variable of every operator the package derives is
    # fixed by a leading projector, so each one applies without error
    for entry, gname in corpus_pairs():
        G, g = builtin_group(gname), entry.graph
        empty = zero(Register(G, g.vertex_ids))
        families = [closed_form_stabilizers(g, G),
                    propagate(schedule(g), with_right(g, G))]
        if G.order == 2:
            families.append(css_stabilizers(g, G))
        for stabs in families:
            for label, op in stabs.items():
                assert len(op.apply(empty)) == 0, (entry.name, gname, label)
    rng = np.random.default_rng(4)
    for gname in ("Z2", "Z3", "S3", "Q8"):
        G = builtin_group(gname)
        for dims in ((2, 2), (2, 4)):
            lat = build_qd_lattice(*dims)
            empty = zero(Register(G, tuple(lk.id for lk in lat.links)))
            outcomes = random_plaquette_outcomes(lat, G, rng)
            ops = list(qd_stabilizers(lat, G).values())
            ops += [shifted_plaquette(lat, G, pid, m)
                    for pid, m in outcomes.items()]
            dressed = [dressed_star(lat, G, s.id, x, outcomes)
                       for s in lat.stars for x in range(G.order)]
            ops += [op for op in dressed if op is not None]
            for op in ops:
                assert len(op.apply(empty)) == 0, pretty(op)


def test_apply_missing_site_error():
    G = builtin_group("Z3")
    reg = Register(G, ("a",))
    psi = from_dict(reg, {(1,): 1.0})
    stray = mono(G, (), {"zz": [Factor("T", Word())]})
    with pytest.raises(KeyError):
        stray.apply(psi)


# --- Printable syntax ---


def test_pretty_golden_strings():
    G = builtin_group("S3")
    eoe = line_graph(3, "eoe")
    assert pretty(closed_form_even(eoe, G, "0")) == "sum[g_e0] T[0:(g_e0)] T[1:(g_e0)]"
    assert pretty(closed_form_odd(eoe, G, "1", 3)) == \
        "Xl[0:((12))] Xl[1:((12))] Xl[2:((12))]"
    ring = ring_graph(4)
    assert pretty(closed_form_even(ring, G, "0")) == \
        "sum[g_e0,g_e3] T[0:(g_e3 g_e0^-1)] T[1:(g_e0)] T[3:(g_e3)]"
    assert pretty(closed_form_odd(ring, G, "1", 1)) == \
        "Xr[0:((123))] Xl[1:((123))] Xl[2:((123))]"


def test_pretty_shows_operator_order_last_applied_first():
    G = builtin_group("S3")
    op = mono(G, (), {"a": [Factor("T", Word.const(1)), Factor("XL", Word.const(3))]})
    assert pretty(op) == "Xl[a:((12))] T[a:((123))]"


# --- Closed form vs propagation: action equality ---


def general_small():
    vertices = [("e0", "even"), ("e1", "even"), ("e2", "even"),
                ("o0", "odd"), ("o1", "odd"), ("o2", "odd")]
    edges = [Edge("a", "e0", "o0"), Edge("b", "o1", "e0"),
             Edge("c", "e1", "o1"), Edge("d", "e1", "o0"),
             Edge("f", "o2", "e1"), Edge("g", "e2", "o2"),
             Edge("h", "e2", "o1")]
    return build_graph("general-small", vertices, edges)


def double_edge():
    vertices = [("p", "even"), ("w", "odd"), ("q", "even")]
    edges = [Edge("eA", "p", "w"), Edge("eB", "p", "w"), Edge("eC", "w", "q")]
    return build_graph("double-edge", vertices, edges)


def triple_edge():
    vertices = [("p", "even"), ("w", "odd")]
    edges = [Edge("e1", "p", "w"), Edge("e2", "p", "w"), Edge("e3", "p", "w")]
    return build_graph("triple-edge", vertices, edges)


SMALL_GRAPHS = {
    "eoe": lambda: line_graph(3, "eoe"),
    "oeo": lambda: line_graph(3, "oeo"),
    "line4": lambda: line_graph(4, "e"),
    "line5-odd": lambda: line_graph(5, "o"),
    "ring4": lambda: ring_graph(4),
    "general-small": general_small,
    "double-edge": double_edge,
    "triple-edge": triple_edge,
}


@pytest.mark.parametrize("gname", ["Z3", "S3"])
@pytest.mark.parametrize("graph_name", sorted(SMALL_GRAPHS))
def test_routes_agree_in_action(gname, graph_name):
    G = builtin_group(gname)
    g = SMALL_GRAPHS[graph_name]()
    reg = Register(G, g.vertex_ids)
    sched = schedule(g)
    prop = propagate(sched, initial_stabilizers(g, G))
    closed = closed_form_stabilizers(g, G)
    assert list(prop) == list(closed)
    rng = np.random.default_rng(7)
    for label in prop:
        a, b = prop[label], closed[label]
        support = set(a.support()) | set(b.support())
        if G.order ** len(support) <= 1296:
            assert operators_agree_on_basis(a, b, reg) < 1e-12, label
        else:
            for _ in range(8):
                psi = random_state(reg, rng, 60)
                assert residual_norm(a.apply(psi), b.apply(psi)) < 1e-10, label


@pytest.mark.parametrize("gname", ["Z2", "Z3", "S3"])
@pytest.mark.parametrize("graph_name", sorted(SMALL_GRAPHS))
def test_both_routes_fix_built_state(gname, graph_name):
    G = builtin_group(gname)
    g = SMALL_GRAPHS[graph_name]()
    state = build_cluster_state(g, G)
    sched = schedule(g)
    for stabs in (propagate(sched, initial_stabilizers(g, G)),
                  closed_form_stabilizers(g, G)):
        residuals = verify(stabs, state)
        worst = max(residuals, key=residuals.get)
        assert residuals[worst] <= 1e-10, worst


def test_right_multiplication_family_also_fixes_state():
    G = builtin_group("S3")
    g = line_graph(4, "e")
    state = build_cluster_state(g, G)
    stabs = propagate(schedule(g), with_right(g, G))
    assert any(lab.startswith("odd-right[") for lab in stabs)
    residuals = verify(stabs, state)
    worst = max(residuals, key=residuals.get)
    assert residuals[worst] <= 1e-10, worst


def test_odd_stabilizers_compose_as_the_group():
    G = builtin_group("S3")
    g = general_small()
    reg = Register(G, g.vertex_ids)
    rng = np.random.default_rng(11)
    for x, y in [(1, 3), (3, 4), (2, 2)]:
        sx = closed_form_odd(g, G, "o1", x)
        sy = closed_form_odd(g, G, "o1", y)
        sxy = closed_form_odd(g, G, "o1", G.table[x, y])
        for _ in range(5):
            psi = random_state(reg, rng, 50)
            lhs = sx.apply(sy.apply(psi))
            rhs = sxy.apply(psi)
            assert residual_norm(lhs, rhs) < 1e-10


@pytest.mark.parametrize("gname", ["S3", "D4"])
def test_a_bound_member_is_the_constant_operator(gname):
    G, g = builtin_group(gname), general_small()
    reg = Register(G, g.vertex_ids)
    sched = schedule(g)
    propagated = propagate(sched, initial_stabilizers(g, G))
    rng = np.random.default_rng(11)
    for w in g.odd_vertices:
        family = closed_form_odd(g, G, w)
        for x in range(G.order):
            label = f"odd[{w},{G.labels[x]}]"
            const = mono(G, (), {w: [Factor("XL", Word.const(x))]})
            pairs = [(family.bind({"x": x}), closed_form_odd(g, G, w, x)),
                     (propagated[label], propagate(sched, {label: const})[label])]
            for a, b in pairs:
                assert pretty(a) == pretty(b), label
                support = set(a.support()) | set(b.support())
                if G.order ** len(support) <= 4096:
                    assert operators_agree_on_basis(a, b, reg) < 1e-12, label
                else:  # o1 reaches five sites
                    assert stabilizers_agree_on_random_states(
                        {"": a}, {"": b}, reg, rng, states=4,
                        keys_per_state=256)[""] < 1e-12
    psi = build_cluster_state(g, G)
    for unbound in (closed_form_odd(g, G, "o1"),
                    mono(G, (), {"o1": [Factor("XL", Word.var("x"))]})):
        with pytest.raises(ValueError, match="parameters x are not bound"):
            unbound.apply(psi)
    with pytest.raises(ValueError, match="no parameters y"):
        closed_form_odd(g, G, "o1").bind({"y": 1})


def test_ordering_scramble_changes_the_state_and_the_stabilizers():
    G = builtin_group("S3")
    g = general_small()
    g2 = scramble_ordering(g, "e1")
    state = build_cluster_state(g, G)
    state2 = build_cluster_state(g2, G)
    stabs = closed_form_stabilizers(g, G)
    stabs2 = closed_form_stabilizers(g2, G)
    assert max(verify(stabs, state).values()) <= STABILIZER_TOL
    assert max(verify(stabs2, state2).values()) <= STABILIZER_TOL
    assert max(verify(stabs, state2).values()) > STABILIZER_TOL
    assert max(verify(stabs2, state).values()) > STABILIZER_TOL


def test_support_stays_within_two_neighbourhoods():
    G = builtin_group("Z3")
    g = general_small()
    sched = schedule(g)
    adj = {}
    for gate in sched:
        adj.setdefault(gate.control, set()).add(gate.target)
        adj.setdefault(gate.target, set()).add(gate.control)
    stabs = propagate(sched, initial_stabilizers(g, G))
    for label, op in stabs.items():
        origin = label.split("[")[1].split(",")[0].rstrip("]")
        bound = {origin} | adj[origin] | set().union(*(adj[v] for v in adj[origin]))
        assert set(op.support()) <= bound, label


@pytest.mark.parametrize("gname", ["S3", "D4", "Q8"])
def test_flat_table_product_matches_table_lookup(gname):
    G = builtin_group(gname)
    x, y = (a.ravel() for a in np.indices((G.order, G.order), dtype=np.int16))
    assert np.array_equal(_mul(G, x, y), G.table[x, y])
    assert np.array_equal(_mul(G, x.astype(np.int32), y), G.table[x, y])
    assert np.array_equal(_mul(G, 3, y), G.table[3, y])


def test_word_evaluation_agrees_past_the_int16_flat_index():
    # order 200: the flat table index reaches 39,999, past int16
    n = 200
    idx = np.arange(n)
    G = FiniteGroup("Z200", n, (idx[:, None] + idx[None, :]) % n,
                    (-idx) % n, tuple(map(str, idx)), ())
    w = (Word.var("x").times(Word.const(150)).times(Word.var("y", True))
         .times(Word.var("x")))
    x, y = (a.ravel() for a in np.indices((n, n)))
    arrays = w.evaluate(G, {"x": x, "y": y})
    scalars = [w.evaluate(G, {"x": int(a), "y": int(b)}) for a, b in zip(x, y)]
    assert np.array_equal(arrays, scalars)
    assert np.array_equal(arrays, (2 * x + 150 - y) % n)


# --- Batched route check ---


def _route_loop(a, b, reg, seed, states, keys):
    # the states the batched check draws, one residual_norm each
    psis = [SparseState(reg, c, a) for c, a in
            zip(*sample_states(reg, np.random.default_rng(seed), states, keys))]
    return [residual_norm(a.apply(p), b.apply(p)) for p in psis], psis


def _on_general_small(pair):
    G, g = builtin_group("S3"), general_small()
    return (Register(G, g.vertex_ids), *pair(G, g))


def _z2_line61():
    # 2**61 basis keys: each block of the batched check holds one state
    G, g = builtin_group("Z2"), line_graph(61, "o")
    return (Register(G, g.vertex_ids), closed_form_even(g, G, "1"),
            closed_form_odd(g, G, "2", 1))


@pytest.mark.parametrize("case", [
    lambda: _on_general_small(lambda G, g: (closed_form_odd(g, G, "o0", 1),
                                            closed_form_odd(g, G, "o0", 2))),
    lambda: _on_general_small(lambda G, g: (closed_form_even(g, G, "e1"),
                                            closed_form_odd(g, G, "o1", 3))),
    _z2_line61,
])
def test_batched_route_check_matches_per_state_loop(case):
    reg, a, b = case()
    loop, _ = _route_loop(a, b, reg, 5, 5, 64)
    batched = stabilizers_agree_on_random_states(
        {"": a}, {"": b}, reg, np.random.default_rng(5), 5, 64)[""]
    assert batched == max(loop)
    assert batched > 0.1


def test_basis_check_matches_per_key_loop():
    G, g = builtin_group("S3"), line_graph(3, "eoe")
    reg = Register(G, g.vertex_ids)
    a, b = closed_form_even(g, G, "0"), closed_form_odd(g, G, "1", 3)
    loop = [residual_norm(a.apply(p), b.apply(p))
            for p in (from_dict(reg, {key: 1.0})
                      for key in np.ndindex(*(G.order,) * reg.width))]
    assert operators_agree_on_basis(a, b, reg) == max(loop)
    assert max(loop) > 1
    assert operators_agree_on_basis(a, a, reg) == 0.0


def _scrambled_closed_forms(gname):
    # the closed forms of general-small against those of the same graph
    # with e1's gate order rotated: nonzero route residuals
    G, g = builtin_group(gname), general_small_graph()
    return (G, Register(G, g.vertex_ids), closed_form_stabilizers(g, G),
            closed_form_stabilizers(scramble_ordering(g, "e1"), G))


@pytest.mark.parametrize("gname", ["S3", "D4", "Q8"])
def test_route_check_equals_per_pair_residuals_bit_for_bit(gname):
    # each stacked block sums its terms in the order residual_norm sums
    # them for that operator pair and state alone
    _, reg, a, b = _scrambled_closed_forms(gname)
    psis = [SparseState(reg, c, amps) for c, amps in
            zip(*sample_states(reg, np.random.default_rng(5), 5, 64))]
    got = stabilizers_agree_on_random_states(a, b, reg,
                                             np.random.default_rng(5), 5, 64)
    assert got == {label: max(residual_norm(a[label].apply(p),
                                            b[label].apply(p)) for p in psis)
                   for label in a}
    assert sum(r > 0.1 for r in got.values()) > 1


@pytest.mark.parametrize("gname", ["S3", "D4", "Q8"])
def test_basis_check_equals_per_key_residuals_bit_for_bit(gname):
    G, reg, a, b = _scrambled_closed_forms(gname)
    worst = 0.0
    for label in ("even[e1]", f"odd[o0,{G.labels[0]}]", f"odd[o0,{G.labels[1]}]"):
        support = sorted(set(a[label].support()) | set(b[label].support()),
                         key=str)
        axes = [reg.axis(s) for s in support]
        loop = []
        for digits in np.ndindex(*(G.order,) * len(support)):
            key = np.zeros(reg.width, dtype=int)
            key[axes] = digits
            p = from_dict(reg, {tuple(key): 1.0})
            loop.append(residual_norm(a[label].apply(p), b[label].apply(p)))
        assert operators_agree_on_basis(a[label], b[label], reg) == max(loop)
        worst = max(worst, max(loop))
    assert worst >= 1


def test_route_check_groups_labels_by_both_sides():
    # b splits the o0 family that a keeps whole: one member is an unbound
    # copy, so the labels of that family form two groups
    G, reg, a, b = _scrambled_closed_forms("S3")
    g = scramble_ordering(general_small_graph(), "e1")
    label = f"odd[o0,{G.labels[2]}]"
    assert b[label].family is not None
    b = {**b, label: closed_form_odd(g, G, "o0", 2)}
    assert b[label].family is None
    assert operators_agree_on_basis(b[label], closed_form_stabilizers(g, G)[label],
                                    reg) == 0.0
    got = stabilizers_agree_on_random_states(a, b, reg,
                                             np.random.default_rng(3), 5, 64)
    assert got == {
        lab: stabilizers_agree_on_random_states(
            {"": op}, {"": b[lab]}, reg, np.random.default_rng(3), 5, 64)[""]
        for lab, op in a.items()}
    assert got[label] > 0.1


def test_batched_route_check_catches_a_one_state_mismatch():
    G = builtin_group("S3")
    g = general_small()
    reg = Register(G, g.vertex_ids)
    _, psis = _route_loop(mono(G, (), {}), mono(G, (), {}), reg, 9, 5, 64)
    # a key drawn by the last state only
    seen = {tuple(k) for p in psis[:-1] for k in p.keys.tolist()}
    key = next(tuple(k) for k in psis[-1].keys.tolist() if tuple(k) not in seen)
    proj = {s: [Factor("T", Word.const(d))] for s, d in zip(reg.sites, key)}
    a = mono(G, (), proj)
    # a projector onto two digits at once: the zero operator
    b = mono(G, (), {reg.sites[0]: [Factor("T", Word.const(0)),
                                    Factor("T", Word.const(1))]})
    loop, _ = _route_loop(a, b, reg, 9, 5, 64)
    assert loop[:-1] == [0.0] * 4 and loop[-1] > 0
    batched = stabilizers_agree_on_random_states(
        {"": a}, {"": b}, reg, np.random.default_rng(9), 5, 64)[""]
    assert batched == loop[-1]
    assert stabilizers_agree_on_random_states(
        {"": a}, {"": a}, reg, np.random.default_rng(9), 5, 64)[""] == 0.0


# --- Frozen small stabilizers ---


def test_eoe_even_stabilizer_explicit_action():
    G = builtin_group("Z3")
    g = line_graph(3, "eoe")
    op = closed_form_even(g, G, "0")
    reg = Register(G, g.vertex_ids)
    psi = from_dict(reg, {(2, 2, 0): 1.0, (1, 2, 0): 1.0})
    out = op.apply(psi)
    assert entries(out) == {(2, 2, 0): 1.0}


def test_initial_stabilizer_labels_and_forms():
    G = builtin_group("Z3")
    g = line_graph(3, "eoe")
    init = initial_stabilizers(g, G)
    assert list(init) == ["even[0]", "even[2]",
                          "odd[1,0]", "odd[1,1]", "odd[1,2]"]
    assert pretty(init["even[0]"]) == "T[0:(0)]"
    assert pretty(init["odd[1,2]"]) == "Xl[1:(2)]"


# --- Verification reports ---


def test_verify_reports_residual_and_first_failure():
    G = builtin_group("Z3")
    g = line_graph(3, "eoe")
    state = build_cluster_state(g, G)
    stabs = closed_form_stabilizers(g, G)
    ok = verify(stabs, state)
    assert list(ok) == list(stabs) and max(ok.values()) < 1e-12
    reg = state.register
    bad = SparseState(reg, np.append(state.codes, reg.encode(np.array([0, 1, 0]))),
                      np.append(state.amps, 0.3))
    failures = [lab for lab, r in verify(stabs, bad).items()
                if r > STABILIZER_TOL]
    assert failures
    with pytest.raises(ValueError):
        verify(stabs, zero(reg))


@pytest.mark.parametrize("gname", ["Z3", "S3", "Q8"])
@pytest.mark.parametrize("keys", [300, 3000])  # several blocks a pass; one
def test_verify_equals_per_operator_residuals_bit_for_bit(gname, keys):
    # on a random state, each stacked block sums its terms in the order
    # residual_norm sums them for that operator alone
    G, g = builtin_group(gname), general_small()
    psi = random_state(Register(G, g.vertex_ids), np.random.default_rng(3),
                       keys)
    for stabs in (closed_form_stabilizers(g, G),
                  propagate(schedule(g), initial_stabilizers(g, G))):
        got = verify(stabs, psi)
        assert got == {label: residual_norm(op.apply(psi), psi) / psi.norm()
                       for label, op in stabs.items()}
        assert max(got.values()) > 0.1


# --- Order-2 split forms ---


@pytest.mark.parametrize("graph_name", ["eoe", "line4", "ring4", "general-small"])
def test_split_forms_for_order_two_groups(graph_name):
    G = builtin_group("Z2")
    g = SMALL_GRAPHS[graph_name]()
    state = build_cluster_state(g, G)
    css = css_stabilizers(g, G)
    assert max(verify(css, state).values()) <= 1e-12
    reg = Register(G, g.vertex_ids)
    # derived even projector == (1 + split even)/2; derived odd(g=1) == split odd
    for v in g.even_vertices:
        derived = closed_form_even(g, G, v)
        split = css[f"css-even[{v}]"]
        rng = np.random.default_rng(3)
        for _ in range(5):
            psi = random_state(reg, rng, 40)
            s = split.apply(psi)
            rhs = SparseState(reg, np.append(psi.codes, s.codes),
                              np.append(psi.amps, s.amps) / 2)
            assert residual_norm(derived.apply(psi), rhs) < 1e-12
    for w in g.odd_vertices:
        derived = closed_form_odd(g, G, w, 1)
        split = css[f"css-odd[{w}]"]
        assert operators_agree_on_basis(derived, split, reg) < 1e-12


def test_split_forms_require_order_two():
    G = builtin_group("Z3")
    with pytest.raises(ValueError):
        css_stabilizers(line_graph(3, "eoe"), G)


def test_closed_forms_reject_wrong_parity():
    G = builtin_group("Z3")
    g = line_graph(3, "eoe")
    with pytest.raises(ValueError):
        closed_form_even(g, G, "1")
    with pytest.raises(ValueError):
        closed_form_odd(g, G, "0", 1)
