import json

import numpy as np
import pytest

from gcs.builder import build_cluster_state
from gcs.cli import run
from gcs.graphs import graph_to_json, line_graph
from gcs.groups import FiniteGroup, builtin_group, catalog_names
from gcs.stabilizers import ConditionalMonomial, Factor, Word
from gcs.states import (
    OverBudget,
    Register,
    SparseState,
    basis_matrix_to_rep,
    fidelity,
    inner_product,
    project_site,
    random_state,
    sample_states,
    rep_basis_order,
    site_marginal,
)
from helpers import entries
from references import (DENSE_CAP, change_basis, dense, from_dict, multiply,
                        reduced_density_matrix, rep_basis_state, residual_norm,
                        schmidt_data, scramble_ordering, tensor, zero)

TOL = 1e-12


def reg(name, *sites):
    return Register(builtin_group(name), tuple(sites))


def act(state, site, *factors):
    """Apply the factors at one site (index 0 first) as a monomial."""
    op = ConditionalMonomial(state.register.group, (), {site: factors})
    return op.apply(state)


def xl(g):
    return Factor("XL", Word.const(g))


def xr(g):
    return Factor("XR", Word.const(g))


def t(g):
    return Factor("T", Word.const(g))


def z(irrep, i, j):
    return Factor("Z", irrep_label=irrep.label, i=i, j=j)


def gate(G, sense, control, target):
    """The target digit after one controlled multiplication."""
    if sense == "left":
        return multiply(G, control, target)
    return multiply(G, target, G.inverse[control])


def two_gate_line(G, directions):
    """o-e-o line: gates from "0" then "2" hit the even site "1".  Returns
    the state and each gate's sense (an even->odd edge multiplies on the
    left, an odd->even edge on the right)."""
    g = line_graph(3, "oeo", directions=directions)
    senses = ["left" if g.edge(eid).tail == "1" else "right"
              for eid in g.orderings["1"]]
    return g, build_cluster_state(g, G), senses


DIRECTIONS = [[d0, d1] for d0 in ("fwd", "bwd") for d1 in ("fwd", "bwd")]


def test_basis_state_and_norm():
    r = reg("Z2", "a", "b")
    s = from_dict(r, {(1, 0): 1.0})
    assert s.norm() == pytest.approx(1.0)
    assert entries(s) == {(1, 0): 1.0}
    with pytest.raises(ValueError):
        from_dict(r, {(2, 0): 1.0})


def test_rep_basis_state_z2_minus():
    r = reg("Z2", "x")
    G = r.group
    s = rep_basis_state(r, "x", G.irrep("w1"), 0, 0)
    assert entries(s) == pytest.approx({(0,): 2**-0.5, (1,): -(2**-0.5)})


def test_rep_basis_state_s3_entry_normalized():
    r = reg("S3", "x")
    s = rep_basis_state(r, "x", r.group.irrep("std"), 0, 1)
    assert s.norm() == pytest.approx(1.0, abs=TOL)


def test_local_op_semantics():
    # single-factor monomials: Xl(g)|h> = |gh>, Xr(g)|h> = |h g^-1>, T(g)
    # projects on |g>
    r = reg("S3", "x")
    G = r.group
    for g in range(6):
        for h in range(6):
            s = from_dict(r, {(h,): 1.0})
            assert entries(act(s, "x", xl(g))) == {(multiply(G, g, h),): 1.0}
            assert entries(act(s, "x", xr(g))) == {(gate(G, "right", g, h),): 1.0}
            assert entries(act(s, "x", t(g))) == ({(h,): 1.0} if g == h else {})
    # xl(e) is the identity
    rng = np.random.default_rng(1)
    s = random_state(r, rng, 6)
    assert fidelity(act(s, "x", xl(0)), s) == pytest.approx(1.0)


def test_left_and_right_multiplication_commute():
    # X_g^left and X_h^right commute on a common site, all pairs, |G| <= 8
    for name in ["S3", "D4", "Q8"]:
        r = reg(name, "x")
        n = r.group.order
        for g in range(n):
            for h in range(n):
                for k in range(n):
                    s = from_dict(r, {(k,): 1.0})
                    a = act(s, "x", xl(g), xr(h))
                    b = act(s, "x", xr(h), xl(g))
                    assert entries(a) == entries(b)


def test_zrep_diagonal_weights():
    r = reg("S3", "x")
    G = r.group
    std = G.irrep("std")
    s = SparseState(r, np.arange(6), np.full(6, 6**-0.5))
    out = act(s, "x", z(std, 0, 0))
    for (k,), a in entries(out).items():
        assert a == pytest.approx(std.matrices[k, 0, 0] / np.sqrt(6))


def test_t_reconstruction_from_zreps():
    # T_g = (1/|G|) sum_irreps d * sum_ij conj([irrep(g)]_ij) Z_ij
    for name in ["Z4", "S3"]:
        r = reg(name, "x")
        G = r.group
        rng = np.random.default_rng(7)
        s = random_state(r, rng, G.order)
        for g in range(G.order):
            want = act(s, "x", t(g))
            acc = zero(r)
            for irr in G.irreps:
                for i in range(irr.dim):
                    for j in range(irr.dim):
                        coeff = irr.dim * np.conj(irr.matrices[g, i, j]) / G.order
                        term = act(s, "x", z(irr, i, j))
                        acc = SparseState(r, np.append(acc.codes, term.codes),
                                          np.append(acc.amps, term.amps * coeff))
            assert residual_norm(acc, want) < TOL


# The builder's gate loop is the one controlled multiplication: each case
# below reads the gates' action off the rows of a built state.


def test_cmult_is_cnot_for_z2():
    # two left gates into the even site: |a>|0>|b> -> |a>|a+b>|b>
    G = builtin_group("Z2")
    _, s, senses = two_gate_line(G, ["bwd", "fwd"])
    assert senses == ["left", "left"]
    assert entries(s) == pytest.approx(
        {(a, a ^ b, b): 0.5 for a in range(2) for b in range(2)})
    assert entries(s)[(1, 0, 1)] == pytest.approx(0.5)  # |1>|1> -> |1>|0>


def test_cmult_semantics_and_commutation():
    # left: |g>|h> -> |g>|gh>; right: |g>|h> -> |g>|h g^-1>
    G = builtin_group("S3")
    for directions in DIRECTIONS:
        g, s, (first, second) = two_gate_line(G, directions)
        want = {(a, gate(G, second, b, gate(G, first, a, 0)), b): 1 / 6
                for a in range(6) for b in range(6)}
        assert entries(s) == pytest.approx(want)
        if first != second:  # a left and a right gate commute
            scrambled = build_cluster_state(scramble_ordering(g, "1"), G)
            assert residual_norm(scrambled, s) < TOL


def test_control_identity_acts_trivially():
    # rows whose second control holds the identity keep the first gate's digit
    G = builtin_group("D4")
    for directions in DIRECTIONS:
        _, s, (first, _) = two_gate_line(G, directions)
        rows = [(a, v) for a, v, b in s.keys.tolist() if b == 0]
        assert len(rows) == 8
        assert all(v == gate(G, first, a, 0) for a, v in rows)


@pytest.mark.parametrize("name", catalog_names())
def test_basis_matrix_unitary(name):
    G = builtin_group(name)
    U = basis_matrix_to_rep(G)
    assert U.shape == (G.order, G.order)
    assert np.abs(U @ U.conj().T - np.eye(G.order)).max() < TOL
    assert len(rep_basis_order(G)) == G.order


def test_change_basis_round_trip():
    r = reg("S3", "x")
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = random_state(r, rng, 6)
        coeffs = change_basis(s, "x", "to_rep")
        back_tab = basis_matrix_to_rep(r.group).conj().T @ coeffs
        assert np.abs(back_tab - dense(s)).max() < TOL


def test_change_basis_identity_element():
    # |e> has only diagonal rep components, each sqrt(d/|G|)
    r = reg("S3", "x")
    s = from_dict(r, {(0,): 1.0})
    coeffs = change_basis(s, "x", "to_rep")
    for (lab, i, j), c in zip(rep_basis_order(r.group), coeffs):
        d = r.group.irrep(lab).dim
        want = np.sqrt(d / 6) if i == j else 0.0
        assert abs(c - want) < TOL


def test_inner_product_and_fidelity():
    r = reg("Z3", "a", "b")
    x = from_dict(r, {(0, 1): 1.0})
    y = from_dict(r, {(0, 2): 1.0})
    assert inner_product(x, y) == 0.0
    assert fidelity(x, x) == pytest.approx(1.0)
    assert fidelity(x, y) == pytest.approx(0.0)
    assert fidelity(x, from_dict(r, {(0, 1): 3.7j})) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fidelity(x, zero(r))


def test_project_site():
    r = reg("Z2", "a", "b")
    bell = from_dict(r, {(0, 0): 1 / np.sqrt(2), (1, 1): 1 / np.sqrt(2)})
    plus = np.array([1, 1]) / np.sqrt(2)
    post = project_site(bell, "a", plus)
    assert post.register.sites == ("b",)
    assert entries(post) == pytest.approx({(0,): 0.5, (1,): 0.5})


def test_rdm_product_and_bell():
    r = reg("Z2", "a", "b")
    prod = from_dict(r, {(1, 0): 1.0})
    rho = reduced_density_matrix(prod, ["a"])
    assert np.abs(rho - np.diag([0, 1])).max() < TOL
    bell = from_dict(r, {(0, 0): 1, (1, 1): 1})
    rho = reduced_density_matrix(bell, ["a"])
    assert np.abs(rho - np.eye(2) / 2).max() < TOL


def test_schmidt_product_and_maximal():
    r = reg("S3", "a", "b")
    prod = from_dict(r, {(2, 3): 1.0})
    _, rank, ent = schmidt_data(prod, ["a"])
    assert rank == 1 and ent == pytest.approx(0.0, abs=1e-12)
    pair = from_dict(r, {(g, g): 1 / np.sqrt(6) for g in range(6)})
    vals, rank, ent = schmidt_data(pair, ["a"])
    assert rank == 6
    assert ent == pytest.approx(np.log2(6), abs=1e-10)
    assert vals[:6].max() - vals[:6].min() < 1e-10


def test_rdm_cap():
    r = reg("Q8", "a", "b", "c", "d", "e")
    s = from_dict(r, {(0,) * 5: 1.0})
    with pytest.raises(ValueError):
        reduced_density_matrix(s, ["a", "b", "c", "d", "e"])


def test_dense_cap():
    G = builtin_group("Z2")
    r = Register(G, tuple(range(21)))
    s = from_dict(r, {(0,) * 21: 1.0})
    assert r.dimension > DENSE_CAP
    with pytest.raises(ValueError):
        dense(s)


def test_site_marginal():
    r = reg("Z3", "a", "b")
    s = from_dict(r, {(0, 0): 1, (1, 0): 1, (2, 0): np.sqrt(2)})
    probs = site_marginal(s, "a")
    assert probs == pytest.approx([0.25, 0.25, 0.5])
    assert probs.sum() == pytest.approx(1.0)


def test_tensor():
    a = from_dict(reg("Z2", "a"), {(1,): 1.0})
    b = from_dict(reg("Z2", "b"), {(0,): 2**-0.5, (1,): 2**-0.5})
    s = tensor(a, b)
    assert s.register.sites == ("a", "b")
    assert entries(s) == pytest.approx(
        {(1, 0): 1 / np.sqrt(2), (1, 1): 1 / np.sqrt(2)}
    )


def _build_dump(tmp_path, capsys, group, g):
    """The amplitude dump of ``gcs build --json``: the state's labelled rows."""
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph_to_json(g)))
    assert run(["build", "--group", group, "--graph", str(path), "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_dump_and_load_round_trip(tmp_path, capsys):
    G = builtin_group("S3")
    g = line_graph(3, "o")
    rep = _build_dump(tmp_path, capsys, "S3", g)
    keys = [tuple(G.element(lab) for lab in labels)
            for labels, _, _ in rep["amplitudes"]]
    back = from_dict(Register(G, tuple(rep["sites"])), {
        key: complex(re, im)
        for key, (_, re, im) in zip(keys, rep["amplitudes"])})
    assert residual_norm(back, build_cluster_state(g, G)) == 0.0
    # rows come in key order, one per key
    assert keys == sorted(set(keys))


def test_dump_uses_labels(tmp_path, capsys):
    rep = _build_dump(tmp_path, capsys, "S3", line_graph(3, "o"))
    assert ["(12)", "e", "(12)"] in [labels for labels, _, _ in rep["amplitudes"]]


def test_apply_local_dispatch():
    # a factor acts by its kind; an unknown kind is an error
    r = reg("Z4", "x")
    s = from_dict(r, {(1,): 1.0})
    assert entries(act(s, "x", xl(2))) == {(3,): 1.0}
    assert entries(act(s, "x", xr(3))) == {(2,): 1.0}
    assert entries(act(s, "x", t(1))) == {(1,): 1.0}
    with pytest.raises(ValueError):
        act(s, "x", Factor("nope"))


def test_random_state_deterministic():
    r = reg("Z3", "a", "b", "c")
    a = random_state(r, np.random.default_rng(42), 10)
    b = random_state(r, np.random.default_rng(42), 10)
    assert entries(a) == entries(b)


@pytest.mark.parametrize("width", [8, 23])  # 23: the widest S3 register
def test_random_state_is_an_unbiased_canonical_subset(width):
    r = Register(builtin_group("S3"), tuple(f"s{i}" for i in range(width)))
    for seed in range(20):
        s = random_state(r, np.random.default_rng(seed), 64)
        # a kept-smallest-keys bias leaves the first site at 0..3
        assert set(s.keys[:, 0].tolist()) == set(range(6)), seed
        assert len(s) == 64
        assert abs(s.norm() - 1.0) < TOL
        assert np.all(np.diff(s.codes) > 0)  # sorted and unique
        canon = SparseState(r, s.codes, s.amps)
        assert np.array_equal(canon.codes, s.codes)
        assert np.array_equal(canon.amps, s.amps)


def test_register_width_limit():
    # keys pack into int64 codes below 2**62: width * max(log2|G|, 1) < 62
    for name, widest in (("Z2", 61), ("S3", 23), ("Z8", 20)):
        G = builtin_group(name)
        assert Register(G, tuple(range(widest))).width == widest
        with pytest.raises(OverBudget, match="62-bit"):
            Register(G, tuple(range(widest + 1)))


def test_random_states_draws_distinct_canonical_states():
    r = reg("S3", *"abcdef")
    codes, amps = sample_states(r, np.random.default_rng(4), 5, 64)
    assert codes.shape == amps.shape == (5, 64)
    assert len({c.tobytes() for c in codes}) == 5
    for c, a in zip(codes, amps):
        s = SparseState(r, c, a)
        assert abs(s.norm() - 1.0) < TOL
        # canonical as drawn
        assert np.array_equal(s.codes, c) and np.array_equal(s.amps, a)
    # one state draws its codes as the sampler's first row
    s = random_state(r, np.random.default_rng(4), 64)
    assert np.array_equal(s.codes, codes[0])


def test_encode_matches_digit_loop():
    rng = np.random.default_rng(8)
    keys = rng.integers(0, 6, size=(20000, 9)).astype(np.uint8)  # several blocks
    want = np.zeros(len(keys), dtype=np.int64)
    for c in range(keys.shape[1]):
        want = want * 6 + keys[:, c]
    r = Register(builtin_group("S3"), tuple(range(9)))
    assert np.array_equal(r.encode(keys), want)
    assert r.encode(keys).dtype == np.int64
    for c in range(9):
        assert np.array_equal(r.digit(want, c), keys[:, c])


def _codec_groups():
    n = 200  # a flat table index past int16
    idx = np.arange(n)
    z200 = FiniteGroup("Z200", n, (idx[:, None] + idx[None, :]) % n,
                       (-idx) % n, tuple(map(str, idx)), ())
    z1 = FiniteGroup("Z1", 1, [[0]], [0], ("e",), ())
    return [builtin_group(name) for name in catalog_names()] + [z1, z200]


@pytest.mark.parametrize("G", _codec_groups(), ids=lambda G: G.name)
def test_encode_inverts_digit_table(G):
    r = Register(G, tuple(range(7)))
    codes = np.unique(np.random.default_rng(G.order).integers(
        0, r.dimension, size=300))
    table = r.digit_table(codes)
    assert np.array_equal(r.encode(table.T), codes)
    s = SparseState(r, codes, np.ones(len(codes)))
    assert s.keys.dtype == table.dtype and np.array_equal(s.keys, table.T)
    assert entries(s) == {tuple(map(int, row)): 1.0 for row in table.T}


def test_register_digit_arithmetic():
    r = reg("S3", "a", "b", "c")
    keys = np.indices((6, 6, 6)).reshape(3, -1).T
    codes = r.encode(keys)
    assert np.array_equal(codes, np.arange(216))
    assert list(r.place) == [36, 6, 1]
    # a block offset (a multiple of the dimension) leaves every digit alone
    for offset in (0, 5 * r.dimension):
        for c, site in enumerate("abc"):
            assert np.array_equal(r.digit(codes + offset, site), keys[:, c])
    # rewriting b's digit to 5 - b
    new = codes + r.place_value("b", (5 - keys[:, 1]) - keys[:, 1])
    assert np.array_equal(r.digit(new, "b"), 5 - keys[:, 1])
    assert np.array_equal(r.digit(new, "a"), keys[:, 0])
    # dropping a site gives the codes of the reduced register
    for c, site in enumerate("abc"):
        rest = np.delete(keys, c, axis=1)
        assert np.array_equal(r.without(codes, site), r.drop(site).encode(rest))
    # the key rows are derived from the codes on demand
    s = SparseState(r, codes[::-1], np.ones(216))
    assert np.array_equal(s.codes, codes)
    assert s.keys.dtype == np.uint8 and np.array_equal(s.keys, keys)
    # a digit past |G| - 1 would alias another code: refused, not read
    with pytest.raises(ValueError):
        from_dict(r, {(0, 6, 0): 1.0})
    assert entries(s)[(1, 0, 0)] == 1.0


def test_random_state_whole_basis_when_small():
    r = reg("Z3", "a", "b")
    s = random_state(r, np.random.default_rng(3), 50)
    assert len(s) == 9


def test_states_are_value_like():
    r = reg("Z2", "a", "b")
    s = from_dict(r, {(0, 1): 1.0})
    before = entries(s)
    act(s, "a", xl(1))
    # sum[x] T(x) at a, Xl(x) at b: a controlled multiplication
    cmult = ConditionalMonomial(r.group, ("x",), {
        "a": (Factor("T", Word.var("x")),), "b": (Factor("XL", Word.var("x")),)})
    assert entries(cmult.apply(from_dict(r, {(1, 1): 1.0}))) == {(1, 0): 1.0}
    cmult.apply(s)
    project_site(s, "a", np.array([1, 0]))
    assert entries(s) == before
    with pytest.raises(AttributeError):
        s.amps = None


def test_canonical_states_prune_zero_amplitudes():
    G = builtin_group("S3")
    r = Register(G, ("a",))
    psi = from_dict(r, {(0,): 1.0, (3,): 1.0})
    # Z[std,0,1] vanishes on both keys and rewrites no digit
    out = act(psi, "a", z(G.irrep("std"), 0, 1))
    assert len(out) == 0 and out.norm() == 0
    assert len(SparseState(r, psi.codes, psi.amps * 1e-20)) == 0
    kept = SparseState(r, [0, 3], [0.5, 1e-15])
    assert entries(kept) == {(0,): 0.5}


def _dict_merged(codes, amps):
    """Reference canonical form: amplitudes summed per code in a dict,
    zero sums dropped, codes ascending."""
    acc = {}
    for c, a in zip(codes, amps):
        acc[int(c)] = acc.get(int(c), 0.0) + complex(a)
    kept = sorted(c for c, a in acc.items() if abs(a) > 1e-14)
    return kept, [acc[c] for c in kept]


def _assert_canonical(state, codes, amps):
    assert np.all(np.diff(state.codes) > 0)
    want_codes, want_amps = _dict_merged(codes, amps)
    assert state.codes.tolist() == want_codes
    assert np.allclose(state.amps, want_amps, rtol=0, atol=TOL)


@pytest.mark.parametrize("codes,amps", [
    ([1, 4, 9], [1.0, 2j, 3.0]),                       # sorted and unique
    ([1, 1, 4, 9, 9], [1.0, 0.5, 2j, 3.0, -3.0]),      # sorted, repeats
    ([9, 1, 4, 1, 0], [3.0, 1.0, 2j, 0.5, 0.25]),      # unsorted, repeats
])
def test_constructor_decides_the_canonical_form(codes, amps):
    r = reg("Z4", "a", "b")
    _assert_canonical(SparseState(r, codes, amps), codes, amps)
    # out-of-order codes are never mistaken for canonical ones
    assert entries(SparseState(r.drop("b"), [2, 0], [1, 1]))[(0,)] == 1


def test_apply_output_is_canonical():
    G = builtin_group("Z4")
    r = Register(G, ("a", "b"))
    psi = random_state(r, np.random.default_rng(5), 12)
    rows = list(zip(psi.codes.tolist(), psi.amps))
    # sum[x] T(x) Xl(x^-1) at b sends every b digit to e: rows move and
    # collide, and the sums must merge
    collapse = ConditionalMonomial(G, ("x",), {"b": (
        Factor("T", Word.var("x")), Factor("XL", Word.var("x", True)))})
    _assert_canonical(collapse.apply(psi),
                      [c - c % 4 for c, _ in rows], [a for _, a in rows])
    # Xl(1) at a moves whole blocks of codes out of order
    _assert_canonical(act(psi, "a", xl(1)),
                      [(c + 4) % 16 for c, _ in rows], [a for _, a in rows])
    # T(2) at a only filters rows
    kept = [(c, a) for c, a in rows if c // 4 == 2]
    _assert_canonical(act(psi, "a", t(2)),
                      [c for c, _ in kept], [a for _, a in kept])
