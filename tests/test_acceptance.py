"""The acceptance gate: nine end-to-end criteria, each with a pinned
tolerance and runtime budget, each printing one PASS/FAIL line.

Every criterion re-derives its expectation independently of the code path it
checks — dense qubit references, explicit closed-form dictionaries, the
parity-enumeration toric state — so a pass here means two routes agreed, not
that one route equals itself.
"""

from __future__ import annotations

import json
import resource
import time

import numpy as np
import pytest

from gcs.builder import build_cluster_state
from gcs.cli import run as cli_run
from gcs.corpus import corpus_batteries, corpus_pairs, general_small_graph
from gcs.graphs import line_graph, ring_graph
from gcs.groups import (
    builtin_group,
    catalog_names,
    validate_group,
    validate_irreps,
)
from gcs.measurement import measure
from gcs.peps import build_peps, compare_to_circuit, contract
from gcs.qdouble import (
    build_qd_lattice,
    prepare_qd_with_measurement,
    random_plaquette_outcomes,
    sector_matched_fidelity,
)
from gcs.stabilizers import closed_form_stabilizers, verify
from gcs.states import Register, SparseState, fidelity, random_state
from gcs.symmetry import verify_symmetry_algebra
from references import (analyze_entanglement, apply_u_even, apply_u_odd,
                        build_qubit_reference, change_basis,
                        conjugacy_class_projection_check, dense, from_dict,
                        qd_stabilizers, residual_norm, scramble_ordering)


_emit = print


@pytest.fixture(autouse=True)
def _passthrough(capsys):
    """Route the per-criterion lines past pytest's capture so the summary
    shows them even on fully green runs."""
    global _emit

    def emit(text: str):
        with capsys.disabled():
            print(text)

    _emit = emit
    yield
    _emit = print


def _line(number: int, name: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    _emit(f"[criterion {number}] {name}: {status} "
          f"({elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, (
        f"criterion {number} ({name}) exceeded its {budget:.0f}s budget: "
        f"{elapsed:.2f}s")


def test_criterion_1_group_catalog_validation():
    start = time.perf_counter()
    ok = True
    for name in catalog_names():
        G = builtin_group(name)
        table_rep = validate_group(G)
        irrep_rep = validate_irreps(G)
        ok &= not table_rep.violations  # associativity and friends: exact
        ok &= not irrep_rep.violations
        ok &= table_rep.max_residual < 1e-12
        ok &= irrep_rep.max_residual < 1e-12  # unitarity, homomorphism,
        # grand orthogonality, irreducibility, completeness (sum d^2 = |G|)
    _line(1, "group/irrep catalog validation", ok,
          time.perf_counter() - start, 1.0)


def test_criterion_2_basis_duality_round_trip():
    start = time.perf_counter()
    ok = True
    for name in catalog_names():
        G = builtin_group(name)
        reg = Register(G, ("s",))
        rng = np.random.default_rng(20260819)
        for _ in range(100):
            psi = random_state(reg, rng, G.order).normalized()
            v = dense(psi)
            r = change_basis(psi, "s", "to_rep")
            rep_state = SparseState(
                reg, np.arange(G.order, dtype=np.int16).reshape(-1, 1), r)
            w = change_basis(rep_state, "s", "to_group")
            fid = abs(np.vdot(v, w)) ** 2 / (
                np.vdot(v, v).real * np.vdot(w, w).real)
            ok &= fid > 1 - 1e-12
    _line(2, "basis duality round trip", ok, time.perf_counter() - start, 1.0)


def test_criterion_3_order2_qubit_consistency():
    start = time.perf_counter()
    Z2 = builtin_group("Z2")
    graphs = [e.graph for e, gname in corpus_pairs(groups=("Z2",))
              if len(e.graph.vertices) <= 16][:10]
    assert len(graphs) == 10
    ok = True
    for g in graphs:
        psi = build_cluster_state(g, Z2)
        ref = build_qubit_reference(g, Z2)  # dense |+>, CZ, H route
        ok &= fidelity(psi, ref) > 1 - 1e-12
        residuals = verify(closed_form_stabilizers(g, Z2), psi)
        ok &= max(residuals.values(), default=0.0) <= 1e-12
    _line(3, "order-2 qubit-route consistency", ok,
          time.perf_counter() - start, 5.0)


def test_criterion_4_stabilizer_cross_validation():
    start = time.perf_counter()
    ok = True
    for res in corpus_batteries(corpus_pairs(), 0, 1e-10, routes_states=50):
        if not res["checks_passed"]:
            print(f"  cross-validation failed on {res['graph']}+{res['group']}: "
                  f"{res}")
            ok = False
    _line(4, "stabilizer cross-validation over the corpus", ok,
          time.perf_counter() - start, 120.0)


def test_criterion_5_chain_phenomenology():
    start = time.perf_counter()
    ok = True
    S3 = builtin_group("S3")

    # closed forms of the three-site chains, written out independently
    for G in (builtin_group("Z4"), S3):
        n = G.order
        eoe = build_cluster_state(line_graph(3, "eoe"), G)
        expected = {(g, g, g): n ** -0.5 for g in range(n)}
        ok &= fidelity(eoe, from_dict(eoe.register, expected)) > 1 - 1e-12
        oeo = build_cluster_state(line_graph(3, "oeo"), G)
        expected = {(a, int(G.table[a, G.inverse[c]]), c): 1.0 / n
                    for a in range(n) for c in range(n)}
        ok &= fidelity(oeo, from_dict(oeo.register, expected)) > 1 - 1e-12

    # group-basis measurement: eoe collapses to a product pair, oeo leaves
    # a |G|-rank maximally entangled pair
    out = measure(build_cluster_state(line_graph(3, "eoe"), S3), "1",
                  "group", forced="(12)")
    ent = analyze_entanglement(out.post_state, ("0",))
    ok &= ent["rank"] == 1 and ent["entropy"] < 1e-12
    out = measure(build_cluster_state(line_graph(3, "oeo"), S3), "1",
                  "group", forced="(123)")
    ent = analyze_entanglement(out.post_state, ("0",))
    ok &= ent["rank"] == 6 and ent["maximal"]
    ok &= abs(ent["entropy"] - np.log2(6)) < 1e-8

    # representation-basis measurement on the 2-dim irrep
    out = measure(build_cluster_state(line_graph(3, "oeo"), S3), "1",
                  "rep", forced=("std", 0, 1))
    ent = analyze_entanglement(out.post_state, ("0",))
    ok &= ent["rank"] == 2
    ok &= abs(ent["entropy"] - 1.0) < 1e-8
    out = measure(build_cluster_state(line_graph(3, "eoe"), S3), "1",
                  "rep", forced=("std", 0, 0))
    vals = np.sort(np.abs(np.linalg.svd(
        _pair_matrix(out.post_state, S3), compute_uv=False)))
    ok &= float(vals[-1] - vals[0]) > 1e-3  # visibly non-flat spectrum
    for name in ("Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8"):
        G = builtin_group(name)
        lab = G.irreps[1].label
        out = measure(build_cluster_state(line_graph(3, "eoe"), G), "1",
                      "rep", forced=(lab, 0, 0))
        ent = analyze_entanglement(out.post_state, ("0",))
        ok &= ent["maximal"]
    _line(5, "three-site chain phenomenology", ok,
          time.perf_counter() - start, 5.0)


def _pair_matrix(state, G):
    m = np.zeros((G.order, G.order), dtype=complex)
    a, b = state.keys.T
    m[a, b] = state.amps
    return m


def test_criterion_6_ring_symmetry():
    start = time.perf_counter()
    ok = True
    for n in (4, 6, 8):
        g = ring_graph(n)
        for gname in ("Z2", "Z3", "S3"):
            G = builtin_group(gname)
            psi = build_cluster_state(g, G)
            for x in range(G.order):
                ok &= fidelity(apply_u_odd(psi, g, x), psi) > 1 - 1e-10
            for r in G.irreps:
                ok &= fidelity(apply_u_even(psi, g, r.label), psi) > 1 - 1e-10
            rng = np.random.default_rng(n * 1000 + G.order)
            residuals = verify_symmetry_algebra(g, G, rng=rng, states=10)
            # composition, tensor law, commutation
            ok &= max(residuals.values()) <= 1e-10
    # order-2 relations: both families square to the identity in action
    G = builtin_group("Z2")
    g = ring_graph(6)
    reg = Register(G, g.vertex_ids)
    rng = np.random.default_rng(62)
    for _ in range(10):
        psi = random_state(reg, rng, 30).normalized()
        twice = apply_u_odd(apply_u_odd(psi, g, 1), g, 1)
        ok &= residual_norm(twice, psi) < 1e-10
        ee = apply_u_even(apply_u_even(psi, g, "w1", normalized=False), g,
                          "w1", normalized=False)
        ok &= residual_norm(ee, psi) < 1e-10
    _line(6, "ring symmetry families", ok, time.perf_counter() - start, 30.0)


def test_criterion_7_network_recontraction():
    start = time.perf_counter()
    ok = True
    small = [e.graph for e, gname in corpus_pairs(max_edges=8,
                                                  groups=("Z2",))]
    assert len(small) == 12
    for g in small:
        for gname in ("Z2", "Z3", "S3"):
            G = builtin_group(gname)
            ok &= compare_to_circuit(g, G) > 1 - 1e-10
    # negative control: a scrambled gate ordering must move the state
    S3 = builtin_group("S3")
    g = general_small_graph()
    scrambled = scramble_ordering(g, "e1")
    fid = fidelity(contract(build_peps(scrambled, S3)),
                   build_cluster_state(g, S3))
    ok &= fid < 1 - 1e-6
    _line(7, "tensor-network recontraction", ok,
          time.perf_counter() - start, 60.0)


def test_criterion_8_quantum_double():
    start = time.perf_counter()
    ok = True
    lat = build_qd_lattice(2, 2)
    for gname in ("Z2", "Z3", "S3"):
        G = builtin_group(gname)
        psi, stabs = prepare_qd_with_measurement(lat, G)
        ok &= max(verify(qd_stabilizers(lat, G), psi).values()) <= 1e-10
        # at identity outcomes the shifted stabilizers are the ground state's
        ok &= max(verify(stabs, psi).values()) <= 1e-10
        # seeded random outcomes pass the shifted-stabilizer checks
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            outcomes = random_plaquette_outcomes(lat, G, rng)
            chi, stabs = prepare_qd_with_measurement(lat, G, outcomes)
            ok &= max(verify(stabs, chi).values()) <= 1e-10
    # the order-2 state matches the independent parity-enumeration route
    Z2 = builtin_group("Z2")
    ok &= sector_matched_fidelity(
        lat, prepare_qd_with_measurement(lat, Z2)[0]) > 1 - 1e-10
    # class projection: the 3-cycle class passes, a single pinned element
    # keeps only its centralizer
    S3 = builtin_group("S3")
    check = conjugacy_class_projection_check(S3, S3.element("(123)"))
    ok &= check["residual_class_uniform"] <= 1e-10
    ok &= check["residual_centralizer"] <= 1e-10
    ok &= check["min_residual_outside_centralizer"] > 1e-3
    elapsed = time.perf_counter() - start
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
    ok &= peak_gb < 4.0
    _line(8, "torus ground states by projection", ok, elapsed, 300.0)


def test_criterion_9_report_determinism(tmp_path):
    start = time.perf_counter()
    out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
    assert cli_run(["corpus", "--seed", "0", "--out", str(out1)]) == 0
    assert cli_run(["corpus", "--seed", "0", "--out", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    text_a = json.dumps(a, indent=2, sort_keys=True)
    text_b = json.dumps(b, indent=2, sort_keys=True)
    ok = text_a == text_b and a["passed"]
    _line(9, "byte-identical corpus reports", ok,
          time.perf_counter() - start, 600.0)
