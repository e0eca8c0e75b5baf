"""A fixed benchmark corpus: small bipartite graphs paired with groups
sized so every check stays exact and fast.

The corpus is deterministic — the random families are seeded and frozen by
tests — so batteries run over it can be compared byte for byte."""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .builder import build_cluster_state, schedule
from .graphs import ClusterGraph, Edge, build_graph, line_graph, ring_graph
from .groups import FiniteGroup, builtin_group
from .peps import build_peps, contract
from .qdouble import build_qd_lattice, qd_cluster_graph
from .stabilizers import (
    closed_form_stabilizers,
    initial_stabilizers,
    propagate,
    stabilizers_agree_on_random_states,
    verify,
)
from .states import SparseState, fidelity

__all__ = [
    "CorpusEntry",
    "build_corpus",
    "corpus_pairs",
    "general_small_graph",
    "corpus_battery",
    "derive_seed",
    "stabilizer_residuals",
]


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    graph: ClusterGraph
    groups: tuple  # paired group names


def general_small_graph() -> ClusterGraph:
    """Three evens, three odds, seven edges with mixed directions and a
    triple-ordered even: the smallest graph that exercises every word rule."""
    vertices = [("e0", "even"), ("e1", "even"), ("e2", "even"),
                ("o0", "odd"), ("o1", "odd"), ("o2", "odd")]
    edges = [
        Edge("a", "e0", "o0"),
        Edge("b", "o1", "e0"),
        Edge("c", "e1", "o1"),
        Edge("d", "e1", "o0"),
        Edge("f", "o2", "e1"),
        Edge("g", "e2", "o2"),
        Edge("h", "e2", "o1"),
    ]
    return build_graph("general-small", vertices, edges)


def _random_bipartite(name: str, n_odd: int, n_even: int, extra: int,
                      seed: int) -> ClusterGraph:
    """Seeded bipartite graph: every vertex gets one incident edge, then
    ``extra`` more are sprinkled in; directions are coin flips."""
    rng = np.random.default_rng(seed)
    odds = [f"o{i}" for i in range(n_odd)]
    evens = [f"v{i}" for i in range(n_even)]
    vertices = [(v, "even") for v in evens] + [(o, "odd") for o in odds]
    pairs = []
    for o in odds:
        pairs.append((o, evens[int(rng.integers(n_even))]))
    for v in evens:
        pairs.append((odds[int(rng.integers(n_odd))], v))
    for _ in range(extra):
        pairs.append((odds[int(rng.integers(n_odd))],
                      evens[int(rng.integers(n_even))]))
    edges = []
    for k, (o, v) in enumerate(pairs):
        if rng.integers(2):
            edges.append(Edge(f"e{k}", v, o))
        else:
            edges.append(Edge(f"e{k}", o, v))
    return build_graph(name, vertices, edges)


def _qd_groups(lat_dims) -> tuple:
    return ("Z2", "Z3", "S3") if lat_dims == (2, 2) else ("Z2",)


def _paired_groups(g: ClusterGraph) -> tuple:
    o, m = len(g.odd_vertices), len(g.edges)
    if o <= 5 and m <= 10:
        return ("Z2", "Z3", "Z4", "S3", "D4")
    if o <= 6:
        return ("Z2", "Z3", "S3")
    if o <= 8:
        return ("Z2", "Z3")
    return ("Z2",)


def build_corpus() -> tuple:
    entries = []

    def add(graph, groups=None):
        entries.append(CorpusEntry(
            graph.name, graph,
            groups if groups is not None else _paired_groups(graph),
        ))

    three_e = line_graph(3, "e")
    three_o = line_graph(3, "o")
    add(ClusterGraph("line3e", three_e.vertices, three_e.edges,
                     three_e.orderings))
    add(ClusterGraph("line3o", three_o.vertices, three_o.edges,
                     three_o.orderings))
    for n in range(4, 9):
        pat = "e" if n % 2 == 0 else "o"
        g = line_graph(n, pat)
        add(ClusterGraph(f"line{n}{pat}", g.vertices, g.edges, g.orderings))
    for n in (4, 6, 8):
        g = ring_graph(n)
        add(ClusterGraph(f"ring{n}", g.vertices, g.edges, g.orderings))
    add(general_small_graph())
    add(_random_bipartite("random-small", 4, 3, 0, seed=20260501))
    add(_random_bipartite("random-medium", 8, 4, 0, seed=20260502))
    for dims in ((2, 2), (2, 4)):
        lat = build_qd_lattice(*dims)
        add(qd_cluster_graph(lat), groups=_qd_groups(dims))
    return tuple(entries)


def corpus_pairs(max_edges: int | None = None, groups=None) -> tuple:
    """(entry, group name) pairs, optionally filtered."""
    out = []
    for e in build_corpus():
        if max_edges is not None and len(e.graph.edges) > max_edges:
            continue
        for gname in e.groups:
            if groups is not None and gname not in groups:
                continue
            out.append((e, gname))
    return tuple(out)


def derive_seed(*parts) -> int:
    """Platform-stable seed from a master seed and string tags."""
    text = ":".join(str(p) for p in parts)
    return zlib.crc32(text.encode("utf-8"))


def stabilizer_residuals(g: ClusterGraph, G: FiniteGroup, psi: SparseState,
                         seed: int, routes_states: int = 5) -> dict:
    """Residuals of the paper's two stabilizer derivations on ``psi``.

    ``closed`` and ``propagated`` map each stabilizer label to
    |S psi - psi| / |psi| for the closed forms and for the Heisenberg
    propagation; ``routes`` maps each label to the largest deviation
    between the two routes' operators over ``routes_states`` seeded random
    states (``routes_states=0`` skips that check and leaves it empty).
    Both routes are checked on ``psi`` in one ``verify`` call.  The states
    are drawn once per pair, from the pair's seed (``derive_seed``), and
    shared by every label."""
    closed = closed_form_stabilizers(g, G)
    propagated = propagate(schedule(g), initial_stabilizers(g, G))
    on_psi = verify(closed, psi, propagated)
    out = {"closed": on_psi[0], "propagated": on_psi[1], "routes": {}}
    if routes_states:
        rng = np.random.default_rng(derive_seed(seed, g.name, G.name))
        out["routes"] = stabilizers_agree_on_random_states(
            closed, propagated, psi.register, rng,
            states=routes_states, keys_per_state=64)
    return out


def corpus_battery(entry: CorpusEntry, gname: str, seed: int = 0,
                   tol: float = 1e-10, routes_states: int = 5) -> dict:
    """The standard per-pair battery: build the state, check both
    stabilizer routes fix it and agree in action on seeded random states
    (``stabilizer_residuals``), and recontract the tensor-network form.
    The builder's state budget bounds the contraction as it bounds the
    state, so every pair carries ``peps_fidelity``."""
    g = entry.graph
    G = builtin_group(gname)
    psi = build_cluster_state(g, G)
    res = stabilizer_residuals(g, G, psi, seed, routes_states)
    worst = {route: float(max(r.values(), default=0.0))
             for route, r in res.items()}
    fid = float(fidelity(contract(build_peps(g, G)), psi))
    return {
        "graph": entry.name,
        "group": gname,
        "closed_form_max_residual": worst["closed"],
        "propagated_max_residual": worst["propagated"],
        "routes_max_residual": worst["routes"],
        "checks_passed": bool(max(worst.values()) <= tol and fid > 1 - tol),
        "peps_fidelity": fid,
    }
