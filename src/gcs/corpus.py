"""A fixed benchmark corpus: small bipartite graphs paired with groups
sized so every check stays exact and fast.

The corpus is deterministic — the random families are seeded and frozen by
tests — so batteries run over it can be compared byte for byte.

``corpus_batteries`` runs the battery over many pairs on every CPU in the
process's affinity set.  Each pair is independent and seeded on its own
(``derive_seed``), so the pairs are dealt heaviest first (by the state's key
count, |G|^#odd) into one share per CPU; the caller runs the first share
and a forked child runs each other one.  The results come back in pair
order, so a report does not depend on how many CPUs ran it.  With one CPU,
or without ``os.fork``, the one share runs in-process."""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
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
    "corpus_batteries",
    "derive_seed",
    "lpt_shares",
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


def corpus_pairs(max_edges: int | None = None, groups=None,
                 corpus: tuple | None = None) -> tuple:
    """(entry, group name) pairs of ``corpus`` (``build_corpus()`` when not
    given), optionally filtered."""
    out = []
    for e in corpus if corpus is not None else build_corpus():
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


def lpt_shares(costs, workers: int) -> list:
    """Indices into ``costs`` dealt into ``workers`` shares, longest
    processing time first: each index, heaviest first (ties in index
    order), goes to the share with the least cost so far (ties to the
    lowest share).  Each share lists its indices in the order dealt."""
    shares = [[] for _ in range(workers)]
    loads = [0] * workers
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += costs[i]
    return shares


def _workers(n_pairs: int) -> int:
    """One worker per CPU this process may run on, at most one per pair."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_pairs))


def _fork_share(run, share):
    """Fork a child that runs ``run(share)`` and pickles ``(True, results)``
    or ``(False, exception)`` into a pipe; return its pid and the pipe's
    read end.  The child always leaves by ``os._exit``: it never returns
    into the caller and never flushes the caller's buffered output."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        status = 1
        try:
            os.close(r)
            try:
                payload = (True, run(share))
            except Exception as exc:
                payload = (False, exc)
            data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(w, "wb") as fh:
                fh.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _payload(pid: int, data: bytes, status: int) -> list:
    """A child's results, or the exception it raised, raised here."""
    if status or not data:
        raise RuntimeError(
            f"corpus worker {pid} exited with code "
            f"{os.waitstatus_to_exitcode(status)} after {len(data)} bytes "
            "of results")
    ok, value = pickle.loads(data)  # bytes our own child wrote
    if not ok:
        raise value
    return value


def corpus_batteries(pairs, seed: int, tol: float,
                     routes_states: int = 5) -> list:
    """``corpus_battery`` over each (entry, group name) of ``pairs``, in
    pair order, spread over the CPUs this process may run on.

    The pairs are dealt by ``lpt_shares`` on their key counts.  The caller
    runs share 0 while a forked child runs each other share; every child
    is reaped before this returns or raises, and an exception raised in a
    child is raised here.  A child that ends without results fails the
    call."""
    def run(share):
        return [corpus_battery(*pairs[i], seed=seed, tol=tol,
                               routes_states=routes_states) for i in share]

    costs = [builtin_group(gname).order ** len(entry.graph.odd_vertices)
             for entry, gname in pairs]
    shares = lpt_shares(costs, _workers(len(pairs)))
    children = []  # (pid, read end of its pipe, share), not yet reaped
    try:
        for share in shares[1:]:
            children.append((*_fork_share(run, share), share))
        results = dict(zip(shares[0], run(shares[0])))
        while children:
            pid, pipe, share = children[0]
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            pipe.close()
            results.update(zip(share, _payload(pid, data, status)))
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    return [results[i] for i in range(len(pairs))]
