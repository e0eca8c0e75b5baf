"""Decorated graphs specifying generalized cluster states.

A cluster graph is a directed bipartite graph (every edge joins an "even"
and an "odd" vertex) together with, at each even vertex, a total order over
its incident edges.  The order fixes the sequence in which entangling gates
hit that vertex, which matters for non-abelian groups.

Vertex and edge ids are strings throughout (JSON-safe).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .groups import read_json_file
from .states import MAX_SITES

# a graph file's edge bound: an odd site's closed form sums over one
# variable per pair of same-handed edges at a neighbour, E(E-1)/2 for E
# parallel edges; the corpus tops out at 64 edges (qd2x4)
MAX_EDGES = 128

__all__ = [
    "Edge",
    "ClusterGraph",
    "GraphReport",
    "validate_graph",
    "build_graph",
    "line_graph",
    "ring_graph",
    "graph_to_json",
    "graph_from_json",
    "load_graph_file",
    "MAX_EDGES",
]


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str


@dataclass(frozen=True)
class ClusterGraph:
    name: str
    vertices: tuple[tuple[str, str], ...]  # (id, parity) with parity "even"/"odd"
    edges: tuple[Edge, ...]
    orderings: dict  # even vertex id -> tuple of edge ids (gate order at that vertex)

    # --- Lookups (indexed once per graph; a duplicate id resolves to its
    # first declaration, and validate_graph reports the duplicate) ---

    @cached_property
    def _parities(self) -> dict:
        return dict(reversed(self.vertices))

    @cached_property
    def _edges_by_id(self) -> dict:
        return {e.id: e for e in reversed(self.edges)}

    @cached_property
    def _incidence(self) -> dict:
        """vertex -> its incident edges in declaration order."""
        out: dict = {}
        for e in self.edges:
            for v in dict.fromkeys((e.tail, e.head)):  # a self-loop once
                out.setdefault(v, []).append(e)
        return {v: tuple(es) for v, es in out.items()}

    def parity(self, v: str) -> str:
        try:
            return self._parities[v]
        except KeyError:
            raise KeyError(f"unknown vertex {v!r}")

    @cached_property
    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.vertices)

    @cached_property
    def even_vertices(self) -> tuple[str, ...]:
        return tuple(v for v, p in self.vertices if p == "even")

    @cached_property
    def odd_vertices(self) -> tuple[str, ...]:
        return tuple(v for v, p in self.vertices if p == "odd")

    def edge(self, eid: str) -> Edge:
        try:
            return self._edges_by_id[eid]
        except KeyError:
            raise KeyError(f"unknown edge {eid!r}")

    def incident_edges(self, v: str) -> tuple[Edge, ...]:
        return self._incidence.get(v, ())


@dataclass(frozen=True)
class GraphReport:
    violations: tuple[str, ...]
    notes: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_graph(g: ClusterGraph) -> GraphReport:
    bad: list[str] = []
    notes: list[str] = []
    vids = [v for v, _ in g.vertices]
    if len(set(vids)) != len(vids):
        bad.append("duplicate vertex ids")
    parities = dict(g.vertices)
    for v, p in g.vertices:
        if p not in ("even", "odd"):
            bad.append(f"vertex {v}: parity {p!r} is not 'even'/'odd'")
    eids = [e.id for e in g.edges]
    if len(set(eids)) != len(eids):
        bad.append("duplicate edge ids")
    pair_seen = set()
    for e in g.edges:
        if e.tail not in parities or e.head not in parities:
            bad.append(f"edge {e.id}: endpoint missing")
            continue
        if e.tail == e.head:
            bad.append(f"edge {e.id}: self-loop")
            continue
        if parities[e.tail] == parities[e.head]:
            bad.append(
                f"edge {e.id}: joins two {parities[e.tail]} vertices (not bipartite)"
            )
        pair = frozenset((e.tail, e.head))
        if pair in pair_seen:
            notes.append(f"parallel edges between {sorted(pair)} (multigraph extension)")
        pair_seen.add(pair)
    if bad:
        return GraphReport(tuple(bad), tuple(notes))
    evens = set(g.even_vertices)
    if set(g.orderings) != evens:
        missing = evens - set(g.orderings)
        extra = set(g.orderings) - evens
        if missing:
            bad.append(f"orderings missing for even vertices {sorted(missing)}")
        if extra:
            bad.append(f"orderings given for non-even vertices {sorted(extra)}")
    for v in sorted(evens & set(g.orderings)):
        want = sorted(e.id for e in g.incident_edges(v))
        got = sorted(g.orderings[v])
        if want != got:
            bad.append(
                f"ordering at {v} is not a permutation of its incident edges "
                f"(got {got}, expected a permutation of {want})"
            )
    return GraphReport(tuple(bad), tuple(notes))


def _declaration_orderings(vertices, edges) -> dict:
    incident: dict = {v: [] for v, p in vertices if p == "even"}
    for e in edges:
        for v in dict.fromkeys((e.tail, e.head)):
            if v in incident:
                incident[v].append(e.id)
    return {v: tuple(ids) for v, ids in incident.items()}


def build_graph(name, vertices, edges, orderings=None) -> ClusterGraph:
    """Validated constructor; gate orderings default to declaration order."""
    if orderings is None:
        orderings = _declaration_orderings(vertices, edges)
    g = ClusterGraph(name, tuple(vertices), tuple(edges),
                     {v: tuple(o) for v, o in orderings.items()})
    rep = validate_graph(g)
    if not rep.ok:
        raise ValueError(f"graph {name}: {rep.violations}")
    return g


def line_graph(n: int, pattern: str, directions: Sequence[str] | None = None) -> ClusterGraph:
    """Path of ``n`` vertices "0".."n-1" with alternating parity.

    ``pattern`` is either a full parity string of length n over {'e','o'} or
    any string whose first character fixes the start parity (alternation is
    implied).  ``directions`` optionally gives one of "fwd" (i -> i+1) /
    "bwd" per edge.  Defaults: an even-start line directs every edge from
    its even endpoint to its odd endpoint (3 sites: e->o<-e); an odd-start
    line directs every edge toward the lower index (3 sites: o<-e<-o, the
    repeating pattern of the infinite alternating chain).
    """
    if n < 2:
        raise ValueError("line needs at least 2 vertices")
    if len(pattern) == n:
        pars = list(pattern)
    else:
        start = pattern[0]
        pars = [start if i % 2 == 0 else ("o" if start == "e" else "e") for i in range(n)]
    if any(c not in "eo" for c in pars) or len(pars) != n:
        raise ValueError(f"bad parity pattern {pattern!r} for n={n}")
    for i in range(n - 1):
        if pars[i] == pars[i + 1]:
            raise ValueError("parity pattern must alternate")
    vertices = [(str(i), "even" if pars[i] == "e" else "odd") for i in range(n)]
    if directions is None:
        if pars[0] == "e":
            directions = ["fwd" if pars[i] == "e" else "bwd" for i in range(n - 1)]
        else:
            directions = ["bwd"] * (n - 1)
    if len(directions) != n - 1 or any(d not in ("fwd", "bwd") for d in directions):
        raise ValueError("directions must be 'fwd'/'bwd', one per edge")
    edges = []
    for i, d in enumerate(directions):
        a, b = str(i), str(i + 1)
        tail, head = (a, b) if d == "fwd" else (b, a)
        edges.append(Edge(f"e{i}", tail, head))
    return build_graph(f"line{n}:{''.join(pars)}", vertices, edges)


def ring_graph(n: int, directions: Sequence[str] | None = None) -> ClusterGraph:
    """Even cycle "0".."n-1", vertex i even iff i is even.

    Edge ``e{j}`` joins j and j+1 (mod n); the default orientation points
    every edge toward the lower index (tail j+1, head j), the ring closure
    of the alternating chain's repeating pattern.  Odd ``n`` is rejected:
    an odd cycle has no bipartition.
    """
    if n % 2 != 0:
        raise ValueError(f"ring of length {n} has no even/odd bipartition")
    if n < 4:
        raise ValueError("ring needs at least 4 vertices")
    vertices = [(str(i), "even" if i % 2 == 0 else "odd") for i in range(n)]
    if directions is None:
        directions = ["bwd"] * n
    if len(directions) != n or any(d not in ("fwd", "bwd") for d in directions):
        raise ValueError("directions must be 'fwd'/'bwd', one per edge")
    edges = []
    for j, d in enumerate(directions):
        a, b = str(j), str((j + 1) % n)
        tail, head = (a, b) if d == "fwd" else (b, a)
        edges.append(Edge(f"e{j}", tail, head))
    return build_graph(f"ring{n}", vertices, edges)


# --- Serialization ---


def graph_to_json(g: ClusterGraph) -> dict:
    return {
        "name": g.name,
        "vertices": [{"id": v, "parity": p} for v, p in g.vertices],
        "edges": [{"id": e.id, "tail": e.tail, "head": e.head} for e in g.edges],
        "orderings": {v: list(order) for v, order in sorted(g.orderings.items())},
    }


def _check_shape(obj) -> None:
    """Raise ValueError unless ``obj`` has a graph file's JSON shape: an
    object whose "vertices" and "edges" are lists of objects, each vertex
    with an "id" and a "parity" and each edge with an "id", a "tail" and a
    "head", and whose optional "orderings" maps vertex ids to lists of edge
    ids; every id, end and parity a string or number."""
    def scalar(x) -> bool:
        return isinstance(x, (int, float, str)) and not isinstance(x, bool)

    if not isinstance(obj, dict):
        raise ValueError(f"a graph file holds a JSON object, not {obj!r:.40}")
    for key, kind, fields in (("vertices", "vertex", ("id", "parity")),
                              ("edges", "edge", ("id", "tail", "head"))):
        items = obj.get(key)
        if not (isinstance(items, list) and all(isinstance(x, dict) for x in items)):
            raise ValueError(f"graph {key!r} must be a list of objects, "
                             f"not {items!r:.40}")
        for name in fields:
            if not all(scalar(x.get(name)) for x in items):
                raise ValueError(f"graph {kind} {name!r} must be a string "
                                 "or number")
    orderings = obj.get("orderings", {})
    if not (isinstance(orderings, dict)
            and all(isinstance(o, list) and all(map(scalar, o))
                    for o in orderings.values())):
        raise ValueError("graph 'orderings' must map vertex ids to lists of "
                         "strings or numbers")


def graph_from_json(obj: dict) -> ClusterGraph:
    _check_shape(obj)
    if len(obj["vertices"]) > MAX_SITES:
        # every vertex is a register site: refuse before anything is built
        raise ValueError(f"graph has {len(obj['vertices'])} vertices, past "
                         f"the register's {MAX_SITES}-site limit")
    if len(obj["edges"]) > MAX_EDGES:
        raise ValueError(f"graph has {len(obj['edges'])} edges, past the "
                         f"{MAX_EDGES}-edge limit")
    vertices = tuple((str(v["id"]), str(v["parity"])) for v in obj["vertices"])
    edges = tuple(Edge(str(e["id"]), str(e["tail"]), str(e["head"])) for e in obj["edges"])
    if "orderings" in obj:
        orderings = {str(v): tuple(str(x) for x in order)
                     for v, order in obj["orderings"].items()}
    else:
        # hand-written files may omit orderings; fall back to declaration
        # order, same as build_graph
        orderings = _declaration_orderings(vertices, edges)
    g = ClusterGraph(
        name=str(obj.get("name", "graph")),
        vertices=vertices,
        edges=edges,
        orderings=orderings,
    )
    rep = validate_graph(g)
    if not rep.ok:
        raise ValueError(f"graph {g.name} failed validation: {rep.violations}")
    return g


def load_graph_file(path: str) -> tuple:
    """(graph, sha256 of the file's bytes)."""
    obj, digest = read_json_file(path)
    return graph_from_json(obj), digest
