"""Output checkers for the gcs benchmark.

Every expected value here is computed from the benchmark's own inputs --
the graph JSON files, the group tables that ``gcs group show`` wrote at
set-up, and the conventions in the project README -- without calling into
``gcs``.  Each checker raises ``CheckError`` on the first mismatch.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field

RESIDUAL_TOL = 1e-10  # the program's default state tolerance
AMPLITUDE_TOL = 1e-12
PEPS_BUDGET = 2 * 10**6  # the corpus battery contracts pairs up to this size


class CheckError(Exception):
    """An output that disagrees with the benchmark's own expectation."""


@dataclass(frozen=True)
class Request:
    """One ``gcs`` invocation plus what its checker needs to know."""

    kind: str  # a key of CHECKERS
    argv: tuple
    group: str | None = None  # catalog name of the group
    graph: str | None = None  # graph name (file stem in the dumped corpus)
    params: dict = field(default_factory=dict, compare=False)


class Group:
    """A finite group read from a ``gcs group show`` table."""

    def __init__(self, obj: dict):
        self.name = obj["name"]
        self.order = n = int(obj["order"])
        self.mul = [obj["mul"][i * n:(i + 1) * n] for i in range(n)]
        self.inv = list(obj["inv"])
        self.labels = list(obj["labels"])
        self.irreps = obj["irreps"]

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.mul[a][b] == self.mul[b][a]
                   for a in range(n) for b in range(n))

    def class_count(self) -> int:
        """Number of conjugacy classes, counted from the table."""
        seen, count = set(), 0
        for g in range(self.order):
            if g in seen:
                continue
            count += 1
            seen.update(self.mul[self.mul[h][g]][self.inv[h]]
                        for h in range(self.order))
        return count


class Graph:
    """A cluster graph read from its JSON file."""

    def __init__(self, obj: dict):
        self.name = obj["name"]
        self.sites = [v["id"] for v in obj["vertices"]]
        self.parity = {v["id"]: v["parity"] for v in obj["vertices"]}
        self.edges = {e["id"]: (e["tail"], e["head"]) for e in obj["edges"]}
        self.orderings = obj.get("orderings") or {
            v: [eid for eid, ends in self.edges.items() if v in ends]
            for v in self.sites if self.parity[v] == "even"}
        self.odd = [v for v in self.sites if self.parity[v] == "odd"]
        self.even = [v for v in self.sites if self.parity[v] == "even"]
        touched = {x for ends in self.edges.values() for x in ends}
        self.isolated_odd = [v for v in self.odd if v not in touched]
        # a site is maximally mixed when some even word holds it (odd) or
        # one of its controls (even) exactly once: that letter then maps
        # bijectively onto the even digit
        self.mixed = set()
        for v in self.even:
            controls = [next(x for x in self.edges[e] if x != v)
                        for e in self.orderings[v]]
            once = {c for c in controls if controls.count(c) == 1}
            if once:
                self.mixed.add(v)
                self.mixed.update(once)


@dataclass
class Inputs:
    """What the checkers read: group tables and graphs by name, and the
    bytes of every group file handed to the program."""

    groups: dict
    graphs: dict
    group_files: dict  # path -> bytes


# --- independent references ---


def cluster_amplitudes(graph: Graph, group: Group) -> dict:
    """The cluster state by direct simulation of the gate circuit: odd
    sites in uniform superposition, even sites start at the identity, and
    each even site applies its edges in its gate order -- an edge out of
    the even site multiplies its digit by the odd control on the left, an
    edge into it multiplies by the control's inverse on the right."""
    n = group.order
    amp = n ** (-len(graph.odd) / 2)
    out = {}
    for digits in itertools.product(range(n), repeat=len(graph.odd)):
        value = dict(zip(graph.odd, digits))
        for v in graph.even:
            z = 0
            for eid in graph.orderings[v]:
                tail, head = graph.edges[eid]
                if tail == v:
                    z = group.mul[value[head]][z]
                else:
                    z = group.mul[z][group.inv[value[tail]]]
            value[v] = z
        key = tuple(group.labels[value[s]] for s in graph.sites)
        out[key] = out.get(key, 0) + amp
    return out


def flat_connection_count(group: Group, l1: int, l2: int) -> int:
    """Ground-state keys on an l1 x l2 torus: |G|^V gauge orbits times
    k(G) commuting holonomy pairs up to conjugation."""
    return group.order ** (l1 * l2) * group.class_count()


def corpus_pairs(graphs: dict, max_edges: int) -> set:
    """The corpus pairing rule from the project README: qd tori pair with
    Z2/Z3/S3 (2x2) or Z2 alone; other graphs get more groups the fewer odd
    sites and edges they have."""
    out = set()
    for g in graphs.values():
        m, o = len(g.edges), len(g.odd)
        if m > max_edges:
            continue
        if g.name.startswith("qd"):
            names = ("Z2", "Z3", "S3") if g.name == "qd2x2" else ("Z2",)
        elif o <= 5 and m <= 10:
            names = ("Z2", "Z3", "Z4", "S3", "D4")
        elif o <= 6:
            names = ("Z2", "Z3", "S3")
        elif o <= 8:
            names = ("Z2", "Z3")
        else:
            names = ("Z2",)
        out.update((g.name, name) for name in names)
    return out


# --- checkers ---


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _common(report: dict) -> None:
    _require(report.get("passed") is True, "report not passed")
    for c in report["checks"]:
        _require(c["passed"] and c["residual"] <= c["tol"],
                 f"check {c['label']} residual {c['residual']} > {c['tol']}")


def _labels(report: dict, prefix: str) -> list:
    return [c["label"] for c in report["checks"]
            if c["label"].startswith(prefix + ":")]


def check_group_validate(req, report, inp):
    labels = [c["label"] for c in report["checks"]]
    _require(any(lab.endswith("table_axioms") for lab in labels),
             "no table-axiom check")
    for name in ("unitarity", "homomorphism", "orthogonality", "completeness"):
        _require(any(lab.endswith(":" + name) for lab in labels),
                 f"no {name} check")
    spec = req.params["spec"]
    if spec in inp.group_files:
        digest = hashlib.sha256(inp.group_files[spec]).hexdigest()
        _require(report["inputs"]["group"]["sha256"] == digest,
                 "group file hash mismatch")


def check_group_show(req, report, inp):
    shown = report["group_json"]
    spec = req.params["spec"]
    if spec in inp.group_files:
        _require(shown == json.loads(inp.group_files[spec]),
                 "shown group differs from its file")
    G = Group(shown)
    n = G.order
    _require(G.mul[0] == list(range(n)), "row 0 is not the identity")
    _require(all(sorted(row) == list(range(n)) for row in G.mul),
             "table is not a Latin square")
    _require(all(G.mul[G.mul[a][b]][c] == G.mul[a][G.mul[b][c]]
                 for a in range(n) for b in range(n) for c in range(n)),
             "table is not associative")
    _require(all(G.mul[a][G.inv[a]] == 0 for a in range(n)), "bad inverses")
    _require(len(G.irreps) == G.class_count(),
             "irrep count differs from the class count")
    _require(sum(r["dim"] ** 2 for r in G.irreps) == n, "irreps incomplete")
    for r in G.irreps:
        d = r["dim"]
        mats = [[complex(re, im) for re, im in m] for m in r["matrices"]]
        for a in range(n):
            for b in range(n):
                prod = [sum(mats[a][i * d + k] * mats[b][k * d + j]
                            for k in range(d)) for i in range(d) for j in range(d)]
                want = mats[G.mul[a][b]]
                _require(max(abs(x - y) for x, y in zip(prod, want)) < 1e-9,
                         f"irrep {r['label']} is not a homomorphism")


def check_build(req, report, inp):
    G, g = inp.groups[req.group], inp.graphs[req.graph]
    want = cluster_amplitudes(g, G)
    _require(report["sites"] == g.sites, "site order differs from the graph")
    _require(report["keys"] == len(want),
             f"keys {report['keys']} != {len(want)}")
    got = {tuple(labels): complex(re, im)
           for labels, re, im in report["amplitudes"]}
    _require(got.keys() == want.keys(), "basis keys differ from simulation")
    worst = max(abs(got[k] - want[k]) for k in want)
    _require(worst <= AMPLITUDE_TOL, f"amplitude off by {worst:.3e}")


def check_stabilizers(req, report, inp):
    G, g = inp.groups[req.group], inp.graphs[req.graph]
    expected = len(g.even) + G.order * len(g.odd)
    routes = ("closed", "propagated") + (
        ("routes",) if "--cross-check" in req.argv else ())
    for route in routes:
        got = len(_labels(report, route))
        _require(got == expected, f"{route}: {got} checks, want {expected}")


def check_measure(req, report, inp):
    G, g = inp.groups[req.group], inp.graphs[req.graph]
    _require(req.params["site"] in g.mixed,
             "uniform marginals need a maximally mixed site")
    dist = report["distribution"]
    _require(len(dist) == G.order, "outcome count != |G|")
    for outcome, p in dist + [[report["outcome"], report["probability"]]]:
        _require(abs(p - 1 / G.order) <= RESIDUAL_TOL,
                 f"outcome {outcome} has probability {p}, not 1/{G.order}")
    if report["basis"] == "group":
        want = G.order ** (len(g.odd) - 1)
        _require(report["post_keys"] == want,
                 f"post-state keys {report['post_keys']} != {want}")


def check_symmetry(req, report, inp):
    names = {c["label"] for c in report["checks"]}
    want = {"odd_composition", "odd_identity", "even_trivial_identity",
            "even_tensor", "even_direct_sum", "odd_even_commutation"}
    _require(names == want, f"symmetry checks {sorted(names)}")


def check_peps(req, report, inp):
    _require(report["fidelity"] >= 1 - RESIDUAL_TOL,
             f"fidelity {report['fidelity']}")


def check_qdouble(req, report, inp):
    G = inp.groups[req.group]
    l1, l2 = req.params["dims"]
    _require(report["links"] == 2 * l1 * l2, "link count")
    if not req.params.get("random") or G.is_abelian():
        want = flat_connection_count(G, l1, l2)
        _require(report["keys"] == want,
                 f"ground state keys {report['keys']} != {want}")
    if G.order == 2 and not req.params.get("random"):
        _require(report["toric_fidelity"] >= 1 - RESIDUAL_TOL,
                 "toric reference fidelity")


def check_corpus(req, report, inp):
    want = corpus_pairs(inp.graphs, req.params["max_edges"])
    got = [(r["graph"], r["group"]) for r in report["results"]]
    _require(len(got) == len(set(got)), "duplicate corpus results")
    _require(set(got) == want,
             f"corpus pairs differ: {sorted(set(got) ^ want)[:4]}")
    _require(report["pairs"] == len(want), "pair count")
    for r in report["results"]:
        tag = f"{r['graph']}+{r['group']}"
        _require(r["checks_passed"], f"{tag} failed")
        for k in ("closed_form_max_residual", "propagated_max_residual",
                  "routes_max_residual"):
            _require(r[k] <= RESIDUAL_TOL, f"{tag}: {k}={r[k]}")
        g, G = inp.graphs[r["graph"]], inp.groups[r["group"]]
        size = G.order ** (len(g.edges) + len(g.isolated_odd))
        if size <= PEPS_BUDGET:
            _require(r.get("peps_fidelity", 0.0) >= 1 - RESIDUAL_TOL,
                     f"{tag}: peps fidelity {r.get('peps_fidelity')}")


CHECKERS = {
    "group-validate": check_group_validate,
    "group-show": check_group_show,
    "build": check_build,
    "stabilizers": check_stabilizers,
    "measure": check_measure,
    "symmetry": check_symmetry,
    "peps-compare": check_peps,
    "qdouble": check_qdouble,
    "corpus": check_corpus,
}


def check(req: Request, rc: int, output: str, inp: Inputs) -> None:
    """Raise CheckError unless ``output`` (the printed JSON report) is a
    passing, correct answer to ``req``."""
    _require(rc == 0, f"exit code {rc}")
    try:
        report = json.loads(output)
    except json.JSONDecodeError as exc:
        raise CheckError(f"unparseable report: {exc}")
    _common(report)
    CHECKERS[req.kind](req, report, inp)


def load_inputs(group_files: dict, graph_files: list) -> Inputs:
    """group_files: catalog name -> path of its ``gcs group show`` table."""
    groups, blobs = {}, {}
    for name, path in group_files.items():
        with open(path, "rb") as fh:
            blobs[path] = fh.read()
        groups[name] = Group(json.loads(blobs[path]))
    graphs = {}
    for path in graph_files:
        with open(path, encoding="utf-8") as fh:
            g = Graph(json.load(fh))
        graphs[g.name] = g
    return Inputs(groups, graphs, blobs)

