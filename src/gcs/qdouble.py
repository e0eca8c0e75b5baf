"""Quantum-double ground states on even-by-even tori, prepared by
projecting a cluster state.

The lattice alternates link orientations and plaquette readings so that a
bipartite cluster graph exists: one odd cluster site per link, one even
site per plaquette (projected onto the identity element) and one per
vertex (projected onto the trivial representation).  Cluster edges run
against the link orientation: a link a->b gives the gates b->link and
link->a, while every plaquette site multiplies up its four links in
reading order.

After projection the plaquette digit equals the plaquette holonomy, so the
identity projection enforces flatness, and the vertex projections leave
the gauge-symmetric uniform superposition: the double's ground state.  The
star operators left-multiply inbound links and right-multiply outbound
ones; both operator families are rebuilt here directly on the link
register and verified against the projected state.

Measured variants keep the plaquette outcomes m_p instead of forcing the
identity.  The shifted plaquette stabilizers just move the target of the
holonomy; the star family survives per element only when a consistent
per-link dressing exists.  A walk U -> R -> D -> L -> U around the star's
four quadrant plaquettes decides it: the next leg keeps the element when
the two legs are neighbours in the plaquette's reading, and takes it
conjugated by m_p when they are the reading's two ends."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .builder import build_cluster_state
from .graphs import ClusterGraph, Edge, build_graph
from .groups import FiniteGroup, centralizer, conjugacy_classes
from .stabilizers import ConditionalMonomial, Factor, Word
from .states import (
    Register,
    SparseState,
    fidelity,
    project_site,
    residual_norm,
)

__all__ = [
    "QdLattice",
    "check_qd_dims",
    "build_qd_lattice",
    "qd_cluster_graph",
    "qd_stabilizers",
    "shifted_plaquette",
    "dressed_star",
    "prepare_qd_with_measurement",
    "random_plaquette_outcomes",
    "z2_toric_reference",
    "wilson_cycles",
    "sector_matched_fidelity",
    "conjugacy_class_projection_check",
]

SLOTS = ("U", "L", "D", "R")


@dataclass(frozen=True)
class QdLink:
    id: str
    kind: str  # "h" | "v"
    x: int
    y: int
    tail: tuple  # lattice vertex (x, y)
    head: tuple


@dataclass(frozen=True)
class QdPlaquette:
    id: str
    x: int
    y: int
    clockwise: bool
    slots: dict  # slot -> link id (U/L/D/R)
    gate_order: tuple  # slot reading for the cluster-site gate ordering
    word: tuple  # link ids whose ordered product is the holonomy


@dataclass(frozen=True)
class QdStar:
    id: str
    x: int
    y: int
    kind: str  # "h": horizontal in / vertical out; "v": the reverse
    slots: dict  # slot -> link id
    inbound: dict  # slot -> bool (link head at this vertex)


@dataclass(frozen=True)
class QdLattice:
    l1: int
    l2: int
    links: tuple
    plaquettes: tuple
    stars: tuple

    @cached_property
    def _ids(self) -> tuple:
        """One id -> item dict each for links, plaquettes and stars."""
        return tuple({it.id: it for it in items}
                     for items in (self.links, self.plaquettes, self.stars))

    def link(self, lid: str) -> QdLink:
        return self._ids[0][lid]

    def plaquette(self, pid: str) -> QdPlaquette:
        return self._ids[1][pid]

    def star(self, sid: str) -> QdStar:
        return self._ids[2][sid]


def check_qd_dims(l1: int, l2: int) -> None:
    """Raise ValueError unless both torus sides are even and >= 2."""
    if l1 < 2 or l2 < 2 or l1 % 2 or l2 % 2:
        raise ValueError(
            f"the alternating torus needs even dimensions >= 2, got {l1}x{l2}"
        )


def build_qd_lattice(l1: int, l2: int) -> QdLattice:
    """Torus with alternating link orientations; both sides even and >= 2.
    Its cluster graph has 4 * l1 * l2 sites."""
    check_qd_dims(l1, l2)
    links = []
    for y in range(l2):
        for x in range(l1):
            nxt = ((x + 1) % l1, y)
            if (x + y) % 2 == 0:  # points in -x
                links.append(QdLink(f"h[{x},{y}]", "h", x, y, nxt, (x, y)))
            else:
                links.append(QdLink(f"h[{x},{y}]", "h", x, y, (x, y), nxt))
    for y in range(l2):
        for x in range(l1):
            up = (x, (y + 1) % l2)
            if (x + y) % 2 == 0:  # points in +y
                links.append(QdLink(f"v[{x},{y}]", "v", x, y, (x, y), up))
            else:
                links.append(QdLink(f"v[{x},{y}]", "v", x, y, up, (x, y)))
    plaquettes = []
    for y in range(l2):
        for x in range(l1):
            slots = {
                "U": f"h[{x},{(y + 1) % l2}]",
                "D": f"h[{x},{y}]",
                "L": f"v[{x},{y}]",
                "R": f"v[{(x + 1) % l1},{y}]",
            }
            cw = (x + y) % 2 == 0
            gate_order = ("U", "R", "D", "L") if cw else ("U", "L", "D", "R")
            word = tuple(slots[s] for s in reversed(gate_order))
            plaquettes.append(
                QdPlaquette(f"p[{x},{y}]", x, y, cw, slots, gate_order, word)
            )
    stars = []
    by_id = {lk.id: lk for lk in links}
    for y in range(l2):
        for x in range(l1):
            slots = {
                "U": f"v[{x},{y}]",
                "D": f"v[{x},{(y - 1) % l2}]",
                "L": f"h[{(x - 1) % l1},{y}]",
                "R": f"h[{x},{y}]",
            }
            inbound = {s: by_id[lid].head == (x, y) for s, lid in slots.items()}
            kind = "h" if (x + y) % 2 == 0 else "v"
            stars.append(QdStar(f"s[{x},{y}]", x, y, kind, slots, inbound))
    return QdLattice(l1, l2, tuple(links), tuple(plaquettes), tuple(stars))


# --- Cluster graph realization ---


def qd_cluster_graph(lat: QdLattice) -> ClusterGraph:
    """Odd sites = links; even sites = plaquettes and vertices.

    Black edges run against each link (head vertex -> link -> tail vertex);
    grey edges run from each plaquette to its four links in reading order."""
    vertices = [(lk.id, "odd") for lk in lat.links]
    vertices += [(p.id, "even") for p in lat.plaquettes]
    vertices += [(s.id, "even") for s in lat.stars]
    edges = []
    orderings = {}
    for s in lat.stars:
        order = []
        for slot in ("U", "L", "D", "R"):
            lid = s.slots[slot]
            if s.inbound[slot]:
                eid = f"in_{lid}"
                edges.append(Edge(eid, s.id, lid))
            else:
                eid = f"out_{lid}"
                edges.append(Edge(eid, lid, s.id))
            order.append(eid)
        orderings[s.id] = tuple(order)
    for p in lat.plaquettes:
        order = []
        for slot in p.gate_order:
            eid = f"g_{p.id}_{slot}"
            edges.append(Edge(eid, p.id, p.slots[slot]))
            order.append(eid)
        orderings[p.id] = tuple(order)
    # sanity: the two black edges per link were created exactly once
    assert len(edges) == 2 * len(lat.links) + 4 * len(lat.plaquettes)
    return build_graph(f"qd{lat.l1}x{lat.l2}", vertices, edges, orderings)


# --- Operator families on the link register ---


def link_register(lat: QdLattice, G: FiniteGroup) -> Register:
    return Register(G, tuple(lk.id for lk in lat.links))


def star_operator(lat: QdLattice, G: FiniteGroup, sid: str, g: int,
                  per_link=None) -> ConditionalMonomial:
    """Gauge transformation at one vertex: left-multiply inbound links,
    right-multiply outbound ones, by ``g`` (or by ``per_link[slot]``)."""
    s = lat.star(sid)
    sites = {}
    for slot in SLOTS:
        val = g if per_link is None else per_link[slot]
        kind = "XL" if s.inbound[slot] else "XR"
        sites[s.slots[slot]] = (Factor(kind, Word.const(val)),)
    return ConditionalMonomial(G, (), sites)


def shifted_plaquette(lat: QdLattice, G: FiniteGroup, pid: str,
                      m: int = 0) -> ConditionalMonomial:
    """Projector onto holonomy == m along the plaquette's reading order."""
    p = lat.plaquette(pid)
    names = [f"a_{pid}_{i}" for i in range(3)]
    sites = {
        p.word[0]: (Factor("T", Word.var(names[0])),),
        p.word[1]: (Factor("T", Word.var(names[1])),),
        p.word[2]: (Factor("T", Word.var(names[2])),),
    }
    closing = Word.var(names[2], True).times(Word.var(names[1], True)) \
        .times(Word.var(names[0], True)).times(Word.const(m))
    sites[p.word[3]] = (Factor("T", closing),)
    return ConditionalMonomial(G, tuple(names), sites)


def qd_stabilizers(lat: QdLattice, G: FiniteGroup) -> dict:
    stabs = {f"A[{s.id},{G.labels[g]}]": star_operator(lat, G, s.id, g)
             for s in lat.stars for g in range(G.order)}
    for p in lat.plaquettes:
        stabs[f"B[{p.id}]"] = shifted_plaquette(lat, G, p.id, 0)
    return stabs


# --- Measured-variant star dressing ---


def dressed_star(lat: QdLattice, G: FiniteGroup, sid: str, g: int,
                 outcomes: dict) -> ConditionalMonomial | None:
    """Star element ``g`` dressed per leg to keep every plaquette holonomy
    at its outcome, or None when the walk does not return to U with ``g``.
    Neighbouring legs in a reading cancel, so the next leg keeps the element
    a; the reading's two ends meet across m_p, giving m^-1 a m (known leg
    first) or m a m^-1 (known leg last).  The lattice has no other shape."""
    s = lat.star(sid)
    x, y, l1, l2 = s.x, s.y, lat.l1, lat.l2
    quadrants = (  # (plaquette, known slot, next slot) in geometric order
        (f"p[{x},{y}]", "U", "R"),
        (f"p[{x},{(y - 1) % l2}]", "R", "D"),
        (f"p[{(x - 1) % l1},{(y - 1) % l2}]", "D", "L"),
        (f"p[{(x - 1) % l1},{y}]", "L", "U"),
    )
    elems, a = {}, g
    for pid, known, nxt in quadrants:
        word = lat.plaquette(pid).word
        t = word.index(s.slots[known])
        if abs(t - word.index(s.slots[nxt])) != 1:  # the reading's two ends
            m = outcomes.get(pid, 0)
            a = G.conjugate(a, G.inverse[m] if t == 0 else m)
        elems[nxt] = a
    if a != g:
        return None
    return star_operator(lat, G, sid, g, per_link=elems)


# --- State preparation ---


def _uniform_vec(n: int) -> np.ndarray:
    return np.full(n, 1 / np.sqrt(n))


def prepare_qd_with_measurement(lat: QdLattice, G: FiniteGroup,
                                outcomes: dict | None = None):
    """Project the cluster state with the given plaquette outcomes (labels
    or indices; missing plaquettes default to the identity).

    Returns (normalized link state, stabilizers by label): shifted
    plaquette projectors for every plaquette plus every dressed star
    element whose quadrant walk closes."""
    outcomes = dict(outcomes or {})
    fixed = {}
    for p in lat.plaquettes:
        raw = outcomes.pop(p.id, 0)
        fixed[p.id] = raw if isinstance(raw, (int, np.integer)) else G.element(raw)
    if outcomes:
        raise KeyError(f"unknown plaquette ids in outcomes: {sorted(outcomes)}")
    g = qd_cluster_graph(lat)
    psi = build_cluster_state(g, G)
    for p in lat.plaquettes:  # plaquette digits first: they cut the support
        vec = np.zeros(G.order)
        vec[fixed[p.id]] = 1.0
        psi = project_site(psi, p.id, vec)
    for s in lat.stars:
        psi = project_site(psi, s.id, _uniform_vec(G.order))
    if psi.norm() < 1e-12:
        raise ValueError("the requested plaquette outcomes are inconsistent "
                         "(projection annihilated the state)")
    stabs = {f"B[{p.id}|m={G.labels[fixed[p.id]]}]":
             shifted_plaquette(lat, G, p.id, fixed[p.id])
             for p in lat.plaquettes}
    for s in lat.stars:
        for x in range(G.order):
            op = dressed_star(lat, G, s.id, x, fixed)
            if op is not None:
                stabs[f"A[{s.id},{G.labels[x]}|dressed]"] = op
    return psi.normalized(), stabs


def random_plaquette_outcomes(lat: QdLattice, G: FiniteGroup,
                              rng: np.random.Generator) -> dict:
    """A consistent random outcome set: the plaquette holonomies of a random
    link configuration, which always survive projection."""
    z = {lk.id: int(rng.integers(G.order)) for lk in lat.links}
    out = {}
    for p in lat.plaquettes:
        val = 0
        for lid in p.word:
            val = int(G.table[val, z[lid]])
        out[p.id] = val
    return out


# --- Independent order-2 reference on the same lattice ---


def wilson_cycles(lat: QdLattice):
    """Two noncontractible link cycles: the bottom row and the left column."""
    row = tuple(f"h[{x},0]" for x in range(lat.l1))
    col = tuple(f"v[0,{y}]" for y in range(lat.l2))
    return row, col


def z2_toric_reference(lat: QdLattice, G: FiniteGroup) -> SparseState:
    """Uniform superposition of all parity-flat link configurations,
    built without any cluster-state machinery."""
    if G.order != 2:
        raise ValueError("the reference construction is for the order-2 group")
    L = len(lat.links)
    if L > 24:
        raise ValueError("reference enumeration is limited to 2^24 configurations")
    col = {lk.id: i for i, lk in enumerate(lat.links)}
    bits = ((np.arange(2**L)[:, None] >> np.arange(L)[None, :]) & 1).astype(np.int16)
    keep = np.ones(2**L, dtype=bool)
    for p in lat.plaquettes:
        parity = np.zeros(2**L, dtype=np.int16)
        for lid in set(p.slots.values()):
            parity ^= bits[:, col[lid]]
        keep &= parity == 0
    amps = np.ones(int(keep.sum()), dtype=complex)
    reg = link_register(lat, G)
    return SparseState(reg, reg.encode(bits[keep]), amps).normalized()


def _project_wilson_even(state: SparseState, lat: QdLattice) -> SparseState:
    row, col = wilson_cycles(lat)
    reg = state.register
    keep = np.ones(len(state), dtype=bool)
    for cycle in (row, col):
        parity = np.zeros(len(state), dtype=np.int64)
        for lid in cycle:
            parity ^= reg.digit(state.codes, lid)
        keep &= parity == 0
    out = SparseState(reg, state.codes[keep], state.amps[keep])
    if out.norm() == 0:
        raise ValueError("state has no weight in the even Wilson sector")
    return out


def sector_matched_fidelity(lat: QdLattice, state: SparseState) -> float:
    """Fidelity against the independent flat-parity reference after pinning
    both states to the even sector of the two Wilson cycles."""
    ref = z2_toric_reference(lat, state.register.group)
    a = _project_wilson_even(state, lat).normalized()
    b = _project_wilson_even(ref, lat).normalized()
    return fidelity(a, b)


# --- Single-vertex conjugacy-class phenomenology ---


def _mini_star_graph() -> ClusterGraph:
    """One gauge vertex B with legs N/S/E/W and the four quadrant
    plaquettes; N and S point into B, E and W point out of it."""
    vertices = [("N", "odd"), ("S", "odd"), ("E", "odd"), ("W", "odd"),
                ("B", "even"),
                ("SW", "even"), ("SE", "even"), ("NW", "even"), ("NE", "even")]
    edges = [
        Edge("bE", "B", "E"), Edge("bW", "B", "W"),
        Edge("bN", "N", "B"), Edge("bS", "S", "B"),
        Edge("swW", "SW", "W"), Edge("swS", "SW", "S"),
        Edge("seS", "SE", "S"), Edge("seE", "SE", "E"),
        Edge("nwW", "NW", "W"), Edge("nwN", "NW", "N"),
        Edge("neN", "NE", "N"), Edge("neE", "NE", "E"),
    ]
    orderings = {
        "B": ("bE", "bW", "bN", "bS"),
        "SW": ("swW", "swS"),  # word reads z_S z_W
        "SE": ("seS", "seE"),  # word reads z_E z_S
        "NW": ("nwW", "nwN"),  # word reads z_N z_W
        "NE": ("neN", "neE"),  # word reads z_E z_N
    }
    return build_graph("mini-star", vertices, edges, orderings)


def _mini_star_operator(G: FiniteGroup, g: int) -> ConditionalMonomial:
    sites = {
        "N": (Factor("XR", Word.const(g)),),
        "S": (Factor("XR", Word.const(g)),),
        "W": (Factor("XL", Word.const(g)),),
        "E": (Factor("XL", Word.const(g)),),
    }
    return ConditionalMonomial(G, (), sites)


def _mini_prepare(G: FiniteGroup, red_vecs: dict) -> SparseState:
    g = _mini_star_graph()
    psi = build_cluster_state(g, G)
    for red, vec in red_vecs.items():
        psi = project_site(psi, red, vec)
    psi = project_site(psi, "B", _uniform_vec(G.order))
    return psi


def conjugacy_class_projection_check(G: FiniteGroup, member: int) -> dict:
    """Projecting the four quadrant holonomies onto a full conjugacy class
    keeps every uniform star element as a stabilizer; pinning them to
    specific class members keeps only the centralizer of the outcome.
    Returns the class and the three residuals that show it (the outside
    minimum is ``inf`` when the centralizer is the whole group)."""
    classes = conjugacy_classes(G)
    cls = next(c for c in classes if member in c)
    class_vec = np.zeros(G.order)
    class_vec[list(cls)] = 1 / np.sqrt(len(cls))
    uniform = _mini_prepare(G, {r: class_vec for r in ("SW", "SE", "NW", "NE")})
    if uniform.norm() < 1e-12:
        raise ValueError("class projection annihilated the state")
    uniform = uniform.normalized()
    residual_class = 0.0
    for g in range(G.order):
        op = _mini_star_operator(G, g)
        residual_class = max(residual_class,
                             residual_norm(op.apply(uniform), uniform))
    h = member
    basis = {}
    for red, out in (("SW", 0), ("SE", h), ("NW", 0), ("NE", h)):
        vec = np.zeros(G.order)
        vec[out] = 1.0
        basis[red] = vec
    pinned = _mini_prepare(G, basis)
    if pinned.norm() < 1e-12:
        raise ValueError("pinned outcomes annihilated the state")
    pinned = pinned.normalized()
    commuting = centralizer(G, h)
    residual_centralizer = 0.0
    residual_outside = np.inf
    for g in range(G.order):
        op = _mini_star_operator(G, g)
        r = residual_norm(op.apply(pinned), pinned)
        if g in commuting:
            residual_centralizer = max(residual_centralizer, r)
        else:
            residual_outside = min(residual_outside, r)
    return {
        "class": [G.labels[c] for c in cls],
        "residual_class_uniform": float(residual_class),
        "residual_centralizer": float(residual_centralizer),
        "min_residual_outside_centralizer": float(residual_outside),
    }
