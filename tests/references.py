"""Independent references and phenomenology checks that only the tests use.

Each is a second route to what ``gcs`` computes, or one of the paper's side
results that no report carries: the dense qubit route (``build_qubit_reference``)
and the CSS split forms (``css_stabilizers``) for order-2 groups, a basis-by-basis
operator comparison, the explicit PEPS tensors, a scrambled gate order (the
negative control), the ring symmetries one operator at a time, the quantum
double's stabilizer families and its centralizer projection, Schmidt spectra,
and small state and printing helpers.
"""

from __future__ import annotations

import numpy as np

from gcs.builder import build_cluster_state
from gcs.graphs import ClusterGraph, Edge, build_graph
from gcs.groups import FiniteGroup, Irrep
from gcs.peps import _word_values
from gcs.qdouble import QdLattice, _uniform_vec, shifted_plaquette, star_operator
from gcs.stabilizers import (PARAM, ConditionalMonomial, Factor, Word,
                             _monomial, _residuals)
from gcs.states import (Register, SparseState, _check_same_register,
                        basis_matrix_to_rep, code_residuals, project_site)
from gcs.symmetry import _trace_weights, _u_odd, ring_even_cycle

DENSE_CAP = 2**20
RDM_CAP = 4096
DEGENERACY_TOL = 1e-8


# --- Groups ---


def multiply(G: FiniteGroup, a: int, b: int) -> int:
    return int(G.table[a, b])


def conjugacy_classes(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Partition of the elements into conjugation orbits.

    Classes are sorted by their minimum element, members ascending; the
    identity class {0} always comes first.
    """
    seen = [False] * G.order
    classes: list[tuple[int, ...]] = []
    for g in range(G.order):
        if seen[g]:
            continue
        orbit = sorted({G.conjugate(g, h) for h in range(G.order)})
        for x in orbit:
            seen[x] = True
        classes.append(tuple(orbit))
    classes.sort(key=lambda c: c[0])
    return tuple(classes)


def centralizer(G: FiniteGroup, g: int) -> tuple[int, ...]:
    return tuple(h for h in range(G.order) if multiply(G, h, g) == multiply(G, g, h))


# --- States ---


def from_dict(register: Register, entries) -> SparseState:
    """The state with amplitude ``entries[key]`` at each digit tuple."""
    if not entries:
        return zero(register)
    keys = np.array([list(k) for k in entries], dtype=np.int64)
    amps = np.array(list(entries.values()), dtype=complex)
    keys = keys.reshape(len(amps), register.width)
    if keys.size and not (0 <= keys.min() and keys.max() < register.group.order):
        # an out-of-range digit would alias another basis vector's code
        raise ValueError("basis key digits must lie in 0..|G|-1")
    return SparseState(register, register.encode(keys), amps)


def zero(register: Register) -> SparseState:
    return SparseState(register, np.zeros(0, dtype=np.int64),
                       np.zeros(0, dtype=complex))


def dense(state: SparseState) -> np.ndarray:
    """Dense vector in row-major site order; guarded by DENSE_CAP."""
    dim = state.register.dimension
    if dim > DENSE_CAP:
        raise ValueError(f"dense dimension {dim} exceeds cap {DENSE_CAP}")
    vec = np.zeros(dim, dtype=complex)
    vec[state.codes] = state.amps
    return vec


def residual_norm(a: SparseState, b: SparseState) -> float:
    """||a - b|| computed amplitude-wise on the canonical forms, so
    residuals far below the state norm stay resolvable."""
    _check_same_register(a, b)
    return float(np.sqrt(np.sum(code_residuals(a.codes, a.amps, b.codes,
                                                b.amps)[1])))


def tensor(a: SparseState, b: SparseState) -> SparseState:
    if a.register.group.name != b.register.group.name:
        raise ValueError("tensor factors must share the group")
    reg = Register(a.register.group, a.register.sites + b.register.sites)
    codes = (np.repeat(a.codes, len(b)) * b.register.dimension
             + np.tile(b.codes, len(a)))
    amps = np.repeat(a.amps, len(b)) * np.tile(b.amps, len(a))
    return SparseState(reg, codes, amps)


def rep_basis_state(register: Register, site, irrep: Irrep, i: int, j: int) -> SparseState:
    """sum_g sqrt(d/|G|) [irrep(g)]_{ij} |g> at ``site`` (register must be
    the single-site register of that site)."""
    if register.width != 1 or register.sites[0] != site:
        raise ValueError("rep_basis_state builds single-site registers")
    if not (0 <= i < irrep.dim and 0 <= j < irrep.dim):
        raise ValueError("matrix indices out of range")
    n = register.group.order
    amps = np.sqrt(irrep.dim / n) * irrep.matrices[:, i, j]
    return SparseState(register, np.arange(n), amps)


def change_basis(state: SparseState, site, direction: str) -> np.ndarray:
    """Dense coefficient table of a single-site state in the other basis:
    "to_rep" maps group coefficients to representation coefficients (in
    ``rep_basis_order``), "to_group" applies the inverse transform."""
    if state.register.width != 1 or state.register.sites[0] != site:
        raise ValueError("change_basis operates on single-site registers")
    U = basis_matrix_to_rep(state.register.group)
    v = dense(state)
    if direction == "to_rep":
        return U @ v
    if direction == "to_group":
        return U.conj().T @ v
    raise ValueError(f"unknown direction {direction!r}")


# --- Reduced density matrices and Schmidt data ---


def _bipartition_matrix(state: SparseState, part_a) -> np.ndarray:
    """Dense (dim_A, #distinct B keys) coefficient matrix: rows are the
    ``part_a`` digits read in that order, columns the distinct rest
    digits in code order."""
    reg = state.register
    part_a = list(part_a)
    if not part_a:
        raise ValueError("bipartition part must be nonempty")
    dim_a = reg.group.order ** len(part_a)
    if dim_a > RDM_CAP:
        raise ValueError(f"kept dimension {dim_a} exceeds cap {RDM_CAP}")
    digits = np.array([reg.digit(state.codes, s) for s in part_a])
    row = Register(reg.group, tuple(part_a)).encode(digits.T)
    rest = state.codes - sum(reg.place_value(s, d) for s, d in zip(part_a, digits))
    uniq, col = np.unique(rest, return_inverse=True)
    m = np.zeros((dim_a, len(uniq)), dtype=complex)
    np.add.at(m, (row, col), state.amps)
    return m


def reduced_density_matrix(state: SparseState, kept_sites) -> np.ndarray:
    """Density matrix of ``kept_sites`` (row-major in their register order),
    normalized to unit trace."""
    m = _bipartition_matrix(state, kept_sites)
    rho = m @ m.conj().T
    tr = np.trace(rho).real
    if tr <= 0:
        raise ValueError("zero-norm state has no density matrix")
    return rho / tr


def schmidt_data(state: SparseState, part_a, threshold: float = 1e-10):
    """(schmidt values, rank, entropy in bits) across the bipartition
    (part_a | rest), for the normalized state."""
    m = _bipartition_matrix(state, part_a)
    n = np.linalg.norm(m)
    if n == 0:
        raise ValueError("zero-norm state has no Schmidt decomposition")
    vals = np.linalg.svd(m / n, compute_uv=False)
    rank = int(np.sum(vals > threshold))
    probs = vals[:rank] ** 2
    entropy = float(-np.sum(probs * np.log2(probs))) if rank else 0.0
    return vals, rank, entropy


def analyze_entanglement(state: SparseState, part_a) -> dict:
    """Schmidt rank, entanglement entropy in bits, and whether the kept
    Schmidt spectrum is flat (maximal entanglement at its rank)."""
    vals, rank, entropy = schmidt_data(state, part_a)
    kept = vals[:rank]
    maximal = bool(rank > 0 and float(kept.max() - kept.min()) < DEGENERACY_TOL)
    return {"rank": rank, "entropy": entropy, "maximal": maximal}


# --- Operators ---


def pretty_word(word: Word, G: FiniteGroup, binding: dict | None = None) -> str:
    """Letters by label; a name bound in ``binding`` prints as its value."""
    def text(v):
        v = binding.get(v, v) if binding else v
        return v if isinstance(v, str) else G.labels[v]

    if not word.factors:
        return G.labels[0]
    return " ".join(text(v) + ("^-1" if inv else "")
                    for v, inv in word.factors)


def pretty(op: ConditionalMonomial) -> str:
    G, binding = op.group, op.binding
    bits = []
    if op.variables:
        bits.append("sum[" + ",".join(op.variables) + "]")
    for site in sorted(op.sites, key=str):
        for f in reversed(op.sites[site]):  # operator order: last applied first
            if f.kind == "Z":
                bits.append(f"Z[{site}:{f.irrep_label},{f.i},{f.j}]")
            else:
                name = {"T": "T", "XL": "Xl", "XR": "Xr"}[f.kind]
                bits.append(f"{name}[{site}:({pretty_word(f.word, G, binding)})]")
    return " ".join(bits) if bits else "1"


def css_stabilizers(g: ClusterGraph, G: FiniteGroup) -> dict:
    """Order-2 groups only: the multiplication/representation-split forms —
    a sign-representation Z on an even site and each of its neighbours, an
    X on an odd site and each of its neighbours."""
    if G.order != 2:
        raise ValueError("the split stabilizer forms require an order-2 group")
    sign = G.irreps[1].label
    stabs = {}
    for v in g.even_vertices:
        sites = {v: [Factor("Z", irrep_label=sign)]}
        for e in g.incident_edges(v):
            other = e.head if e.tail == v else e.tail
            sites.setdefault(other, []).append(Factor("Z", irrep_label=sign))
        stabs[f"css-even[{v}]"] = _monomial(G, (), sites)
    for w in g.odd_vertices:
        sites = {w: [Factor("XL", Word.const(1))]}
        for e in g.incident_edges(w):
            other = e.head if e.tail == w else e.tail
            sites.setdefault(other, []).append(Factor("XL", Word.const(1)))
        stabs[f"css-odd[{w}]"] = _monomial(G, (), sites)
    return stabs


def operators_agree_on_basis(a: ConditionalMonomial, b: ConditionalMonomial,
                             register: Register) -> float:
    """Max action deviation over every basis key of the joint support
    (other sites pinned to the identity element)."""
    support = sorted(set(a.support()) | set(b.support()), key=str)
    n = register.group.order
    if n ** len(support) > 4096:
        raise ValueError("support too large for exhaustive basis comparison")
    digits = np.indices((n,) * len(support)).reshape(len(support), n ** len(support))
    codes = sum((register.place_value(s, d) for s, d in zip(support, digits)),
                np.zeros(digits.shape[1], dtype=np.int64))
    sq = _residuals({"": a}, {"": b}, register, codes[:, None],
                    np.ones((len(codes), 1), dtype=complex))[""]
    return float(np.sqrt(sq.max()))


# --- Circuits and networks ---


def build_qubit_reference(g: ClusterGraph, G: FiniteGroup) -> SparseState:
    """Independent qubit-route reference for order-2 groups: the standard
    CPHASE-built cluster state with a Hadamard applied on every even site.

    Built densely with explicit |+> preparation, CZ phases and Hadamards —
    no shared code with the group circuit.  Errors for |G| != 2.
    """
    if G.order != 2:
        raise ValueError("qubit reference requires an order-2 group")
    sites = g.vertex_ids
    nq = len(sites)
    dim = 2**nq
    if dim > DENSE_CAP:
        raise ValueError(f"dense dimension {dim} exceeds cap {DENSE_CAP}")
    bit = {s: nq - 1 - i for i, s in enumerate(sites)}  # site -> bit position
    vec = np.full(dim, dim ** (-0.5), dtype=complex)  # |+...+>
    idx = np.arange(dim)
    for e in g.edges:
        both = ((idx >> bit[e.tail]) & 1) & ((idx >> bit[e.head]) & 1)
        vec = np.where(both == 1, -vec, vec)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    for v in g.even_vertices:
        b = bit[v]
        shaped = vec.reshape(2 ** (nq - 1 - b), 2, 2**b)
        vec = np.einsum("ij,ajb->aib", h, shaped).reshape(dim)
    # site i holds bit nq-1-i of the index, so the index is the code
    return SparseState(Register(G, sites), idx, vec)


def scramble_ordering(g: ClusterGraph, vertex: str, rotation: int = 1) -> ClusterGraph:
    """Cyclically rotate the gate order at one even vertex (negative-control
    helper: changes the state iff the group is non-abelian and the vertex
    has two same-direction edges)."""
    order = list(g.orderings[vertex])
    k = rotation % len(order)
    return ClusterGraph(g.name, g.vertices, g.edges,
                        {**g.orderings, vertex: tuple(order[k:] + order[:k])})


def odd_tensor(G: FiniteGroup, legs: int) -> np.ndarray:
    """Copy tensor, axes (physical, leg 1, ..., leg k)."""
    n = G.order
    t = np.zeros((n,) * (legs + 1))
    for g in range(n):
        t[(g,) * (legs + 1)] = 1.0
    return t


def even_tensor(G: FiniteGroup, senses) -> np.ndarray:
    """Word tensor for one even site, axes (physical, leg 1, ..., leg k);
    ``senses`` gives each leg's orientation, "out" or "in", in gate order."""
    n = G.order
    k = len(senses)
    legs = np.indices((n,) * k).reshape(k, -1)
    words = _word_values(G, senses, [legs[i] for i in range(k)])
    t = np.zeros((n,) * (k + 1))
    flat = t.reshape(n, -1)
    flat[words, np.arange(legs.shape[1] if k else 1)] = 1.0
    return t


# --- Ring symmetries, one operator at a time ---


def apply_u_odd(state: SparseState, g: ClusterGraph, x: int) -> SparseState:
    """Right-multiply every odd digit by x^-1 (the odd global symmetry)."""
    ring_even_cycle(g)
    return _u_odd(state.register.group, g).bind({PARAM: x}).apply(state)


def _resolve_irrep(G: FiniteGroup, irrep) -> Irrep:
    return irrep if isinstance(irrep, Irrep) else G.irrep(irrep)


def apply_u_even(state: SparseState, g: ClusterGraph, irrep,
                 normalized: bool = True) -> SparseState:
    """Weight each key by tr prod_s irrep(z_s) over the even cycle (times
    1/dim when normalized, making the cluster state weight exactly 1).

    ``irrep`` may be a catalog label or any Irrep object, so tensor products
    and direct sums of catalog entries work directly.
    """
    rep = _resolve_irrep(state.register.group, irrep)
    cycle = ring_even_cycle(g)
    return _u_even(state, cycle, rep, normalized)


def _u_even(state: SparseState, cycle, rep: Irrep,
            normalized: bool) -> SparseState:
    reg = state.register
    digits = np.array([reg.digit(state.codes, v) for v in cycle])
    coeff = _trace_weights((rep,), digits)[0]
    if normalized:
        coeff = coeff / rep.dim
    # the codes keep their order, so the constructor only prunes zero weights
    return SparseState(reg, state.codes, state.amps * coeff)


# --- Quantum double ---


def qd_stabilizers(lat: QdLattice, G: FiniteGroup) -> dict:
    stabs = {f"A[{s.id},{G.labels[g]}]": star_operator(lat, G, s.id, g)
             for s in lat.stars for g in range(G.order)}
    for p in lat.plaquettes:
        stabs[f"B[{p.id}]"] = shifted_plaquette(lat, G, p.id, 0)
    return stabs


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
