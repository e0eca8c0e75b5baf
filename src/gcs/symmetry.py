"""Global symmetries of cluster states on closed rings.

The odd-site symmetry right-multiplies every odd digit by a fixed group
element.  The even-site symmetry is diagonal: each basis key is weighted by
the trace of an irrep evaluated along the ring's even digits, taken in the
telescoping order (each even site's accumulated word ends where the next
one begins, so the cluster state is an eigenstate with weight d, or 1 after
the 1/d normalization).

Both operators need every even site to carry exactly one inward and one
outward edge on a single closed cycle; anything else (open chains, branch
vertices, uniformly oriented rings) is rejected.
"""

from __future__ import annotations

import numpy as np

from .graphs import ClusterGraph
from .groups import FiniteGroup, Irrep, rep_direct_sum, rep_tensor
from .stabilizers import ConditionalMonomial, Factor, Word
from .states import Register, SparseState, random_state, residual_norm

__all__ = [
    "ring_even_cycle",
    "apply_u_odd",
    "apply_u_even",
    "verify_symmetry_algebra",
]


def ring_even_cycle(g: ClusterGraph) -> tuple:
    """Even sites in trace order, or raise if the graph is not a closed
    alternating ring with one inward and one outward edge per even site."""
    def fail(msg: str):
        return ValueError(f"graph {g.name}: {msg} (even symmetry needs a closed ring)")

    for v in g.vertex_ids:
        if len(g.incident_edges(v)) != 2:
            raise fail(f"vertex {v} has degree {len(g.incident_edges(v))}")
    evens = sorted(g.even_vertices, key=str)
    if not evens or len(g.even_vertices) != len(g.odd_vertices):
        raise fail("parities do not alternate around a cycle")
    step = {}
    for v in g.even_vertices:
        inward = [e for e in g.incident_edges(v) if e.head == v]
        outward = [e for e in g.incident_edges(v) if e.tail == v]
        if len(inward) != 1 or len(outward) != 1:
            raise fail(f"even vertex {v} needs one inward and one outward edge")
        odd = inward[0].tail
        onward = [e for e in g.incident_edges(odd) if e.id != inward[0].id][0]
        if onward.tail == odd:
            # the shared odd digit must close one even word and open the
            # next, which needs the onward edge oriented out of the next even
            raise fail(f"odd vertex {odd} controls both of its edges")
        step[v] = onward.tail
    cycle, seen = [evens[0]], {evens[0]}
    while True:
        nxt = step[cycle[-1]]
        if nxt == cycle[0]:
            break
        if nxt in seen:
            raise fail("even sites do not close into a single cycle")
        cycle.append(nxt)
        seen.add(nxt)
    if len(cycle) != len(evens):
        raise fail("graph is not connected")
    return tuple(cycle)


def apply_u_odd(state: SparseState, g: ClusterGraph, x: int) -> SparseState:
    """Right-multiply every odd digit by x^-1 (the odd global symmetry)."""
    ring_even_cycle(g)
    return _u_odd(state.register.group, g, x).apply(state)


def _u_odd(G: FiniteGroup, g: ClusterGraph, x: int) -> ConditionalMonomial:
    """Xr(x) on every odd site of ``g``."""
    factor = (Factor("XR", Word.const(x)),)
    return ConditionalMonomial(G, (), {w: factor for w in g.odd_vertices})


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
    prod = rep.matrices[reg.digit(state.codes, cycle[0])]
    for v in cycle[1:]:
        prod = prod @ rep.matrices[reg.digit(state.codes, v)]
    coeff = np.einsum("mii->m", prod)
    if normalized:
        coeff = coeff / rep.dim
    # the codes keep their order, so the constructor only prunes zero weights
    return SparseState(reg, state.codes, state.amps * coeff)


def verify_symmetry_algebra(g: ClusterGraph, G: FiniteGroup,
                            rng: np.random.Generator | None = None,
                            states: int = 50) -> dict:
    """Residuals of the symmetry algebra in action on random ring states,
    by law: the largest ||lhs - rhs|| over the states and group elements.

    Uses the unnormalized even operators throughout: the direct-sum law is
    additive only without the 1/dim factors, and the tensor law holds either
    way.  Composition of the odd family follows the group itself.
    """
    cycle = ring_even_cycle(g)
    rng = rng or np.random.default_rng(0)
    reg = Register(G, g.vertex_ids)
    checks: dict[str, float] = {
        "odd_composition": 0.0,
        "odd_identity": 0.0,
        "even_trivial_identity": 0.0,
        "even_tensor": 0.0,
        "even_direct_sum": 0.0,
        "odd_even_commutation": 0.0,
    }
    n = G.order
    pairs = [(a, b) for a in range(n) for b in range(n)]
    if len(pairs) > 36:
        idx = rng.choice(len(pairs), size=36, replace=False)
        pairs = [pairs[i] for i in idx]
    irrep_pairs = [(r1, r2, rep_tensor(r1, r2), rep_direct_sum(r1, r2))
                   for r1 in G.irreps for r2 in G.irreps]
    u_odd = [_u_odd(G, g, x) for x in range(n)]

    def odd(state, x):
        return u_odd[x].apply(state)

    def even(state, rep):
        return _u_even(state, cycle, rep, normalized=False)

    def note(name, lhs, rhs):
        checks[name] = max(checks[name], residual_norm(lhs, rhs))

    for _ in range(states):
        psi = random_state(reg, rng, 40).normalized()
        for a, b in pairs:
            note("odd_composition", odd(odd(psi, b), a), odd(psi, G.table[a, b]))
        note("odd_identity", odd(psi, 0), psi)
        note("even_trivial_identity", even(psi, G.irreps[0]), psi)
        for r1, r2, r12, r1_r2 in irrep_pairs:
            note("even_tensor", even(psi, r12), even(even(psi, r1), r2))
            note("even_direct_sum", even(psi, r1_r2),
                 even(psi, r1).add(even(psi, r2)))
        for x in {1 % n, n - 1}:
            for r in G.irreps:
                note("odd_even_commutation", even(odd(psi, x), r),
                     odd(even(psi, r), x))
    return checks
