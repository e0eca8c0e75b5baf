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

``verify_symmetry_algebra`` checks the families' algebra in stacked passes.
The odd operators are one family in ``stabilizers.PARAM``, and the odd laws
go through the stabilizer kernel ``stabilizers._residuals`` over every
state at once: the composition Xr(y) then Xr(x), a two-parameter family,
against the family bound to xy, and the family bound to e against the state
itself.  The even weights of every irrep, tensor product and direct sum are
computed once per state, reps of one dimension sharing one chain of matrix
products, and each even or commutation law instance is one more block of a
stack in the passes of ``stabilizers._passes``.  Each block's residual is
summed as if its pair of states stood alone, so for any group (whose right
multiplications permute the basis) the stacked residuals equal the
operator-by-operator ones bit for bit.
"""

from __future__ import annotations

import numpy as np

from .graphs import ClusterGraph
from .groups import FiniteGroup, rep_direct_sum, rep_tensor
from .stabilizers import (BLOCK_ROWS, PARAM, ConditionalMonomial, Factor,
                          Word, _passes, _residuals)
from .states import (
    PRUNE_TOL,
    Register,
    SparseState,
    _block_sums,
    merge_codes,
    random_state,
)

__all__ = [
    "ring_even_cycle",
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


def _u_odd(G: FiniteGroup, g: ClusterGraph) -> ConditionalMonomial:
    """Xr(x) on every odd site of ``g``: one family in ``PARAM``, as the
    odd-site stabilizers K_w^x are."""
    factor = (Factor("XR", Word.var(PARAM)),)
    return ConditionalMonomial(G, (), {w: factor for w in g.odd_vertices})


def _trace_weights(reps, digits: np.ndarray) -> np.ndarray:
    """(len(reps), rows): tr prod_s rep(digits[s]) for each rep and row,
    the product taken down ``digits`` (one row of digits per cycle site, in
    cycle order).  The reps of one dimension share one chain of stacked
    matrix products, which gives each rep and row the product its own chain
    would; a link holds at most ``BLOCK_ROWS`` matrix entries, as the direct
    sums of a large group's irreps are large matrices."""
    rows = digits.shape[1]
    out = np.empty((len(reps), rows), dtype=complex)
    for dim in {r.dim for r in reps}:
        same = [i for i, r in enumerate(reps) if r.dim == dim]
        step = max(1, BLOCK_ROWS // max(rows * dim * dim, 1))
        for lo in range(0, len(same), step):
            which = same[lo:lo + step]
            mats = np.stack([reps[i].matrices for i in which])
            prod = mats[:, digits[0]]
            for row in digits[1:]:
                prod = prod @ mats[:, row]
            out[which] = np.einsum("mii->m", prod.reshape(-1, dim, dim)).reshape(
                len(which), -1)
    return out


def _offsets(codes: np.ndarray, blocks: int, dim: int) -> np.ndarray:
    """(blocks, len(codes)): row j holds ``codes`` offset by dim * j."""
    return codes + dim * np.arange(blocks)[:, None]


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
    n = G.order
    pairs = [(a, b) for a in range(n) for b in range(n)]
    if len(pairs) > 36:
        idx = rng.choice(len(pairs), size=36, replace=False)
        pairs = [pairs[i] for i in idx]
    psis = [random_state(reg, rng, 40).normalized() for _ in range(states)]
    pair_reps = [(i, j, rep_tensor(r1, r2), rep_direct_sum(r1, r2))
                 for i, r1 in enumerate(G.irreps)
                 for j, r2 in enumerate(G.irreps)]
    odd = _u_odd(G, g)
    # odd(odd(psi, y), x) against odd(psi, xy), and odd(psi, e) against psi
    composed = ConditionalMonomial(G, (), {w: (Factor("XR", Word.var("y")),
                                               Factor("XR", Word.var(PARAM)))
                                           for w in g.odd_vertices})
    codes = np.stack([psi.codes for psi in psis])
    amps = np.stack([psi.amps for psi in psis])
    composition = _residuals(
        {i: composed.bind({PARAM: x, "y": y}) for i, (x, y) in enumerate(pairs)},
        {i: odd.bind({PARAM: G.table[x, y]}) for i, (x, y) in enumerate(pairs)},
        reg, codes, amps)
    identity = _residuals({0: odd.bind({PARAM: 0})}, None, reg, codes, amps)
    checks = {law: float(np.sqrt(max(s.max() for s in sq.values())))
              for law, sq in (("odd_composition", composition),
                              ("odd_identity", identity))}
    checks.update(dict.fromkeys(("even_trivial_identity", "even_tensor",
                                 "even_direct_sum", "odd_even_commutation"), 0.0))
    xs = np.array(sorted({1 % n, n - 1}))  # the commutation law's elements
    for psi in psis:
        for law, sq in _state_residuals(psi, odd, cycle, pair_reps, xs):
            checks[law] = max(checks[law], float(np.sqrt(sq.max())))
    return checks


def _state_residuals(psi: SparseState, odd: ConditionalMonomial, cycle,
                     pair_reps: list, xs: np.ndarray):
    """Yield (law, squared residual per block) for one state: a block per
    irrep pair or (x, irrep) of the even and commutation laws' instances."""
    reg = psi.register
    G, dim, m = reg.group, reg.dimension, len(psi)
    c, A = psi.codes, psi.amps
    table = reg.digit_table(c)
    odd_digits = {w: table[reg.axis(w)] for w in odd.sites}

    def act(codes, amps, x, rows=None):
        """The odd family on stacked rows, with x per row; ``rows`` are the
        rows of psi the stack copies, whose digits are read already."""
        digits = None if rows is None else {w: d[rows]
                                            for w, d in odd_digits.items()}
        return odd.act_rows(reg, codes, amps, {PARAM: x}, digits)

    # every irrep's weights on psi and on each odd(psi, x), read once
    cyc = table[[reg.axis(v) for v in cycle]]
    phi_codes, phi_amps = act(np.tile(c, len(xs)), np.tile(A, len(xs)),
                              np.repeat(xs, m), np.tile(np.arange(m), len(xs)))
    phi_cyc = np.array([reg.digit(phi_codes, v) for v in cycle])
    weights = _trace_weights(G.irreps, np.concatenate([cyc, phi_cyc], axis=1))
    v = A * weights[:, :m]  # even(psi, r) before its zero weights are pruned
    kept = np.abs(v) > PRUNE_TOL

    yield "even_trivial_identity", _block_sums(merge_codes(c, v[0]), (c, A),
                                               dim, 1)

    # tensor and direct-sum laws, one block per ordered irrep pair
    for lo, hi in _passes(len(pair_reps), m, dim):
        chunk = pair_reps[lo:hi]
        k = hi - lo
        i1 = np.array([p[0] for p in chunk])
        i2 = np.array([p[1] for p in chunk])
        w = _trace_weights([p[2] for p in chunk] + [p[3] for p in chunk], cyc)
        grid = _offsets(c, k, dim)
        k1, k2 = kept[i1], kept[i2]
        yield "even_tensor", _block_sums(
            merge_codes(grid.ravel(), (A * w[:k]).ravel()),
            merge_codes(grid[k1], (v[i1] * weights[i2, :m])[k1]), dim, k)
        yield "even_direct_sum", _block_sums(
            merge_codes(grid.ravel(), (A * w[k:]).ravel()),
            merge_codes(np.concatenate([grid[k1], grid[k2]]),
                        np.concatenate([v[i1][k1], v[i2][k2]])), dim, k)

    # commutation, even(odd(psi, x), r) against odd(even(psi, r), x), one
    # block per (x, r)
    blocks = [(t, r) for t in range(len(xs)) for r in range(len(G.irreps))]
    for lo, hi in _passes(len(blocks), m, dim):
        t, r = np.array(blocks[lo:hi]).T
        k = hi - lo
        phi_rows = t[:, None] * m + np.arange(m)
        lhs = merge_codes(
            (phi_codes[phi_rows] + dim * np.arange(k)[:, None]).ravel(),
            (phi_amps[phi_rows] * weights[r[:, None], m + phi_rows]).ravel())
        mask = kept[r]
        rhs = merge_codes(*act(_offsets(c, k, dim)[mask], v[r][mask],
                               np.repeat(xs[t], mask.sum(axis=1)),
                               np.nonzero(mask)[1]))
        yield "odd_even_commutation", _block_sums(lhs, rhs, dim, k)
