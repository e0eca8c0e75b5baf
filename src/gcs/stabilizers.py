"""Symbolic conditional-monomial operators and cluster-state stabilizers.

A conditional monomial is a sum, over group-element assignments to some
summation variables, of tensor products of site factors — projectors
T(word), left/right multiplications Xl(word)/Xr(word), and diagonal
representation weights Z(irrep, i, j) — times a global scalar.  Words are
formal products of variables (possibly inverted) and constants.  Every
summation variable is pinned by a leading projector, so a monomial maps each
basis vector to at most one basis vector (a row map).

Two independent derivation routes are provided for the cluster-state
stabilizers: Heisenberg propagation of the initial product-state
stabilizers through the entangling circuit, one conjugation rule per gate,
and direct closed forms.  Agreement of the two routes, in action on
states, is this module's central cross-check.

Application order convention: within one site's factor list, index 0 acts
FIRST (input side).  Printing shows operator order (last applied leftmost).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .builder import GateSchedule
from .graphs import ClusterGraph
from .groups import FiniteGroup
from .states import (
    Register,
    SparseState,
    code_residuals,
    merge_codes,
    random_states,
    residual_norm,
)

__all__ = [
    "Word",
    "Factor",
    "ConditionalMonomial",
    "initial_stabilizers",
    "conjugate_by_cmult",
    "propagate",
    "closed_form_even",
    "closed_form_odd",
    "closed_form_stabilizers",
    "css_stabilizers",
    "verify",
    "operators_agree_on_basis",
    "operators_agree_on_random_states",
]

STABILIZER_TOL = 1e-10


class UnsupportedConjugation(ValueError):
    """Raised for factor kinds the gate conjugation table does not cover."""


class SupportBoundExceeded(RuntimeError):
    pass


# --- Words ---


def _mul(G: FiniteGroup, x, y):
    """Group product x*y of element indices, either of them a per-row
    array: one gather from the flattened table, at every group order."""
    return G.table.ravel()[np.multiply(x, G.order, dtype=np.int64) + y]


@dataclass(frozen=True)
class Word:
    """Formal left-to-right product of letters ``(value, inverted)``: an
    int value is a group element, a str value names a variable."""

    factors: tuple = ()

    @staticmethod
    def const(e: int) -> "Word":
        return Word(((int(e), False),))

    @staticmethod
    def var(name: str, inverted: bool = False) -> "Word":
        return Word(((name, inverted),))

    def times(self, other: "Word") -> "Word":
        return Word(self.factors + other.factors)

    def inverse(self) -> "Word":
        return Word(tuple((v, not inv) for v, inv in reversed(self.factors)))

    def evaluate(self, G: FiniteGroup, env: dict) -> np.ndarray | int:
        """Value under ``env`` mapping variable names to ints or int arrays."""
        def letter(v, inv):
            a = env[v] if isinstance(v, str) else v
            return G.inverse[a] if inv else a

        if not self.factors:
            return 0
        val = letter(*self.factors[0])
        for f in self.factors[1:]:
            val = _mul(G, val, letter(*f))
        return val

    def pretty(self, G: FiniteGroup) -> str:
        if not self.factors:
            return G.labels[0]
        return " ".join(
            (v if isinstance(v, str) else G.labels[v]) + ("^-1" if inv else "")
            for v, inv in self.factors)


def _conjugated(word: Word, var: str) -> Word:
    """h w h^-1 for a fresh variable h."""
    return Word.var(var).times(word).times(Word.var(var, inverted=True))


# --- Factors and monomials ---


@dataclass(frozen=True)
class Factor:
    """kind in {"T", "XL", "XR", "Z"}; Z carries (irrep_label, i, j) instead
    of a word."""

    kind: str
    word: Word = field(default_factory=Word)
    irrep_label: str = ""
    i: int = 0
    j: int = 0


@dataclass(frozen=True)
class ConditionalMonomial:
    group: FiniteGroup
    variables: tuple  # summation variable names, each ranging over the group
    sites: dict  # site id -> tuple of Factor, index 0 applied first
    scalar: complex = 1.0

    def support(self) -> tuple:
        return tuple(self.sites)

    def factors_at(self, site) -> tuple:
        return self.sites.get(site, ())

    # --- Application to states ---

    @cached_property
    def _plan(self):
        """How the action reads variables off a row; it depends on the
        operator alone.  Returns (steps, implied): each step (site, name,
        prefix, suffix, inverted) solves ``name`` from a leading projector
        T(prefix name^{+-1} suffix) at ``site``; ``implied`` holds the
        (site, factor index) of every projector a step solved from, which
        holds on every row by construction.  Every summation variable must
        be solved so: the operator then maps each basis vector to at most
        one basis vector, and a variable left free raises ``ValueError``."""
        steps, implied = [], set()
        unsolved = set(self.variables)
        progress = True
        while unsolved and progress:
            progress = False
            for site, factors in self.sites.items():
                for i, f in enumerate(factors):
                    if f.kind != "T":
                        break  # digit expression changes; stop scanning here
                    letters = f.word.factors
                    hits = [k for k, (v, _) in enumerate(letters)
                            if v in unsolved]
                    if len(hits) != 1:
                        continue
                    k = hits[0]
                    name, inverted = letters[k]
                    steps.append((site, name, Word(letters[:k]),
                                  Word(letters[k + 1:]), inverted))
                    implied.add((site, i))
                    unsolved.discard(name)
                    progress = True
        if unsolved:
            raise ValueError(
                "summation variables " + ", ".join(sorted(unsolved))
                + " are not fixed by a leading projector")
        return tuple(steps), frozenset(implied)

    def act_rows(self, register: Register, codes: np.ndarray, amps: np.ndarray):
        """Linear action on raw rows of codes: (codes, amps).

        One pass: each operator site's digits are read once, every
        summation variable is solved from them (``_plan``), and the factors
        then filter, rephase and rewrite the rows, so each row maps to at
        most one row.  Multiples of the register's dimension added to a code
        (a block offset) pass through untouched.  The output rows are not
        merged: a rewritten digit may leave them repeated or out of order
        (``merge_codes`` restores the canonical form).
        """
        for site in self.sites:
            if site not in register.sites:
                raise KeyError(f"operator site {site!r} not in register")
        steps, implied = self._plan
        if len(codes) == 0:
            return codes, amps
        G = self.group
        digits = {site: register.digit(codes, site) for site in self.sites}
        env: dict = {}
        for site, name, prefix, suffix, inverted in steps:
            val = digits[site]
            if prefix.factors:
                val = _mul(G, G.inverse[prefix.evaluate(G, env)], val)
            if suffix.factors:
                val = _mul(G, val, G.inverse[suffix.evaluate(G, env)])
            env[name] = G.inverse[val] if inverted else val
        out = codes
        if self.scalar != 1.0:
            amps = amps * self.scalar
        alive = None
        for site, factors in self.sites.items():
            old = digit = digits[site]
            for i, f in enumerate(factors):
                if f.kind == "T":
                    if (site, i) in implied:
                        continue
                    mask = digit == f.word.evaluate(G, env)
                    alive = mask if alive is None else alive & mask
                elif f.kind == "XL":
                    digit = _mul(G, f.word.evaluate(G, env), digit)
                elif f.kind == "XR":
                    digit = _mul(G, digit, G.inverse[f.word.evaluate(G, env)])
                elif f.kind == "Z":
                    mats = G.irrep(f.irrep_label).matrices
                    amps = amps * mats[digit, f.i, f.j]
                else:  # pragma: no cover
                    raise ValueError(f"unknown factor kind {f.kind}")
            if digit is not old:
                out = out + register.place_value(site, digit - old)
        if alive is None:
            return out, amps
        return out[alive], amps[alive]

    def apply(self, state: SparseState) -> SparseState:
        """Linear action on a state (see ``act_rows``)."""
        return SparseState(state.register,
                           *self.act_rows(state.register, state.codes, state.amps))

    # --- Printing ---

    def pretty(self) -> str:
        G = self.group
        bits = []
        if self.variables:
            bits.append("sum[" + ",".join(self.variables) + "]")
        if self.scalar != 1.0:
            bits.append(f"({self.scalar:g})*")
        for site in sorted(self.sites, key=str):
            for f in reversed(self.sites[site]):  # operator order: last applied first
                if f.kind == "Z":
                    bits.append(f"Z[{site}:{f.irrep_label},{f.i},{f.j}]")
                else:
                    name = {"T": "T", "XL": "Xl", "XR": "Xr"}[f.kind]
                    bits.append(f"{name}[{site}:({f.word.pretty(G)})]")
        return " ".join(bits) if bits else "1"


def _monomial(G: FiniteGroup, variables, site_factors, scalar=1.0) -> ConditionalMonomial:
    sites = {s: tuple(fs) for s, fs in site_factors.items() if fs}
    return ConditionalMonomial(G, tuple(variables), sites, scalar)


# --- Stabilizer sets: dicts from label to ConditionalMonomial ---


def initial_stabilizers(g: ClusterGraph, G: FiniteGroup,
                        include_right: bool = False) -> dict:
    """Product-state stabilizers before any gate: the identity projector on
    each even site, and every left multiplication on each odd site (the
    right-multiplication family is redundant and off by default)."""
    stabs = {}
    for v in g.even_vertices:
        stabs[f"even[{v}]"] = _monomial(G, (), {v: [Factor("T", Word.const(0))]})
    for w in g.odd_vertices:
        for x in range(G.order):
            stabs[f"odd[{w},{G.labels[x]}]"] = _monomial(
                G, (), {w: [Factor("XL", Word.const(x))]})
            if include_right:
                stabs[f"odd-right[{w},{G.labels[x]}]"] = _monomial(
                    G, (), {w: [Factor("XR", Word.const(x))]})
    return stabs


# --- Gate conjugation (Heisenberg picture) ---


def _fresh_name(base: str, used: set) -> str:
    name = base
    k = 2
    while name in used:
        name = f"{base}_{k}"
        k += 1
    used.add(name)
    return name


def _conjugate_primitive(f: Factor, at_control: bool, sense: str, control, target,
                         base: str, used: set):
    """Pieces [(site, Factor), ...] in application order, plus fresh vars."""
    if f.kind == "Z":
        raise UnsupportedConjugation(
            "representation-diagonal factors do not conjugate through "
            "controlled multiplication"
        )
    w = f.word
    if at_control:
        if f.kind == "T":
            return [(control, f)], []
        if f.kind == "XL":
            out_kind = "XL" if sense == "left" else "XR"
            return [(control, f), (target, Factor(out_kind, w))], []
        # XR at the control dresses itself with a projector sum
        h = _fresh_name(base, used)
        tgt_kind = "XL" if sense == "left" else "XR"
        moved = _conjugated(w.inverse(), h)
        return (
            [
                (control, Factor("T", Word.var(h))),
                (control, f),
                (target, Factor(tgt_kind, moved)),
            ],
            [h],
        )
    # factor on the target
    if f.kind == "T":
        h = _fresh_name(base, used)
        word = Word.var(h).times(w) if sense == "left" else w.times(Word.var(h, True))
        return (
            [(control, Factor("T", Word.var(h))), (target, Factor("T", word))],
            [h],
        )
    if (f.kind == "XL") == (sense == "left"):
        # same-handed multiplication on the target gets conjugated
        h = _fresh_name(base, used)
        return (
            [(control, Factor("T", Word.var(h))),
             (target, Factor(f.kind, _conjugated(w, h)))],
            [h],
        )
    # opposite-handed multiplication commutes with the gate
    return [(target, f)], []


def conjugate_by_cmult(op: ConditionalMonomial, control, target, sense: str,
                       tag: str = "") -> ConditionalMonomial:
    """Rewrite ``op`` as U op U^dagger for one controlled-multiplication gate.

    Factors on sites other than control/target pass through.  Fresh
    summation variables introduced by the rules are named h_<tag> (with a
    numeric suffix on collision) so printed operators are reproducible.
    """
    a_list = op.factors_at(control)
    b_list = op.factors_at(target)
    if not a_list and not b_list:
        return op
    used = set(op.variables)
    base = f"h_{tag}" if tag else "h"
    new_vars = list(op.variables)
    new_c: list[Factor] = []
    new_t: list[Factor] = []
    # (A at control) (B at target) = (A x 1)(1 x B): conjugate the input-side
    # B factors first, then the A factors, concatenating per site.
    for origin, factors in (("t", b_list), ("c", a_list)):
        for f in factors:
            pieces, fresh = _conjugate_primitive(
                f, origin == "c", sense, control, target, base, used
            )
            new_vars.extend(fresh)
            for site, piece in pieces:
                (new_c if site == control else new_t).append(piece)
    sites = dict(op.sites)
    sites.pop(control, None)
    sites.pop(target, None)
    if new_c:
        sites[control] = tuple(new_c)
    if new_t:
        sites[target] = tuple(new_t)
    return ConditionalMonomial(op.group, tuple(new_vars), sites, op.scalar)


def propagate(sched: GateSchedule, init: dict) -> dict:
    """Conjugate every initial stabilizer through the whole circuit.

    The result of propagating a one-site initial stabilizer is guaranteed
    to touch at most the origin site, its neighbours and its next-nearest
    neighbours; exceeding that bound raises (it would signal a broken rule
    table)."""
    adj: dict = {}
    for gate in sched:
        adj.setdefault(gate.control, set()).add(gate.target)
        adj.setdefault(gate.target, set()).add(gate.control)
    out = {}
    for label, op in init.items():
        cur = op
        for gate in sched:
            cur = conjugate_by_cmult(cur, gate.control, gate.target, gate.sense,
                                     tag=f"{gate.control}@{gate.edge}")
        if op.sites:
            origin = op.support()[0]
            near = adj.get(origin, set())
            bound = {origin}.union(near, *(adj[v] for v in near))
            extra = set(cur.support()) - bound
            if extra:
                raise SupportBoundExceeded(
                    f"stabilizer {label} spread to {sorted(map(str, extra))}"
                )
        out[label] = cur
    return out


# --- Closed forms ---


def _edges_in_order(g: ClusterGraph, v: str):
    return [g.edge(eid) for eid in g.orderings[v]]


def closed_form_even(g: ClusterGraph, G: FiniteGroup, v: str) -> ConditionalMonomial:
    """Even-site stabilizer: one summation variable per incident edge, a
    projector at v onto the gate-accumulated word — outward-edge variables
    multiplied in reverse vertex order, then inward-edge variables inverted
    in forward order — and a matching projector on each neighbour."""
    if g.parity(v) != "even":
        raise ValueError(f"{v} is not an even vertex")
    neighbour_factors: dict = {}
    left_vars: list[Word] = []
    right_vars: list[Word] = []
    variables = []
    for e in _edges_in_order(g, v):
        name = f"g_{e.id}"
        variables.append(name)
        if e.tail == v:  # outward: left multiplication by the odd control
            left_vars.append(Word.var(name))
            other = e.head
        else:  # inward: right multiplication by the inverse
            right_vars.append(Word.var(name, inverted=True))
            other = e.tail
        neighbour_factors.setdefault(other, []).append(Factor("T", Word.var(name)))
    word = Word()
    for wv in reversed(left_vars):
        word = word.times(wv)
    for wv in right_vars:
        word = word.times(wv)
    site_factors = {v: [Factor("T", word)]}
    site_factors.update(neighbour_factors)
    return _monomial(G, variables, site_factors)


def closed_form_odd(g: ClusterGraph, G: FiniteGroup, w: str, x: int) -> ConditionalMonomial:
    """Odd-site stabilizer for element ``x``: left multiplication at w and,
    on each even neighbour, the transported multiplication conjugated by
    the controls of every same-handed later edge at that neighbour (each
    carrying a projector sum of its own)."""
    if g.parity(w) != "odd":
        raise ValueError(f"{w} is not an odd vertex")
    variables: list[str] = []
    even_factors: dict = {}
    dress_factors: dict = {}
    for e in g.incident_edges(w):
        p = e.tail if e.head == w else e.head
        sense = "left" if e.tail == p else "right"
        order = list(g.orderings[p])
        later = [
            g.edge(eid)
            for eid in order[order.index(e.id) + 1 :]
            if (g.edge(eid).tail == p) == (sense == "left")
        ]
        word = Word.const(x)
        for le in later:  # closest later edge wraps innermost
            name = f"h_{e.id}_{le.id}"
            variables.append(name)
            word = _conjugated(word, name)
            other = le.head if le.tail == p else le.tail
            dress_factors.setdefault(other, []).append(Factor("T", Word.var(name)))
        kind = "XL" if sense == "left" else "XR"
        pos = order.index(e.id)
        even_factors.setdefault(p, []).append((pos, Factor(kind, word)))
    site_factors: dict = {}
    for site, dressed in dress_factors.items():
        site_factors[site] = list(dressed)
    for p, tagged in even_factors.items():
        tagged.sort(key=lambda t: t[0])
        site_factors.setdefault(p, [])
        site_factors[p] = site_factors.get(p, []) + [f for _, f in tagged]
    # at w itself: dressing projectors (if any) first, then the multiplication
    site_factors[w] = site_factors.get(w, []) + [Factor("XL", Word.const(x))]
    return _monomial(G, variables, site_factors)


def closed_form_stabilizers(g: ClusterGraph, G: FiniteGroup) -> dict:
    stabs = {f"even[{v}]": closed_form_even(g, G, v) for v in g.even_vertices}
    for w in g.odd_vertices:
        for x in range(G.order):
            stabs[f"odd[{w},{G.labels[x]}]"] = closed_form_odd(g, G, w, x)
    return stabs


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


# --- Verification ---


def verify(stabs: dict, state: SparseState) -> dict:
    """Each stabilizer's residual |S psi - psi| / |psi|, by label."""
    norm = state.norm()
    if norm == 0:
        raise ValueError("cannot verify stabilizers on the zero state")
    return {label: residual_norm(op.apply(state), state) / norm
            for label, op in stabs.items()}


def _stacked_residuals(a: ConditionalMonomial, b: ConditionalMonomial,
                       register: Register, codes: np.ndarray,
                       amps: np.ndarray) -> float:
    """Max over the states psi_i (row i of the 2-D ``codes``/``amps``) of
    ||a psi_i - b psi_i||.  The states are stacked in blocks, state i's
    codes offset by i * |G|^width, which no digit read or rewrite touches,
    each block holding as many states as keep the codes below 2**62; each
    operator acts once per block, and the per-state sums come from
    canonicalizing the offset codes."""
    dim = register.dimension
    per_block = (2**62 - 1) // dim
    worst = 0.0
    for lo in range(0, len(codes), per_block):
        block = codes[lo:lo + per_block]
        stacked = (block + dim * np.arange(len(block))[:, None]).ravel()
        rows = amps[lo:lo + per_block].ravel()
        c, sq = code_residuals(
            *merge_codes(*a.act_rows(register, stacked, rows)),
            *merge_codes(*b.act_rows(register, stacked, rows)))
        sq = np.bincount(c // dim, weights=sq, minlength=len(block))
        worst = max(worst, float(np.sqrt(sq.max())))
    return worst


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
    return _stacked_residuals(a, b, register, codes[:, None],
                              np.ones((len(codes), 1), dtype=complex))


def operators_agree_on_random_states(a: ConditionalMonomial, b: ConditionalMonomial,
                                     register: Register, rng: np.random.Generator,
                                     states: int = 50, keys_per_state: int = 200) -> float:
    """Max over ``states`` seeded random states psi of ||a psi - b psi||."""
    psis = random_states(register, rng, states, keys_per_state)
    if not psis:
        return 0.0
    return _stacked_residuals(a, b, register,
                              np.stack([p.codes for p in psis]),
                              np.stack([p.amps for p in psis]))
