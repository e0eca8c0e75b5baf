"""Symbolic conditional-monomial operators and cluster-state stabilizers.

A conditional monomial is a sum, over group-element assignments to some
summation variables, of tensor products of site factors — projectors
T(word), left/right multiplications Xl(word)/Xr(word), and diagonal
representation weights Z(irrep, i, j) — times a global scalar.  Words are
formal products of variables (possibly inverted) and constants.

Two independent derivation routes are provided for the cluster-state
stabilizers: Heisenberg propagation of the initial product-state
stabilizers through the entangling circuit, one conjugation rule per gate,
and direct closed forms.  Agreement of the two routes, in action on
states, is this module's central cross-check.

Application order convention: within one site's factor list, index 0 acts
FIRST (input side).  Printing shows operator order (last applied leftmost).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .builder import Gate, GateSchedule, schedule
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
    "StabilizerSet",
    "VerifyReport",
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
ENUM_CAP = 10**6


class UnsupportedConjugation(ValueError):
    """Raised for factor kinds the gate conjugation table does not cover."""


class SupportBoundExceeded(RuntimeError):
    pass


# --- Words ---


def _mul(G: FiniteGroup, x, y):
    """Group product x*y of element indices, either of them a per-row
    array.  Two arrays gather from the flattened table, which is much
    cheaper than a two-index gather, when the flat index fits int16."""
    if (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
            and G.order ** 2 <= np.iinfo(np.int16).max + 1):
        flat = x.astype(np.int16, copy=False) * np.int16(G.order) + y
        return np.take(G.table.ravel(), flat)
    return G.table[x, y]


@dataclass(frozen=True)
class Word:
    """Formal left-to-right product of variables and constants."""

    factors: tuple = ()

    @staticmethod
    def const(e: int) -> "Word":
        return Word((("const", int(e)),))

    @staticmethod
    def var(name: str, inverted: bool = False) -> "Word":
        return Word((("var", name, inverted),))

    def times(self, other: "Word") -> "Word":
        return Word(self.factors + other.factors)

    def inverse(self) -> "Word":
        out = []
        for f in reversed(self.factors):
            if f[0] == "const":
                out.append(("cinv", f[1]))
            elif f[0] == "cinv":
                out.append(("const", f[1]))
            else:
                out.append(("var", f[1], not f[2]))
        return Word(tuple(out))

    def variables(self) -> tuple[str, ...]:
        seen = []
        for f in self.factors:
            if f[0] == "var" and f[1] not in seen:
                seen.append(f[1])
        return tuple(seen)

    def evaluate(self, G: FiniteGroup, env: dict) -> np.ndarray | int:
        """Value under ``env`` mapping variable names to ints or int arrays."""
        val: np.ndarray | int = 0
        for f in self.factors:
            if f[0] == "const":
                val = G.table[val, f[1]]
            elif f[0] == "cinv":
                val = G.table[val, G.inverse[f[1]]]
            else:
                a = env[f[1]]
                if f[2]:
                    a = G.inverse[a]
                val = _mul(G, val, a)
        return val

    def pretty(self, G: FiniteGroup) -> str:
        if not self.factors:
            return G.labels[0]
        parts = []
        for f in self.factors:
            if f[0] == "const":
                parts.append(G.labels[f[1]])
            elif f[0] == "cinv":
                parts.append(f"{G.labels[f[1]]}^-1")
            else:
                parts.append(f"{f[1]}^-1" if f[2] else f[1])
        return " ".join(parts)


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

    def pretty(self, G: FiniteGroup) -> str:
        if self.kind == "Z":
            return f"Z[{self.irrep_label},{self.i},{self.j}]"
        name = {"T": "T", "XL": "Xl", "XR": "Xr"}[self.kind]
        return f"{name}({self.word.pretty(G)})"


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
        operator alone.  Returns (steps, free, implied): each step
        (site, name, prefix, suffix, inverted) solves ``name`` from a
        leading projector T(prefix name^{+-1} suffix) at ``site``; ``free``
        lists the variables left to enumerate; ``implied`` holds the
        (site, factor index) of every projector a step solved from, which
        holds on every row by construction."""
        steps, implied = [], set()
        unsolved = set(self.variables)
        progress = True
        while unsolved and progress:
            progress = False
            for site, factors in self.sites.items():
                for i, f in enumerate(factors):
                    if f.kind != "T":
                        break  # digit expression changes; stop scanning here
                    w = f.word
                    hits = [
                        (k, p)
                        for k, p in enumerate(w.factors)
                        if p[0] == "var" and p[1] in unsolved
                    ]
                    if len(hits) != 1:
                        continue
                    others = {p[1] for p in w.factors if p[0] == "var"}
                    if (others - {hits[0][1][1]}) & unsolved:
                        continue
                    k, (_, name, inverted) = hits[0]
                    steps.append((site, name, Word(w.factors[:k]),
                                  Word(w.factors[k + 1 :]), inverted))
                    implied.add((site, i))
                    unsolved.discard(name)
                    progress = True
        return tuple(steps), sorted(unsolved), frozenset(implied)

    def _solve_variables(self, digits: dict) -> tuple[dict, list]:
        """Per-row arrays for every variable solvable from leading projector
        factors, given each operator site's row digits; remaining variables
        are returned for enumeration."""
        G = self.group
        env: dict = {}
        steps, free, _ = self._plan
        for site, name, prefix, suffix, inverted in steps:
            digit = digits[site]
            a = prefix.evaluate(G, env)
            b = suffix.evaluate(G, env)
            if np.ndim(a) or np.ndim(b):
                val = _mul(G, _mul(G, G.inverse[a], digit), G.inverse[b])
                env[name] = G.inverse[val] if inverted else val
                continue
            # constant prefix and suffix: one lookup per row, none for T(name)
            lut = G.table[G.table[G.inverse[a], np.arange(G.order)], G.inverse[b]]
            if inverted:
                lut = G.inverse[lut]
            identity = np.array_equal(lut, np.arange(G.order))
            env[name] = digit if identity else lut[digit]
        return env, list(free)

    def _act(self, register: Register, codes: np.ndarray, digits: dict,
             amps: np.ndarray, env: dict):
        """(codes, amps, moved): ``moved`` is False when no digit was
        rewritten, in which case the surviving rows keep their input order
        (a filtered/rephased subset of the input rows)."""
        G = self.group
        out = codes
        if self.scalar != 1.0:
            amps = amps * self.scalar
        alive = None
        implied = self._plan[2]
        for site, factors in self.sites.items():
            old = digit = digits[site]
            rewritten = False
            for i, f in enumerate(factors):
                if f.kind == "T":
                    if (site, i) in implied:
                        continue
                    mask = digit == f.word.evaluate(G, env)
                    alive = mask if alive is None else alive & mask
                elif f.kind == "XL":
                    digit = _mul(G, f.word.evaluate(G, env), digit)
                    rewritten = True
                elif f.kind == "XR":
                    digit = _mul(G, digit, G.inverse[f.word.evaluate(G, env)])
                    rewritten = True
                elif f.kind == "Z":
                    mats = G.irrep(f.irrep_label).matrices
                    amps = amps * mats[digit, f.i, f.j]
                else:  # pragma: no cover
                    raise ValueError(f"unknown factor kind {f.kind}")
            if rewritten:
                out = out + register.place_value(site, digit - old)
        moved = out is not codes
        if alive is None:
            return out, amps, moved
        return out[alive], amps[alive], moved

    def act_rows(self, register: Register, codes: np.ndarray, amps: np.ndarray,
                 states: int = 1):
        """Linear action on raw rows of codes: (codes, amps, moved).

        Variables fixed by leading projectors are read off each row (cost
        proportional to the number of rows); any remainder is enumerated
        exhaustively, within a budget that counts ``states`` equal blocks
        of stacked rows one block at a time.  Multiples of the register's
        dimension added to a code (a block offset) pass through untouched.
        The output rows are not merged: when ``moved`` is True a digit was
        rewritten or variables were enumerated, so rows may repeat or be
        out of order; otherwise they are a filtered, rephased subset of the
        input rows in input order.
        """
        for site in self.sites:
            if site not in register.sites:
                raise KeyError(f"operator site {site!r} not in register")
        if len(codes) == 0:
            return codes, amps, False
        # each operator site's digits, read once per call
        digits = {site: register.digit(codes, site) for site in self.sites}
        env, free = self._solve_variables(digits)
        if not free:
            return self._act(register, codes, digits, amps, env)
        n = self.group.order
        per_state = len(codes) // states
        if n ** len(free) * per_state > ENUM_CAP * 10:
            raise RuntimeError(
                f"enumerating {len(free)} free variables over {per_state} keys "
                "exceeds the evaluation budget"
            )
        parts_c, parts_a = [], []
        for combo in itertools.product(range(n), repeat=len(free)):
            env2 = dict(env)
            env2.update(zip(free, combo))
            c, a, _ = self._act(register, codes, digits, amps, env2)
            parts_c.append(c)
            parts_a.append(a)
        return np.concatenate(parts_c), np.concatenate(parts_a), True

    def apply(self, state: SparseState) -> SparseState:
        """Linear action on a state (see ``act_rows``)."""
        codes, amps, moved = self.act_rows(state.register, state.codes, state.amps)
        return SparseState(state.register, codes, amps, canonical=not moved)

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


# --- Stabilizer sets ---


@dataclass(frozen=True)
class StabilizerSet:
    entries: tuple  # of (label: str, ConditionalMonomial)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def labels(self) -> tuple:
        return tuple(lab for lab, _ in self.entries)

    def get(self, label: str) -> ConditionalMonomial:
        for lab, op in self.entries:
            if lab == label:
                return op
        raise KeyError(label)


def initial_stabilizers(g: ClusterGraph, G: FiniteGroup,
                        include_right: bool = False) -> StabilizerSet:
    """Product-state stabilizers before any gate: the identity projector on
    each even site, and every left multiplication on each odd site (the
    right-multiplication family is redundant and off by default)."""
    entries = []
    for v in g.even_vertices:
        entries.append((f"even[{v}]", _monomial(G, (), {v: [Factor("T", Word.const(0))]})))
    for w in g.odd_vertices:
        for x in range(G.order):
            entries.append(
                (f"odd[{w},{G.labels[x]}]",
                 _monomial(G, (), {w: [Factor("XL", Word.const(x))]}))
            )
            if include_right:
                entries.append(
                    (f"odd-right[{w},{G.labels[x]}]",
                     _monomial(G, (), {w: [Factor("XR", Word.const(x))]}))
                )
    return StabilizerSet(tuple(entries))


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


def _schedule_adjacency(sched: GateSchedule) -> dict:
    adj: dict = {}
    for gate in sched:
        adj.setdefault(gate.control, set()).add(gate.target)
        adj.setdefault(gate.target, set()).add(gate.control)
    return adj


def _support_bound(origin, adj: dict) -> set:
    near = adj.get(origin, set())
    bound = {origin} | near
    for v in near:
        bound |= adj.get(v, set())
    return bound


def propagate(sched: GateSchedule, init: StabilizerSet,
              enforce_support: bool = True) -> StabilizerSet:
    """Conjugate every initial stabilizer through the whole circuit.

    The result of propagating a one-site initial stabilizer is guaranteed
    to touch at most the origin site, its neighbours and its next-nearest
    neighbours; exceeding that bound raises (it would signal a broken rule
    table)."""
    out = []
    for label, op in init.entries:
        origin = op.support()[0] if op.support() else None
        cur = op
        for gate in sched:
            cur = conjugate_by_cmult(cur, gate.control, gate.target, gate.sense,
                                     tag=f"{gate.control}@{gate.edge}")
        if enforce_support and origin is not None:
            bound = _support_bound(origin, _schedule_adjacency(sched))
            extra = set(cur.support()) - bound
            if extra:
                raise SupportBoundExceeded(
                    f"stabilizer {label} spread to {sorted(map(str, extra))}"
                )
        out.append((label, cur))
    return StabilizerSet(tuple(out))


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


def closed_form_stabilizers(g: ClusterGraph, G: FiniteGroup) -> StabilizerSet:
    entries = []
    for v in g.even_vertices:
        entries.append((f"even[{v}]", closed_form_even(g, G, v)))
    for w in g.odd_vertices:
        for x in range(G.order):
            entries.append((f"odd[{w},{G.labels[x]}]", closed_form_odd(g, G, w, x)))
    return StabilizerSet(tuple(entries))


def css_stabilizers(g: ClusterGraph, G: FiniteGroup) -> StabilizerSet:
    """Order-2 groups only: the multiplication/representation-split forms —
    a sign-representation Z on an even site and each of its neighbours, an
    X on an odd site and each of its neighbours."""
    if G.order != 2:
        raise ValueError("the split stabilizer forms require an order-2 group")
    sign = G.irreps[1].label
    entries = []
    for v in g.even_vertices:
        sites = {v: [Factor("Z", irrep_label=sign)]}
        for e in g.incident_edges(v):
            other = e.head if e.tail == v else e.tail
            sites.setdefault(other, []).append(Factor("Z", irrep_label=sign))
        entries.append((f"css-even[{v}]", _monomial(G, (), sites)))
    for w in g.odd_vertices:
        sites = {w: [Factor("XL", Word.const(1))]}
        for e in g.incident_edges(w):
            other = e.head if e.tail == w else e.tail
            sites.setdefault(other, []).append(Factor("XL", Word.const(1)))
        entries.append((f"css-odd[{w}]", _monomial(G, (), sites)))
    return StabilizerSet(tuple(entries))


# --- Verification ---


@dataclass(frozen=True)
class VerifyReport:
    residuals: dict  # label -> float
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol

    @property
    def first_failure(self) -> str | None:
        for lab, r in self.residuals.items():
            if r > self.tol:
                return lab
        return None


def verify(stabs: StabilizerSet, state: SparseState,
           tol: float = STABILIZER_TOL) -> VerifyReport:
    """Max over stabilizers of |S psi - psi| / |psi|.

    Each residual is taken from the operator's raw output codes, merged,
    against the state's sorted codes."""
    norm = state.norm()
    if norm == 0:
        raise ValueError("cannot verify stabilizers on the zero state")
    residuals = {}
    for label, op in stabs:
        codes, amps, _ = op.act_rows(state.register, state.codes, state.amps)
        codes, amps = merge_codes(codes, amps)
        sq = code_residuals(codes, amps, state.codes, state.amps)[1]
        residuals[label] = float(np.sqrt(np.sum(sq))) / norm
    return VerifyReport(residuals, tol)


def operators_agree_on_basis(a: ConditionalMonomial, b: ConditionalMonomial,
                             register: Register, tol: float = STABILIZER_TOL) -> float:
    """Max action deviation over every basis key of the joint support
    (other sites pinned to the identity element)."""
    support = sorted(set(a.support()) | set(b.support()), key=str)
    n = register.group.order
    if n ** len(support) > 4096:
        raise ValueError("support too large for exhaustive basis comparison")
    axes = [register.axis(s) for s in support]
    worst = 0.0
    for combo in itertools.product(range(n), repeat=len(support)):
        key = [0] * register.width
        for ax, val in zip(axes, combo):
            key[ax] = val
        basis = SparseState.from_dict(register, {tuple(key): 1.0})
        worst = max(worst, residual_norm(a.apply(basis), b.apply(basis)))
    return worst


def _stacked_residuals(a: ConditionalMonomial, b: ConditionalMonomial,
                       register: Register, psis: list) -> np.ndarray:
    """||a psi - b psi||^2 for each psi in ``psis``.  The states are stacked
    into one block of rows, state i's codes offset by i * |G|^width, which
    no digit read or rewrite touches, so each operator acts once; the
    per-state sums come from canonicalizing the offset codes."""
    dim = register.dimension
    codes = np.concatenate([p.codes + i * dim for i, p in enumerate(psis)])
    amps = np.concatenate([p.amps for p in psis])

    def rows(op):
        c, am, _ = op.act_rows(register, codes, amps, states=len(psis))
        return merge_codes(c, am)

    codes, sq = code_residuals(*rows(a), *rows(b))
    return np.bincount(codes // dim, weights=sq, minlength=len(psis))


def operators_agree_on_random_states(a: ConditionalMonomial, b: ConditionalMonomial,
                                     register: Register, rng: np.random.Generator,
                                     states: int = 50, keys_per_state: int = 200) -> float:
    """Max over ``states`` seeded random states psi of ||a psi - b psi||.

    The states are compared in blocks (``_stacked_residuals``), each
    holding as many states as keep the batched codes below 2**62."""
    psis = random_states(register, rng, states, keys_per_state)
    per_block = (2**62 - 1) // register.dimension
    worst = 0.0
    for lo in range(0, len(psis), per_block):
        sq = _stacked_residuals(a, b, register, psis[lo:lo + per_block])
        worst = max(worst, float(np.sqrt(sq.max())))
    return worst
