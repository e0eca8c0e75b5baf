"""Symbolic conditional-monomial operators and cluster-state stabilizers.

A conditional monomial is a sum, over group-element assignments to some
summation variables, of tensor products of site factors — projectors
T(word), left/right multiplications Xl(word)/Xr(word), and diagonal
representation weights Z(irrep, i, j).  Words are
formal products of variables (possibly inverted) and constants.  Every
summation variable is pinned by a leading projector, so a monomial maps each
basis vector to at most one basis vector (a row map).  A named letter the
monomial does not sum over is a parameter: the monomial is then a family of
operators, one per value, bound per operator (``bind``) or per row
(``act_rows``).  The odd-site stabilizers K_w^x form such a family in x, so
each family is derived once and its |G| members are checked together.

Two independent derivation routes are provided for the cluster-state
stabilizers: Heisenberg propagation of the initial product-state
stabilizers through the entangling circuit, one conjugation rule per gate,
and direct closed forms.  Agreement of the two routes, in action on
states, is this module's central cross-check.

Every residual is computed by one kernel, ``_residuals``: ``verify`` and
the route check call it, as does the ring symmetry check.  It stacks each
family's (member, state) blocks in passes, acts once per pass, and sums each
block as if its pair of states stood alone (``states._block_sums``, which
skips the per-block sums when every term is 0.0).

Application order convention: within one site's factor list, index 0 acts
FIRST (input side).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .builder import GateSchedule
from .graphs import ClusterGraph
from .groups import FiniteGroup, _mul
from .states import (
    Register,
    SparseState,
    _block_sums,
    merge_codes,
    sample_states,
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
    "verify",
    "stabilizers_agree_on_random_states",
]

STABILIZER_TOL = 1e-10
PARAM = "x"  # the parameter of the odd-site families: the element x of K_w^x
# Rows acted on in one stacked pass.  Stacking every member of a family on
# a large state multiplies its memory (qd2x2 with S3: 1.2 GB against 0.26 GB);
# 2**12 rows hold each corpus family in one pass and a large state one
# member at a time.
BLOCK_ROWS = 2**12


class UnsupportedConjugation(ValueError):
    """Raised for factor kinds the gate conjugation table does not cover."""


class SupportBoundExceeded(RuntimeError):
    pass


# --- Words ---


@dataclass(frozen=True)
class Word:
    """Formal left-to-right product of letters ``(value, inverted)``: an
    int value is a group element, a str value names a letter the caller
    gives a value (a summation variable or a parameter)."""

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
    binding: dict = field(default_factory=dict)  # parameter -> element
    # the operator ``bind`` was called on; members of one family share it
    family: "ConditionalMonomial | None" = field(default=None, repr=False,
                                                 compare=False)

    def bind(self, values: dict) -> "ConditionalMonomial":
        """The member of this family with each parameter named in
        ``values`` fixed to its element, e.g. ``bind({"x": 3})``."""
        family = self.family or self
        extra = values.keys() - family._plan[2]
        if extra:
            raise ValueError("no parameters " + ", ".join(sorted(extra)))
        return ConditionalMonomial(family.group, family.variables, family.sites,
                                   {k: int(v) for k, v in values.items()}, family)

    def support(self) -> tuple:
        return tuple(self.sites)

    def factors_at(self, site) -> tuple:
        return self.sites.get(site, ())

    # --- Application to states ---

    @cached_property
    def _plan(self):
        """How the action reads variables off a row; it depends on the
        operator alone.  Returns (steps, implied, params): each step (site,
        name, prefix, suffix, inverted) solves ``name`` from a leading
        projector T(prefix name^{+-1} suffix) at ``site``; ``implied`` holds
        the (site, factor index) of every projector a step solved from,
        which holds on every row by construction; ``params`` holds the
        named letters that are not summation variables.  Every summation
        variable must be solved so: the operator then maps each basis
        vector to at most one basis vector, and a variable left free raises
        ``ValueError``."""
        variables = set(self.variables)
        params = {v for factors in self.sites.values() for f in factors
                  for v, _ in f.word.factors
                  if isinstance(v, str) and v not in variables}
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
        return tuple(steps), frozenset(implied), frozenset(params)

    def act_rows(self, register: Register, codes: np.ndarray, amps: np.ndarray,
                 params: dict | None = None, digits: dict | None = None):
        """Linear action on raw rows of codes: (codes, amps).

        One pass: each operator site's digits are read once, every
        summation variable is solved from them (``_plan``), and the factors
        then filter, rephase and rewrite the rows, so each row maps to at
        most one row.  Multiples of the register's dimension added to a code
        (a block offset) pass through untouched.  The output rows are not
        merged: a rewritten digit may leave them repeated or out of order
        (``merge_codes`` restores the canonical form).

        ``params`` binds parameters beyond the operator's own ``binding``,
        each to an element or to a per-row array of elements; a parameter
        left unbound raises ``ValueError``.  ``digits`` maps each operator
        site to the rows' digits there, when the caller has them already.
        """
        for site in self.sites:
            if site not in register.sites:
                raise KeyError(f"operator site {site!r} not in register")
        steps, implied, names = self._plan
        env = {**self.binding, **(params or {})}
        if not names <= env.keys():
            raise ValueError("parameters " + ", ".join(sorted(names - env.keys()))
                             + " are not bound")
        if len(codes) == 0:
            return codes, amps
        G = self.group
        if digits is None:
            digits = {site: register.digit(codes, site) for site in self.sites}
        for site, name, prefix, suffix, inverted in steps:
            val = digits[site]
            if prefix.factors:
                val = _mul(G, G.inverse[prefix.evaluate(G, env)], val)
            if suffix.factors:
                val = _mul(G, val, G.inverse[suffix.evaluate(G, env)])
            env[name] = G.inverse[val] if inverted else val
        out = codes
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

    # its one non-test user: perfbench/tracing.py wraps it (CI's --trace 1 runs)
    def apply(self, state: SparseState) -> SparseState:
        """Linear action on a state (see ``act_rows``)."""
        return SparseState(state.register,
                           *self.act_rows(state.register, state.codes, state.amps))


def _monomial(G: FiniteGroup, variables, site_factors) -> ConditionalMonomial:
    sites = {s: tuple(fs) for s, fs in site_factors.items() if fs}
    return ConditionalMonomial(G, tuple(variables), sites)


# --- Stabilizer sets: dicts from label to ConditionalMonomial ---


def initial_stabilizers(g: ClusterGraph, G: FiniteGroup) -> dict:
    """Product-state stabilizers before any gate: the identity projector on
    each even site, and every left multiplication on each odd site (the
    right multiplications are redundant).  Each odd site's multiplications
    are one family in ``PARAM``, bound per element."""
    stabs = {}
    for v in g.even_vertices:
        stabs[f"even[{v}]"] = _monomial(G, (), {v: [Factor("T", Word.const(0))]})
    x = Word.var(PARAM)
    for w in g.odd_vertices:
        left = _monomial(G, (), {w: [Factor("XL", x)]})
        for e in range(G.order):
            stabs[f"odd[{w},{G.labels[e]}]"] = left.bind({PARAM: e})
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
    return ConditionalMonomial(op.group, tuple(new_vars), sites, op.binding)


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
    for labels in _families(init):
        family = init[labels[0]].family or init[labels[0]]
        cur = family
        for gate in sched:
            cur = conjugate_by_cmult(cur, gate.control, gate.target, gate.sense,
                                     tag=f"{gate.control}@{gate.edge}")
        if family.sites:
            origin = family.support()[0]
            near = adj.get(origin, set())
            bound = {origin}.union(near, *(adj[v] for v in near))
            extra = set(cur.support()) - bound
            if extra:
                raise SupportBoundExceeded(
                    f"stabilizer {labels[0]} spread to "
                    f"{sorted(map(str, extra))}")
        for label in labels:
            binding = init[label].binding
            out[label] = cur.bind(binding) if binding else cur
    return {label: out[label] for label in init}


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


def closed_form_odd(g: ClusterGraph, G: FiniteGroup, w: str,
                    x: int | None = None) -> ConditionalMonomial:
    """Odd-site stabilizer for element ``x``: left multiplication at w and,
    on each even neighbour, the transported multiplication conjugated by
    the controls of every same-handed later edge at that neighbour (each
    carrying a projector sum of its own).  With ``x`` omitted, the family
    of them all, x the parameter ``PARAM``."""
    if g.parity(w) != "odd":
        raise ValueError(f"{w} is not an odd vertex")
    element = Word.var(PARAM) if x is None else Word.const(x)
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
        word = element
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
    site_factors[w] = site_factors.get(w, []) + [Factor("XL", element)]
    return _monomial(G, variables, site_factors)


def closed_form_stabilizers(g: ClusterGraph, G: FiniteGroup) -> dict:
    """Every closed form by label; each odd site's are one family, bound
    per element."""
    stabs = {f"even[{v}]": closed_form_even(g, G, v) for v in g.even_vertices}
    for w in g.odd_vertices:
        family = closed_form_odd(g, G, w)
        for x in range(G.order):
            stabs[f"odd[{w},{G.labels[x]}]"] = family.bind({PARAM: x})
    return stabs


# --- Verification ---


def _families(a: dict, b: dict | None = None) -> list:
    """The labels of ``a`` grouped by the family their operators bind in
    ``a`` and, given ``b``, in ``b`` (an operator bound to no family is a
    family of one), in order of first appearance."""
    def family(op):
        return id(op.family or op)

    groups: dict = {}
    for label, op in a.items():
        key = family(op), None if b is None else family(b[label])
        groups.setdefault(key, []).append(label)
    return list(groups.values())


def _passes(blocks: int, rows: int, dim: int) -> list:
    """[(lo, hi), ...]: blocks of ``rows`` rows each, stacked at offsets
    of ``dim``, in passes of at most ``BLOCK_ROWS`` rows (one block at
    least) whose offset codes stay below 2**62."""
    per_pass = max(1, min(BLOCK_ROWS // max(rows, 1), (2**62 - 1) // dim))
    return [(lo, min(lo + per_pass, blocks)) for lo in range(0, blocks, per_pass)]


def _act_blocks(ops: list, which: np.ndarray, register: Register,
                codes: np.ndarray, amps: np.ndarray, rows: int,
                digits: dict | None = None):
    """``act_rows`` on stacked blocks of ``rows`` rows, block i acted on by
    ``ops[which[i]]`` (``which`` nondecreasing), the ops being members of
    one family: one member acts alone, several act as their family with
    each parameter read from a per-row column."""
    if which[0] == which[-1]:
        return ops[which[0]].act_rows(register, codes, amps, digits=digits)
    family = ops[0].family or ops[0]
    params = {name: np.repeat(np.array([op.binding[name] for op in ops])[which],
                              rows)
              for name in ops[0].binding}
    return family.act_rows(register, codes, amps, params, digits)


def _residuals(a: dict, b: dict | None, register: Register,
               codes: np.ndarray, amps: np.ndarray) -> dict:
    """||a[l] psi_s - b[l] psi_s||^2 by label l, an array over the states
    psi_s (row s of the 2-D ``codes``/``amps``, each row canonical);
    ``b=None`` compares with psi_s itself.

    The labels whose operators bind one family in ``a`` and one in ``b``
    (``_families``) are checked together: their (member, state) blocks are
    stacked at offsets of the register's dimension, which no digit read or
    rewrite touches, in passes (``_passes``) gathered from the states and
    their one ``digit_table``, and each side acts once per pass.  A
    one-block pass acts on the state's own arrays.  Each block is summed by
    ``states._block_sums``, so its value is bit for bit the sum of that
    block's pair of states taken alone."""
    dim = register.dimension
    states, rows = codes.shape
    table = register.digit_table(codes.ravel())
    out = {}
    for labels in _families(a, b):
        ops_a = [a[label] for label in labels]
        ops_b = None if b is None else [b[label] for label in labels]
        sq = np.empty(len(labels) * states)
        for lo, hi in _passes(len(sq), rows, dim):
            member, state = np.divmod(np.arange(lo, hi), states)
            if hi - lo == 1:  # the state itself: a large state is not copied
                s = state[0]
                stack = codes[s], amps[s]
                digits = table[:, s * rows:(s + 1) * rows]
            else:
                stack = ((codes[state] + dim * np.arange(hi - lo)[:, None]).ravel(),
                         amps[state].ravel())
                digits = table[:, (state[:, None] * rows + np.arange(rows)).ravel()]
            digits = dict(zip(register.sites, digits))
            lhs = merge_codes(*_act_blocks(ops_a, member, register, *stack,
                                           rows, digits))
            rhs = stack if ops_b is None else merge_codes(*_act_blocks(
                ops_b, member, register, *stack, rows, digits))
            sq[lo:hi] = _block_sums(lhs, rhs, dim, hi - lo)
            del lhs, rhs  # not held beside the next pass's rows
        for i, label in enumerate(labels):
            out[label] = sq[i * states:(i + 1) * states]
    return {label: out[label] for label in a}


def verify(stabs: dict, state: SparseState) -> dict:
    """Each stabilizer's residual |S psi - psi| / |psi|, by label
    (``_residuals`` with psi the one state)."""
    norm = state.norm()
    if norm == 0:
        raise ValueError("cannot verify stabilizers on the zero state")
    sq = _residuals(stabs, None, state.register, state.codes[None],
                    state.amps[None])
    return {label: float(np.sqrt(s[0])) / norm for label, s in sq.items()}


def stabilizers_agree_on_random_states(a: dict, b: dict, register: Register,
                                       rng: np.random.Generator, states: int = 50,
                                       keys_per_state: int = 200) -> dict:
    """For each label of ``a``: the max over ``states`` random states psi of
    ||a[label] psi - b[label] psi||.  The states are drawn once from
    ``rng`` (``sample_states``) and every label is checked on them
    (``_residuals``)."""
    codes, amps = sample_states(register, rng, states, keys_per_state)
    return {label: float(np.sqrt(sq.max()))
            for label, sq in _residuals(a, b, register, codes, amps).items()}
