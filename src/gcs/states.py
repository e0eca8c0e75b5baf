"""Sparse multi-qudit states over a group-element basis.

A register is an ordered list of named sites sharing one finite group; a
basis vector |g_1 ... g_n> of C[G]^n is one int64 code, the mixed-radix
index sum_c g_c |G|^(n-1-c) (first site most significant).  A state is a
sparse map from codes to complex amplitudes, stored as a sorted code array
plus an amplitude vector, so operators vectorize and sorting, merging and
matching basis vectors sort and compare 1-D codes.  Site c's digit is read
by arithmetic, ``codes % (place[c] * |G|) // place[c]`` with place[c] =
|G|^(n-1-c), and rewritten by adding ``(new - old) * place[c]``
(``Register.digit``, ``Register.place_value``); a register whose codes
would not fit 62 bits is refused (``OverBudget``).
States are values: every operation returns a new state and never mutates
its input.  Stored states are kept canonical — codes unique and sorted,
amplitudes pruned below 1e-14.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import numpy as np

from .groups import FiniteGroup

__all__ = [
    "PRUNE_TOL",
    "OverBudget",
    "MAX_SITES",
    "check_width",
    "Register",
    "SparseState",
    "inner_product",
    "merge_codes",
    "code_residuals",
    "fidelity",
    "project_site",
    "rep_basis_order",
    "basis_matrix_to_rep",
    "site_marginal",
    "sample_states",
    "random_state",
]

PRUNE_TOL = 1e-14
CODE_BITS = 62  # codes stay below 2**62, so block offsets fit an int64
MAX_SITES = CODE_BITS - 1  # a code is charged at least one bit per site


class OverBudget(ValueError):
    """A request past a size budget: a state with more keys than the
    builder's ``MAX_KEYS``, or a register whose codes exceed 62 bits."""


def _code_bits(width: int, order: int) -> float:
    """Bits a code of ``width`` digits base ``order`` is charged: at least
    one per site, so no register holds more than ``MAX_SITES`` sites,
    whatever the group (a one-element group's digits carry no
    information)."""
    return width * max(np.log2(order), 1.0)


def check_width(G: FiniteGroup, width: int) -> None:
    """Raise ``OverBudget`` unless ``width`` sites of ``G`` pack into one
    int64 code: at most ``MAX_SITES`` sites, and
    width * max(log2|G|, 1) < 62 bits."""
    if width > MAX_SITES or _code_bits(width, G.order) >= CODE_BITS:
        raise OverBudget(
            f"{width} sites of {G.name} need {_code_bits(width, G.order):.1f} "
            f"bits per key, past the {CODE_BITS}-bit code limit; reduce sites "
            "or group order"
        )


@dataclass(frozen=True)
class Register:
    group: FiniteGroup
    sites: tuple

    def __post_init__(self) -> None:
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("register sites must be unique")
        check_width(self.group, len(self.sites))

    @cached_property
    def _axes(self) -> dict:
        return {s: c for c, s in enumerate(self.sites)}

    @cached_property
    def place(self) -> np.ndarray:
        """Place value |G|^(width-1-c) of each site's digit in a code."""
        return self.group.order ** np.arange(self.width - 1, -1, -1,
                                             dtype=np.int64)

    def axis(self, site) -> int:
        try:
            return self._axes[site]
        except KeyError:
            raise KeyError(f"site {site!r} not in register")

    def digit(self, codes: np.ndarray, site) -> np.ndarray:
        """The element index at ``site`` of each code.  Multiples of the
        register's dimension added to a code do not change its digits."""
        p = self.place[self.axis(site)]
        return codes % (p * self.group.order) // p

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """One int64 code per row of digits (column c the digit at site c):
        the inverse of ``digit_table(codes).T``.  Sorting codes sorts rows."""
        return rows @ self.place

    def digit_table(self, codes: np.ndarray) -> np.ndarray:
        """(width, len(codes)) table of the codes' digits, row c the
        digits at site c, in the smallest unsigned type that holds them
        (uint8 for every group of order <= 256)."""
        table = np.empty((self.width, len(codes)),
                         dtype=np.min_scalar_type(self.group.order - 1))
        for c, site in enumerate(self.sites):
            table[c] = self.digit(codes, site)
        return table

    def place_value(self, site, digits) -> np.ndarray:
        """What ``digits`` at ``site`` add to a code, as int64."""
        return np.multiply(digits, self.place[self.axis(site)], dtype=np.int64)

    def without(self, codes: np.ndarray, site) -> np.ndarray:
        """Codes of ``drop(site)``: each code with the digit at ``site``
        removed (not sorted)."""
        p = self.place[self.axis(site)]
        return codes // (p * self.group.order) * p + codes % p

    def drop(self, site) -> "Register":
        return Register(self.group, tuple(s for s in self.sites if s != site))

    @property
    def width(self) -> int:
        return len(self.sites)

    @property
    def dimension(self) -> int:
        return self.group.order ** len(self.sites)


class SparseState:
    """Immutable sparse state vector: ``codes`` is (m,) int64, the sorted,
    unique basis-vector codes of the register; ``amps`` is (m,) complex128.
    The constructor accepts rows in any order, with repeats, and stores
    their canonical form (``merge_codes``)."""

    __slots__ = ("register", "codes", "amps")

    def __init__(self, register: Register, codes: np.ndarray, amps: np.ndarray):
        codes = np.asarray(codes, dtype=np.int64).reshape(-1)
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        if codes.shape[0] != amps.shape[0]:
            raise ValueError("codes/amps length mismatch")
        codes, amps = merge_codes(codes, amps)
        object.__setattr__(self, "register", register)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "amps", amps)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("SparseState is immutable")

    # --- Inspection ---

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def keys(self) -> np.ndarray:
        """(m, width) digit rows of the codes, decoded on each call."""
        return self.register.digit_table(self.codes).T

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def normalized(self) -> "SparseState":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero state")
        return SparseState(self.register, self.codes, self.amps / n)


def _check_same_register(a: SparseState, b: SparseState) -> None:
    if a.register.sites != b.register.sites or a.register.group.name != b.register.group.name:
        raise ValueError("states live on different registers")


def merge_codes(codes: np.ndarray, amps: np.ndarray):
    """Canonical form of a row set given by its codes: codes sorted and
    unique (a stable sort), amplitudes of equal codes summed, sums below
    PRUNE_TOL dropped.  Codes that already strictly increase are only
    pruned."""
    if len(codes) > 1 and not (codes[1:] > codes[:-1]).all():
        perm = np.argsort(codes, kind="stable")
        codes, amps = codes[perm], amps[perm]
        boundary = np.empty(len(codes), dtype=bool)
        boundary[0] = True
        np.not_equal(codes[1:], codes[:-1], out=boundary[1:])
        if not boundary.all():  # sum each run of equal codes
            starts = np.flatnonzero(boundary)
            codes, amps = codes[starts], np.add.reduceat(amps, starts)
    keep = np.abs(amps) > PRUNE_TOL
    if keep.all():
        return codes, amps
    return codes[keep], amps[keep]


def code_residuals(ca: np.ndarray, aa: np.ndarray, cb: np.ndarray,
                   ab: np.ndarray):
    """(codes, |b - a|^2 per code) over the union of two canonical code
    sets, so a residual can be summed whole or per group of codes."""
    if len(ca) == 0:
        return cb, np.abs(ab) ** 2
    if len(cb) == 0:
        return ca, np.abs(aa) ** 2
    if np.array_equal(ca, cb):  # e.g. a stabilizer applied to its state
        return cb, np.abs(ab - aa) ** 2
    ia = np.clip(np.searchsorted(ca, cb), 0, len(ca) - 1)
    hit = ca[ia] == cb
    only_a = np.ones(len(ca), dtype=bool)
    only_a[ia[hit]] = False
    codes = np.concatenate([cb, ca[only_a]])
    sq = np.concatenate([np.abs(np.where(hit, ab - aa[ia], ab)) ** 2,
                         np.abs(aa[only_a]) ** 2])
    return codes, sq


def _block_sums(lhs, rhs, dim: int, blocks: int) -> np.ndarray:
    """||lhs_j - rhs_j||^2 for each block j of two canonical stacks of
    (codes, amps), block j at offset dim * j.  A block's terms are summed
    by one ``np.sum`` in the order ``code_residuals`` gives them for that
    block alone, so each value is bit for bit the sum of the pair
    (lhs_j, rhs_j) taken alone."""
    codes, sq = code_residuals(*lhs, *rhs)
    if not sq.any():  # sums of zeros are exact in any order
        return np.zeros(blocks)
    if blocks == 1:  # already in that order; a large state is not gathered
        return np.array([np.sum(sq)])
    block = codes // dim
    sq = sq[np.argsort(block, kind="stable")]
    counts = np.bincount(block, minlength=blocks)
    starts = np.cumsum(counts) - counts
    sums = np.empty(blocks)
    for size in set(counts.tolist()):  # an empty block sums to 0.0
        which = np.flatnonzero(counts == size)
        sums[which] = np.sum(sq[starts[which, None] + np.arange(size)], axis=1)
    return sums


# --- Random states ---


def sample_states(register: Register, rng: np.random.Generator, count: int,
                  n_keys: int = 200):
    """``count`` seeded random sparse states, drawn in one pass, as two
    (count, size) arrays: row i of the codes holds state i's
    ``size = min(n_keys, dimension)`` distinct codes, drawn uniformly
    without replacement and sorted, and row i of the amplitudes its
    standard-normal complex amplitudes, normalized."""
    size = min(n_keys, register.dimension)
    codes = np.empty((count, size), dtype=np.int64)
    for i in range(count):
        codes[i] = rng.choice(register.dimension, size=size, replace=False)
    codes.sort(axis=1)
    amps = rng.normal(size=(count, size)) + 1j * rng.normal(size=(count, size))
    norms = np.linalg.norm(amps, axis=1, keepdims=True)
    if count and not norms.all():
        raise ValueError("cannot normalize the zero state")
    return codes, amps / norms


def random_state(register: Register, rng: np.random.Generator,
                 n_keys: int = 200) -> SparseState:
    """One seeded random sparse state (see ``sample_states``)."""
    codes, amps = sample_states(register, rng, 1, n_keys)
    return SparseState(register, codes[0], amps[0])


# --- Inner products and projections ---


def inner_product(a: SparseState, b: SparseState) -> complex:
    """<a|b> (conjugate-linear in the first argument)."""
    _check_same_register(a, b)
    if len(a) == 0 or len(b) == 0:
        return 0.0
    ca, cb = a.codes, b.codes
    ia = np.clip(np.searchsorted(ca, cb), 0, len(ca) - 1)
    hit = ca[ia] == cb
    return complex(np.sum(np.conj(a.amps[ia[hit]]) * b.amps[hit]))


def fidelity(a: SparseState, b: SparseState) -> float:
    """|<a|b>|^2 / (<a|a><b|b>): phase- and scale-insensitive."""
    na, nb = a.norm(), b.norm()
    if na == 0 or nb == 0:
        raise ValueError("fidelity of a zero-norm state is undefined")
    return float(abs(inner_product(a, b)) ** 2 / (na**2 * nb**2))


def project_site(state: SparseState, site, vec: np.ndarray) -> SparseState:
    """Contract <vec| with ``site`` and drop it from the register.

    Returns the unnormalized partial inner product: the caller decides
    whether the (possibly zero) result is an error.
    """
    reg = state.register
    vec = np.asarray(vec, dtype=complex).reshape(reg.group.order)
    amps = state.amps * np.conj(vec)[reg.digit(state.codes, site)]
    return SparseState(reg.drop(site), reg.without(state.codes, site), amps)


# --- Representation basis and marginals ---


def rep_basis_order(G: FiniteGroup) -> tuple[tuple[str, int, int], ...]:
    """The fixed enumeration (irrep label, i, j) of the representation basis:
    catalog irrep order, indices row-major.  Its length is |G|."""
    out = []
    for r in G.irreps:
        for i in range(r.dim):
            for j in range(r.dim):
                out.append((r.label, i, j))
    return tuple(out)


def basis_matrix_to_rep(G: FiniteGroup) -> np.ndarray:
    """Unitary U with U[r, g] = sqrt(d/|G|) conj([irrep(g)]_ij) mapping
    group-basis coefficients to representation-basis coefficients, rows
    ordered by rep_basis_order."""
    rows = []
    for r in G.irreps:
        block = np.sqrt(r.dim / G.order) * np.conj(r.matrices)  # (n, d, d)
        rows.append(block.transpose(1, 2, 0).reshape(r.dim * r.dim, G.order))
    return np.concatenate(rows, axis=0)


def site_marginal(state: SparseState, site) -> np.ndarray:
    """Born probabilities of group-basis outcomes at ``site``."""
    reg = state.register
    digit = reg.digit(state.codes, site)
    n2 = state.norm() ** 2
    if n2 == 0:
        raise ValueError("zero-norm state has no outcome distribution")
    w = np.abs(state.amps) ** 2
    return np.bincount(digit, weights=w, minlength=reg.group.order) / n2
