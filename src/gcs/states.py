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
from typing import Mapping, Sequence

import numpy as np

from .groups import FiniteGroup, Irrep

__all__ = [
    "PRUNE_TOL",
    "DENSE_CAP",
    "RDM_CAP",
    "OverBudget",
    "MAX_SITES",
    "check_width",
    "Register",
    "SparseState",
    "group_basis_state",
    "trivial_irrep_state",
    "rep_basis_state",
    "inner_product",
    "residual_norm",
    "merge_codes",
    "code_residuals",
    "fidelity",
    "project_site",
    "tensor",
    "rep_basis_order",
    "basis_matrix_to_rep",
    "change_basis",
    "reduced_density_matrix",
    "schmidt_data",
    "site_marginal",
    "sample_states",
    "random_state",
]

PRUNE_TOL = 1e-14
DENSE_CAP = 2**20
RDM_CAP = 4096
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

    @classmethod
    def from_dict(cls, register: Register, entries: Mapping[tuple, complex]) -> "SparseState":
        if not entries:
            return cls.zero(register)
        keys = np.array([list(k) for k in entries], dtype=np.int64)
        amps = np.array(list(entries.values()), dtype=complex)
        keys = keys.reshape(len(amps), register.width)
        if keys.size and not (0 <= keys.min() and keys.max() < register.group.order):
            # an out-of-range digit would alias another basis vector's code
            raise ValueError("basis key digits must lie in 0..|G|-1")
        return cls(register, register.encode(keys), amps)

    @classmethod
    def zero(cls, register: Register) -> "SparseState":
        return cls(register, np.zeros(0, dtype=np.int64),
                   np.zeros(0, dtype=complex))

    # --- Inspection ---

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def keys(self) -> np.ndarray:
        """(m, width) digit rows of the codes, decoded on each call."""
        return self.register.digit_table(self.codes).T

    def amplitude(self, key: Sequence[int]) -> complex:
        key = np.asarray(key, dtype=np.int64)
        if np.any((key < 0) | (key >= self.register.group.order)):
            return 0.0  # not a basis key
        code = int(self.register.encode(key))
        i = np.searchsorted(self.codes, code)
        hit = i < len(self.codes) and self.codes[i] == code
        return complex(self.amps[i]) if hit else 0.0

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def normalized(self) -> "SparseState":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero state")
        return SparseState(self.register, self.codes, self.amps / n)

    def scaled(self, c: complex) -> "SparseState":
        return SparseState(self.register, self.codes, self.amps * c)

    def add(self, other: "SparseState") -> "SparseState":
        _check_same_register(self, other)
        return SparseState(
            self.register,
            np.concatenate([self.codes, other.codes]),
            np.concatenate([self.amps, other.amps]),
        )

    def dense(self) -> np.ndarray:
        """Dense vector in row-major site order; guarded by DENSE_CAP."""
        dim = self.register.dimension
        if dim > DENSE_CAP:
            raise ValueError(f"dense dimension {dim} exceeds cap {DENSE_CAP}")
        vec = np.zeros(dim, dtype=complex)
        vec[self.codes] = self.amps
        return vec


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
    block alone, so each value is the sum whose square root
    ``residual_norm(lhs_j, rhs_j)`` returns, bit for bit."""
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


# --- Constructors ---


def group_basis_state(register: Register, key: Sequence[int]) -> SparseState:
    key = tuple(int(k) for k in key)
    if len(key) != register.width or any(not 0 <= k < register.group.order for k in key):
        raise ValueError(f"invalid basis key {key}")
    return SparseState.from_dict(register, {key: 1.0})


def trivial_irrep_state(register: Register) -> SparseState:
    """Equal superposition over every basis key: one copy of the
    uniform one-site state on each register site."""
    n, w = register.group.order, register.width
    amps = np.full(register.dimension, n ** (-w / 2), dtype=complex)
    return SparseState(register, np.arange(register.dimension), amps)


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


def tensor(a: SparseState, b: SparseState) -> SparseState:
    if a.register.group.name != b.register.group.name:
        raise ValueError("tensor factors must share the group")
    reg = Register(a.register.group, a.register.sites + b.register.sites)
    codes = (np.repeat(a.codes, len(b)) * b.register.dimension
             + np.tile(b.codes, len(a)))
    amps = np.repeat(a.amps, len(b)) * np.tile(b.amps, len(a))
    return SparseState(reg, codes, amps)


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


def residual_norm(a: SparseState, b: SparseState) -> float:
    """||a - b|| computed amplitude-wise on the canonical forms.

    Equivalent to ``a.add(b.scaled(-1)).norm()`` but without re-sorting the
    concatenation, and exact: amplitudes subtract key by key, so residuals
    far below the state norm stay resolvable."""
    _check_same_register(a, b)
    return float(np.sqrt(np.sum(code_residuals(a.codes, a.amps, b.codes,
                                                b.amps)[1])))


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


# --- Basis change ---


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


def change_basis(state: SparseState, site, direction: str) -> np.ndarray:
    """Dense coefficient table of a single-site state in the other basis.

    direction "to_rep": group -> representation coefficients (ordered by
    rep_basis_order); "to_group": the inverse transform applied to a vector
    of representation coefficients stored in a single-site state is not
    representable sparsely per-key, so this accepts only single-site
    registers and returns the dense table either way.
    """
    if state.register.width != 1 or state.register.sites[0] != site:
        raise ValueError("change_basis operates on single-site registers")
    U = basis_matrix_to_rep(state.register.group)
    v = state.dense()
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


def site_marginal(state: SparseState, site) -> np.ndarray:
    """Born probabilities of group-basis outcomes at ``site``."""
    reg = state.register
    digit = reg.digit(state.codes, site)
    n2 = state.norm() ** 2
    if n2 == 0:
        raise ValueError("zero-norm state has no outcome distribution")
    w = np.abs(state.amps) ** 2
    return np.bincount(digit, weights=w, minlength=reg.group.order) / n2
