"""Sparse multi-qudit states over a group-element basis.

A register is an ordered list of named sites sharing one finite group; a
state is a sparse map from basis keys (one element index per site) to
complex amplitudes, stored as an integer key matrix plus an amplitude
vector so that operators vectorize.  Every key row also reads as one int64
code, its digits base |G| (first site most significant), so sorting,
merging and matching rows sort and compare 1-D codes; a register whose
codes would not fit 62 bits is refused (``OverBudget``).  States are
values: every operation returns a new state and never mutates its input.
Stored states are kept canonical — keys unique and sorted, amplitudes
pruned below 1e-14.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .groups import FiniteGroup, Irrep

__all__ = [
    "PRUNE_TOL",
    "DENSE_CAP",
    "RDM_CAP",
    "OverBudget",
    "check_width",
    "Register",
    "SparseState",
    "group_basis_state",
    "trivial_irrep_state",
    "rep_basis_state",
    "inner_product",
    "residual_norm",
    "pack_codes",
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
    "random_state",
    "random_states",
]

PRUNE_TOL = 1e-14
DENSE_CAP = 2**20
RDM_CAP = 4096
_PACK_BLOCK = 1 << 13


class OverBudget(ValueError):
    """A request past a size budget: a state with more keys than the
    builder's ``MAX_KEYS``, or a register whose codes exceed 62 bits."""


def _fits_codes(width: int, order: int) -> bool:
    """Whether ``width`` digits base ``order`` pack into one int64 code."""
    return width * np.log2(order) < 62


def check_width(G: FiniteGroup, width: int) -> None:
    """Raise ``OverBudget`` unless ``width`` sites of ``G`` pack into one
    int64 code (width * log2|G| < 62)."""
    if not _fits_codes(width, G.order):
        raise OverBudget(
            f"{width} sites of {G.name} need {width * np.log2(G.order):.1f} "
            "bits per key, past the 62-bit code limit; reduce sites or "
            "group order"
        )


@dataclass(frozen=True)
class Register:
    group: FiniteGroup
    sites: tuple

    def __post_init__(self) -> None:
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("register sites must be unique")
        check_width(self.group, len(self.sites))

    def axis(self, site) -> int:
        try:
            return self.sites.index(site)
        except ValueError:
            raise KeyError(f"site {site!r} not in register")

    def drop(self, site) -> "Register":
        return Register(self.group, tuple(s for s in self.sites if s != site))

    @property
    def width(self) -> int:
        return len(self.sites)

    @property
    def dimension(self) -> int:
        return self.group.order ** len(self.sites)


def _merge_runs(boundary: np.ndarray, amps: np.ndarray):
    """(rows, merged): the first row of each run of equal sorted rows that
    ``boundary`` marks, and each run's amplitude sum, pruned below
    PRUNE_TOL."""
    if boundary.all():  # no duplicates to merge
        keep = np.abs(amps) > PRUNE_TOL
        return np.flatnonzero(keep), amps[keep]
    starts = np.flatnonzero(boundary)
    merged = np.add.reduceat(amps, starts)
    keep = np.abs(merged) > PRUNE_TOL
    return starts[keep], merged[keep]


def _sorted_boundary(codes: np.ndarray) -> np.ndarray:
    boundary = np.empty(len(codes), dtype=bool)
    boundary[0] = True
    np.not_equal(codes[1:], codes[:-1], out=boundary[1:])
    return boundary


def _canonicalize(keys: np.ndarray, amps: np.ndarray, order: int):
    """Sort rows by their packed codes, merge duplicates, prune tiny
    amplitudes.

    Returns (keys, amps, codes) where ``codes`` is the sorted packed-int64
    row encoding (None for the empty and the zero-width cases, where
    ``packed_codes`` computes it on demand)."""
    m, n = keys.shape
    if m == 0:
        return keys.reshape(0, n), amps.reshape(0), None
    if n == 0:
        total = amps.sum()
        if abs(total) <= PRUNE_TOL:
            return keys.reshape(0, 0), amps[:0], None
        return np.zeros((1, 0), dtype=keys.dtype), np.array([total]), None
    codes = pack_codes(keys, order)
    perm = np.argsort(codes, kind="stable")
    codes = codes[perm]
    rows, merged = _merge_runs(_sorted_boundary(codes), amps[perm])
    return np.ascontiguousarray(keys[perm[rows]]), merged, codes[rows]


class SparseState:
    """Immutable sparse state vector.  ``keys`` is (m, width) int16,
    ``amps`` is (m,) complex128; rows are unique and sorted."""

    __slots__ = ("register", "keys", "amps", "_codes")

    def __init__(self, register: Register, keys: np.ndarray, amps: np.ndarray,
                 canonical: bool = False):
        keys = np.asarray(keys, dtype=np.int16).reshape(-1, register.width)
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        if keys.shape[0] != amps.shape[0]:
            raise ValueError("keys/amps length mismatch")
        codes = None
        if not canonical:
            keys, amps, codes = _canonicalize(keys, amps, register.group.order)
        object.__setattr__(self, "register", register)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "_codes", codes)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("SparseState is immutable")

    @classmethod
    def from_dict(cls, register: Register, entries: Mapping[tuple, complex]) -> "SparseState":
        if not entries:
            return cls.zero(register)
        keys = np.array([list(k) for k in entries], dtype=np.int16)
        amps = np.array(list(entries.values()), dtype=complex)
        return cls(register, keys, amps)

    @classmethod
    def zero(cls, register: Register) -> "SparseState":
        return cls(register,
                   np.zeros((0, register.width), dtype=np.int16),
                   np.zeros(0, dtype=complex), canonical=True)

    # --- Inspection ---

    def __len__(self) -> int:
        return self.keys.shape[0]

    def items(self) -> Iterator[tuple[tuple, complex]]:
        for row, a in zip(self.keys, self.amps):
            yield tuple(int(x) for x in row), complex(a)

    def to_dict(self) -> dict:
        return dict(self.items())

    def amplitude(self, key: Sequence[int]) -> complex:
        row = np.asarray(key, dtype=np.int16)
        hit = np.flatnonzero(np.all(self.keys == row, axis=1))
        return complex(self.amps[hit[0]]) if hit.size else 0.0

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def packed_codes(self) -> np.ndarray:
        """Sorted packed-int64 row codes (see ``pack_codes``), cached."""
        if self._codes is None:
            codes = pack_codes(self.keys, self.register.group.order)
            object.__setattr__(self, "_codes", codes)
        return self._codes

    def normalized(self) -> "SparseState":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero state")
        out = SparseState(self.register, self.keys, self.amps / n, canonical=True)
        object.__setattr__(out, "_codes", self._codes)
        return out

    def scaled(self, c: complex) -> "SparseState":
        out = SparseState(self.register, self.keys, self.amps * c, canonical=abs(c) > 0)
        if abs(c) > 0:
            object.__setattr__(out, "_codes", self._codes)
        return out

    def add(self, other: "SparseState") -> "SparseState":
        _check_same_register(self, other)
        return SparseState(
            self.register,
            np.concatenate([self.keys, other.keys]),
            np.concatenate([self.amps, other.amps]),
        )

    def dense(self) -> np.ndarray:
        """Dense vector in row-major site order; guarded by DENSE_CAP."""
        dim = self.register.dimension
        if dim > DENSE_CAP:
            raise ValueError(f"dense dimension {dim} exceeds cap {DENSE_CAP}")
        vec = np.zeros(dim, dtype=complex)
        vec[self.packed_codes()] = self.amps
        return vec


def _check_same_register(a: SparseState, b: SparseState) -> None:
    if a.register.sites != b.register.sites or a.register.group.name != b.register.group.name:
        raise ValueError("states live on different registers")


def pack_codes(keys: np.ndarray, order: int) -> np.ndarray:
    """One int64 code per key row, the row read as base-``order`` digits
    (first column most significant): sorting codes sorts rows."""
    place = order ** np.arange(keys.shape[1] - 1, -1, -1, dtype=np.int64)
    codes = np.empty(keys.shape[0], dtype=np.int64)
    # blocks bound the int64 copy of the rows that the product makes
    for lo in range(0, len(codes), _PACK_BLOCK):
        np.matmul(keys[lo:lo + _PACK_BLOCK], place, out=codes[lo:lo + _PACK_BLOCK])
    return codes


def _unpack(codes: np.ndarray, order: int, width: int) -> np.ndarray:
    """Key rows of packed codes (the inverse of ``pack_codes``)."""
    place = order ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return (codes[:, None] // place % order).astype(np.int16)


def merge_codes(codes: np.ndarray, amps: np.ndarray):
    """Canonical form of a row set given by its packed codes: codes sorted
    and unique, amplitudes of equal codes summed, sums below PRUNE_TOL
    dropped.  Only the 1-D codes are sorted, never the key rows."""
    if len(codes) == 0:
        return codes, amps
    perm = np.argsort(codes, kind="stable")
    codes = codes[perm]
    rows, merged = _merge_runs(_sorted_boundary(codes), amps[perm])
    return codes[rows], merged


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


# --- Constructors ---


def group_basis_state(register: Register, key: Sequence[int]) -> SparseState:
    key = tuple(int(k) for k in key)
    if len(key) != register.width or any(not 0 <= k < register.group.order for k in key):
        raise ValueError(f"invalid basis key {key}")
    return SparseState.from_dict(register, {key: 1.0})


def trivial_irrep_state(register: Register) -> SparseState:
    """Equal superposition over every basis key: one copy of the
    uniform one-site state on each register site."""
    n = register.group.order
    w = register.width
    keys = np.indices((n,) * w, dtype=np.int16).reshape(w, -1).T if w else np.zeros((1, 0), np.int16)
    amps = np.full(keys.shape[0], n ** (-w / 2), dtype=complex)
    return SparseState(register, keys, amps, canonical=w > 0)


def rep_basis_state(register: Register, site, irrep: Irrep, i: int, j: int) -> SparseState:
    """sum_g sqrt(d/|G|) [irrep(g)]_{ij} |g> at ``site`` (register must be
    the single-site register of that site)."""
    if register.width != 1 or register.sites[0] != site:
        raise ValueError("rep_basis_state builds single-site registers")
    if not (0 <= i < irrep.dim and 0 <= j < irrep.dim):
        raise ValueError("matrix indices out of range")
    n = register.group.order
    keys = np.arange(n, dtype=np.int16).reshape(n, 1)
    amps = np.sqrt(irrep.dim / n) * irrep.matrices[:, i, j]
    return SparseState(register, keys, amps)


def tensor(a: SparseState, b: SparseState) -> SparseState:
    if a.register.group.name != b.register.group.name:
        raise ValueError("tensor factors must share the group")
    reg = Register(a.register.group, a.register.sites + b.register.sites)
    ka = np.repeat(a.keys, len(b), axis=0)
    kb = np.tile(b.keys, (len(a), 1))
    keys = np.concatenate([ka, kb], axis=1)
    amps = np.repeat(a.amps, len(b)) * np.tile(b.amps, len(a))
    return SparseState(reg, keys, amps)


def random_states(register: Register, rng: np.random.Generator, count: int,
                  n_keys: int = 200) -> list:
    """``count`` seeded random sparse states, drawn in one pass: each has
    ``n_keys`` distinct keys drawn uniformly without replacement (the
    whole basis if smaller) and standard-normal complex amplitudes,
    normalized."""
    n = register.group.order
    w = register.width
    size = min(n_keys, register.dimension)
    codes = np.empty((count, size), dtype=np.int64)
    for i in range(count):
        codes[i] = rng.choice(register.dimension, size=size, replace=False)
    codes.sort(axis=1)
    keys = _unpack(codes.reshape(-1), n, w).reshape(count, size, w)
    amps = rng.normal(size=(count, size)) + 1j * rng.normal(size=(count, size))
    norms = np.linalg.norm(amps, axis=1, keepdims=True)
    if count and not norms.all():
        raise ValueError("cannot normalize the zero state")
    out = []
    for i in range(count):
        psi = SparseState(register, keys[i], amps[i] / norms[i], canonical=True)
        object.__setattr__(psi, "_codes", codes[i])
        out.append(psi)
    return out


def random_state(register: Register, rng: np.random.Generator,
                 n_keys: int = 200) -> SparseState:
    """One seeded random sparse state (see ``random_states``)."""
    return random_states(register, rng, 1, n_keys)[0]


# --- Inner products and projections ---


def inner_product(a: SparseState, b: SparseState) -> complex:
    """<a|b> (conjugate-linear in the first argument)."""
    _check_same_register(a, b)
    if len(a) == 0 or len(b) == 0:
        return 0.0
    ca, cb = a.packed_codes(), b.packed_codes()
    ia = np.clip(np.searchsorted(ca, cb), 0, len(ca) - 1)
    hit = ca[ia] == cb
    return complex(np.sum(np.conj(a.amps[ia[hit]]) * b.amps[hit]))


def residual_norm(a: SparseState, b: SparseState) -> float:
    """||a - b|| computed amplitude-wise on the canonical forms.

    Equivalent to ``a.add(b.scaled(-1)).norm()`` but without re-sorting the
    concatenation, and exact: amplitudes subtract key by key, so residuals
    far below the state norm stay resolvable."""
    _check_same_register(a, b)
    if len(a) == 0:
        return b.norm()
    if len(b) == 0:
        return a.norm()
    sq = code_residuals(a.packed_codes(), a.amps, b.packed_codes(), b.amps)[1]
    return float(np.sqrt(np.sum(sq)))


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
    G = state.register.group
    vec = np.asarray(vec, dtype=complex).reshape(G.order)
    c = state.register.axis(site)
    amps = state.amps * np.conj(vec)[state.keys[:, c]]
    keys = np.delete(state.keys, c, axis=1)
    return SparseState(state.register.drop(site), keys, amps)


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


def _split_axes(register: Register, kept) -> tuple[list[int], list[int]]:
    kept = list(kept)
    axes_a = [register.axis(s) for s in kept]
    axes_b = [i for i in range(register.width) if i not in axes_a]
    return axes_a, axes_b


def _bipartition_matrix(state: SparseState, part_a) -> np.ndarray:
    """Dense (dim_A, #distinct B keys) coefficient matrix."""
    order = state.register.group.order
    axes_a, axes_b = _split_axes(state.register, part_a)
    if not axes_a:
        raise ValueError("bipartition part must be nonempty")
    dim_a = order ** len(axes_a)
    if dim_a > RDM_CAP:
        raise ValueError(f"kept dimension {dim_a} exceeds cap {RDM_CAP}")
    codes_a = pack_codes(state.keys[:, axes_a], order)
    if axes_b:
        codes_b = pack_codes(state.keys[:, axes_b], order)
        uniq, col = np.unique(codes_b, return_inverse=True)
        m = np.zeros((dim_a, len(uniq)), dtype=complex)
    else:
        col = np.zeros(len(state.amps), dtype=int)
        m = np.zeros((dim_a, 1), dtype=complex)
    np.add.at(m, (codes_a, col), state.amps)
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
    c = state.register.axis(site)
    n2 = state.norm() ** 2
    if n2 == 0:
        raise ValueError("zero-norm state has no outcome distribution")
    w = np.abs(state.amps) ** 2
    return np.bincount(state.keys[:, c], weights=w,
                       minlength=state.register.group.order) / n2
