"""Finite groups with validated unitary irreps.

A group is stored as explicit tables: a multiplication table, an inverse
table, element labels, and a complete set of unitary irreducible
representations.  Irreps are supplied (built-in catalog or user file) and
*validated*, never computed from scratch.  The identity element is always
index 0.

The built-in catalog covers Z2..Z8, S3, D4 and Q8.  Element orderings are a
fixed convention of this package (documented per constructor) and are not
claimed to match any external source.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Irrep",
    "FiniteGroup",
    "ValidationReport",
    "validate_group",
    "validate_irreps",
    "builtin_group",
    "catalog_digest",
    "catalog_names",
    "rep_tensor",
    "rep_direct_sum",
    "group_to_json",
    "group_from_json",
    "load_group_file",
    "MAX_GROUP_ORDER",
]

ALGEBRA_TOL = 1e-12
# a group file's order bound: validation builds two order^3 tables, and
# element indices are stored as int16
MAX_GROUP_ORDER = 256


@dataclass(frozen=True, eq=False)
class Irrep:
    """A unitary representation given by one matrix per group element.

    ``matrices`` has shape (order, dim, dim); entry ``matrices[g]`` is the
    matrix of element ``g``.  Instances in ``FiniteGroup.irreps`` are
    irreducible; :func:`rep_tensor` / :func:`rep_direct_sum` build reducible
    ones for the symmetry-algebra checks.
    """

    label: str
    dim: int
    matrices: np.ndarray


def _mul(G: "FiniteGroup", x, y):
    """Group product x*y of element indices, either of them a per-row
    array or any arrays that broadcast: one gather from the flattened
    table, at every group order."""
    return G.table.ravel()[np.multiply(x, G.order, dtype=np.int64) + y]


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    name: str
    order: int
    table: np.ndarray  # (order, order) int: table[a, b] = a*b
    inverse: np.ndarray  # (order,) int
    labels: tuple[str, ...]
    irreps: tuple[Irrep, ...]

    def __post_init__(self) -> None:
        # element indices fit int16 throughout, and narrow tables keep the
        # vectorized gathers memory-light
        object.__setattr__(
            self, "table", np.ascontiguousarray(self.table, dtype=np.int16)
        )
        object.__setattr__(
            self, "inverse", np.ascontiguousarray(self.inverse, dtype=np.int16)
        )

    @functools.cached_property
    def label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    # --- Element algebra ---

    def conjugate(self, g: int, h: int) -> int:
        """Return h g h^-1."""
        return int(self.table[self.table[h, g], self.inverse[h]])

    def element(self, label: str) -> int:
        try:
            return self.label_index[label]
        except KeyError:
            raise KeyError(f"unknown element label {label!r} in group {self.name}")

    def irrep(self, label: str) -> Irrep:
        for r in self.irreps:
            if r.label == label:
                return r
        raise KeyError(f"unknown irrep {label!r} in group {self.name}")


@dataclass(frozen=True)
class ValidationReport:
    subject: str
    violations: tuple[str, ...]
    residuals: dict[str, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    def passed(self, tol: float = ALGEBRA_TOL) -> bool:
        return not self.violations and self.max_residual <= tol


# --- Validation ---


def validate_group(G: FiniteGroup) -> ValidationReport:
    """Check the group axioms on the stored tables.

    Returns a report whose ``violations`` list is empty iff the tables
    describe a group with identity at index 0 and a correct inverse table.
    """
    n = G.order
    bad: list[str] = []
    t = G.table
    if t.shape != (n, n):
        return ValidationReport(G.name, (f"table shape {t.shape} != ({n},{n})",), {})
    if t.min() < 0 or t.max() >= n:
        bad.append("table entries out of range")
    else:
        if not np.array_equal(t[0], np.arange(n)):
            bad.append("identity violation: row 0 is not the identity permutation")
        if not np.array_equal(t[:, 0], np.arange(n)):
            bad.append("identity violation: column 0 is not the identity permutation")
        for a in range(n):
            if len(set(t[a].tolist())) != n:
                bad.append(f"row {a} is not a permutation")
            if len(set(t[:, a].tolist())) != n:
                bad.append(f"column {a} is not a permutation")
        # associativity, vectorized over all n^3 triples
        lhs = t[t, :]  # lhs[a,b,c] = (ab)c
        rhs = t[:, t]  # rhs[a,b,c] = a(bc)
        if not np.array_equal(lhs, rhs):
            bad.append("associativity violation")
        if G.inverse.shape != (n,):
            bad.append("inverse table shape mismatch")
        elif not (
            np.array_equal(t[np.arange(n), G.inverse], np.zeros(n, dtype=int))
            and np.array_equal(t[G.inverse, np.arange(n)], np.zeros(n, dtype=int))
        ):
            bad.append("inverse violation")
    if len(G.labels) != n or len(set(G.labels)) != n:
        bad.append("labels must be unique and match the order")
    return ValidationReport(G.name, tuple(bad), {})


def validate_irreps(G: FiniteGroup, irreps: Sequence[Irrep] | None = None) -> ValidationReport:
    """Residuals for unitarity, homomorphism, irreducibility, orthogonality
    and completeness (sum of squared dims = order) of an irrep set."""
    rs = tuple(irreps) if irreps is not None else G.irreps
    n = G.order
    bad: list[str] = []
    res: dict[str, float] = {}
    for r in rs:
        if r.matrices.shape != (n, r.dim, r.dim):
            bad.append(f"irrep {r.label}: matrix block shape {r.matrices.shape}")
    if bad:
        return ValidationReport(f"{G.name}:irreps", tuple(bad), res)

    # max(..., default=0.0): an empty irrep list fails on completeness alone
    res["unitarity"] = max(
        (float(np.abs(np.einsum("gji,gjk->gik", r.matrices.conj(), r.matrices)
                      - np.eye(r.dim)[None]).max())
         for r in rs),
        default=0.0,
    )
    hom = 0.0
    for r in rs:
        prod = np.einsum("aij,bjk->abik", r.matrices, r.matrices)
        hom = max(hom, float(np.abs(prod - r.matrices[G.table]).max()))
    res["homomorphism"] = hom
    # character norm: sum_g |chi(g)|^2 == order for an irreducible rep
    res["irreducibility"] = max(
        (float(abs(np.sum(np.abs(np.einsum("gii->g", r.matrices)) ** 2) - n))
         for r in rs),
        default=0.0,
    )
    # grand orthogonality: sum_g [A(g)]_ij [B(g)]*_kl = (order/dim A) dAB dik djl
    ortho = 0.0
    for a in rs:
        for b in rs:
            s = np.einsum("gij,gkl->ikjl", a.matrices, b.matrices.conj())
            if a is b:
                expect = (n / a.dim) * np.einsum(
                    "ik,jl->ikjl", np.eye(a.dim), np.eye(a.dim)
                )
                s = s - expect
            ortho = max(ortho, float(np.abs(s).max()))
    res["orthogonality"] = ortho
    if len({r.label for r in rs}) != len(rs):
        # FiniteGroup.irrep and the rep-basis outcomes name irreps by label
        bad.append("irrep labels must be unique")
    total = sum(r.dim**2 for r in rs)
    if total != n:
        bad.append(f"completeness violation: sum of dim^2 = {total} != {n}")
    res["completeness"] = float(abs(total - n))
    return ValidationReport(f"{G.name}:irreps", tuple(bad), res)


# --- Representation combinators ---


def rep_tensor(a: Irrep, b: Irrep) -> Irrep:
    """Elementwise Kronecker product representation (not decomposed)."""
    mats = np.einsum("gij,gkl->gikjl", a.matrices, b.matrices).reshape(
        a.matrices.shape[0], a.dim * b.dim, a.dim * b.dim
    )
    return Irrep(label=f"({a.label}x{b.label})", dim=a.dim * b.dim, matrices=mats)


def rep_direct_sum(a: Irrep, b: Irrep) -> Irrep:
    n = a.matrices.shape[0]
    d = a.dim + b.dim
    mats = np.zeros((n, d, d), dtype=complex)
    mats[:, : a.dim, : a.dim] = a.matrices
    mats[:, a.dim :, a.dim :] = b.matrices
    return Irrep(label=f"({a.label}+{b.label})", dim=d, matrices=mats)


# --- Catalog ---


def _cyclic(n: int) -> FiniteGroup:
    """Z_n: element k is 'rotation by k'; irrep wk sends j to exp(2*pi*i*k*j/n)."""
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    inverse = (-idx) % n
    omega = np.exp(2j * np.pi / n)
    irreps = tuple(
        Irrep(label=f"w{k}", dim=1, matrices=(omega ** (k * idx)).reshape(n, 1, 1))
        for k in range(n)
    )
    return FiniteGroup(
        name=f"Z{n}",
        order=n,
        table=table,
        inverse=inverse,
        labels=tuple(str(i) for i in range(n)),
        irreps=irreps,
    )


def _perm_group(name: str, labels: Sequence[str], perms: Sequence[tuple[int, ...]],
                irrep_mats: dict[str, list[np.ndarray]]) -> FiniteGroup:
    n = len(perms)
    index = {p: i for i, p in enumerate(perms)}
    table = np.zeros((n, n), dtype=int)
    for a, pa in enumerate(perms):
        for b, pb in enumerate(perms):
            comp = tuple(pa[pb[i]] for i in range(len(pa)))  # apply b then a
            table[a, b] = index[comp]
    inverse = np.zeros(n, dtype=int)
    for a, pa in enumerate(perms):
        inv = tuple(sorted(range(len(pa)), key=lambda i: pa[i]))
        inverse[a] = index[inv]
    irreps = tuple(
        Irrep(label=lab, dim=mats[0].shape[0], matrices=np.array(mats, dtype=complex))
        for lab, mats in irrep_mats.items()
    )
    return FiniteGroup(name=name, order=n, table=table, inverse=inverse,
                       labels=tuple(labels), irreps=irreps)


def _s3() -> FiniteGroup:
    # Elements as permutations of {0,1,2} (images tuple), ordered:
    # e, the two 3-cycles, the three transpositions.
    e = (0, 1, 2)
    c1 = (1, 2, 0)   # (123): 0->1->2->0
    c2 = (2, 0, 1)   # (132)
    t01 = (1, 0, 2)  # (12)
    t02 = (2, 1, 0)  # (13)
    t12 = (0, 2, 1)  # (23)
    perms = [e, c1, c2, t01, t02, t12]
    labels = ["e", "(123)", "(132)", "(12)", "(13)", "(23)"]
    signs = [1, 1, 1, -1, -1, -1]
    th = 2 * np.pi / 3
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    F = np.array([[1.0, 0.0], [0.0, -1.0]])
    # geometric 2-dim irrep: 3-cycles -> rotations, transpositions -> reflections
    two = [np.eye(2), R, R @ R, F, R @ F, R @ R @ F]
    irreps = {
        "triv": [np.eye(1)] * 6,
        "sgn": [np.eye(1) * s for s in signs],
        "std": two,
    }
    return _perm_group("S3", labels, perms, irreps)


def _d4() -> FiniteGroup:
    """Dihedral group of the square: r^4 = s^2 = e, s r s = r^-1.

    Element (a, b) means r^a s^b, ordered e, r, r2, r3, s, rs, r2s, r3s.
    """
    elems = [(a, b) for b in (0, 1) for a in range(4)]
    labels = ["e", "r", "r2", "r3", "s", "rs", "r2s", "r3s"]
    index = {p: i for i, p in enumerate(elems)}
    table = np.zeros((8, 8), dtype=int)
    for i, (a1, b1) in enumerate(elems):
        for j, (a2, b2) in enumerate(elems):
            a = (a1 + (a2 if b1 == 0 else -a2)) % 4
            table[i, j] = index[(a, (b1 + b2) % 2)]
    inverse = np.zeros(8, dtype=int)
    for i, (a, b) in enumerate(elems):
        inverse[i] = index[((-a) % 4, 0)] if b == 0 else i  # reflections are involutions
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    S = np.array([[1.0, 0.0], [0.0, -1.0]])
    mats2 = [np.linalg.matrix_power(R, a) @ (S if b else np.eye(2)) for (a, b) in elems]
    one_dims = {
        "triv": (1, 1),
        "sgn_s": (1, -1),
        "sgn_r": (-1, 1),
        "sgn_rs": (-1, -1),
    }
    irreps = {
        lab: [np.eye(1) * (er**a) * (es**b) for (a, b) in elems]
        for lab, (er, es) in one_dims.items()
    }
    irreps["rot"] = mats2
    irr = tuple(
        Irrep(label=lab, dim=m[0].shape[0], matrices=np.array(m, dtype=complex))
        for lab, m in irreps.items()
    )
    return FiniteGroup(name="D4", order=8, table=table, inverse=inverse,
                       labels=tuple(labels), irreps=irr)


def _q8() -> FiniteGroup:
    """Quaternion group {±1, ±i, ±j, ±k}; the 2-dim irrep is the defining one."""
    I2 = np.eye(2, dtype=complex)
    mi = np.array([[1j, 0], [0, -1j]])
    mj = np.array([[0, 1], [-1, 0]], dtype=complex)
    mk = np.array([[0, 1j], [1j, 0]])
    base = [I2, -I2, mi, -mi, mj, -mj, mk, -mk]
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def find(m: np.ndarray) -> int:
        for idx, cand in enumerate(base):
            if np.allclose(m, cand, atol=1e-12):
                return idx
        raise AssertionError("quaternion product fell outside the group")

    table = np.zeros((8, 8), dtype=int)
    for a in range(8):
        for b in range(8):
            table[a, b] = find(base[a] @ base[b])
    inverse = np.array([find(np.conj(base[a]).T) for a in range(8)])
    # 1-dim irreps factor through the quotient by {±1}
    chars = {
        "triv": [1, 1, 1, 1],     # 1, i, j, k
        "chi_i": [1, 1, -1, -1],
        "chi_j": [1, -1, 1, -1],
        "chi_k": [1, -1, -1, 1],
    }
    irreps: list[Irrep] = []
    for lab, (c1, ci, cj, ck) in chars.items():
        vals = [c1, c1, ci, ci, cj, cj, ck, ck]
        irreps.append(
            Irrep(label=lab, dim=1, matrices=np.array(vals, dtype=complex).reshape(8, 1, 1))
        )
    irreps.append(Irrep(label="spin", dim=2, matrices=np.array(base)))
    return FiniteGroup(name="Q8", order=8, table=table, inverse=inverse,
                       labels=tuple(labels), irreps=tuple(irreps))


_CATALOG_BUILDERS = {
    **{f"Z{n}": (lambda n=n: _cyclic(n)) for n in range(2, 9)},
    "S3": _s3,
    "D4": _d4,
    "Q8": _q8,
}


def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG_BUILDERS)


def builtin_group(name: str) -> FiniteGroup:
    """The catalog group ``name``, built once per process and shared.

    Its ``table``, ``inverse`` and irrep ``matrices`` are read-only, so no
    caller can change the group every other caller sees.
    """
    return _catalog_entry(name)[0]


def catalog_digest(name: str) -> str:
    """sha256 of the catalog group's canonical JSON (``group_to_json`` with
    sorted keys), computed once per process."""
    return _catalog_entry(name)[1]


@functools.cache
def _catalog_entry(name: str) -> tuple[FiniteGroup, str]:
    try:
        builder = _CATALOG_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown group {name!r}; catalog: {', '.join(_CATALOG_BUILDERS)}"
        )
    G = builder()
    for arr in (G.table, G.inverse, *(r.matrices for r in G.irreps)):
        arr.setflags(write=False)
    text = json.dumps(group_to_json(G), sort_keys=True)
    return G, hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- Serialization ---


def group_to_json(G: FiniteGroup) -> dict:
    """JSON-shaped dict: mul/inv as row-major integer lists, irrep matrices as
    per-element row-major lists of [re, im] pairs."""
    return {
        "name": G.name,
        "order": G.order,
        "mul": [int(x) for x in G.table.reshape(-1)],
        "inv": [int(x) for x in G.inverse],
        "labels": list(G.labels),
        "irreps": [
            {
                "label": r.label,
                "dim": r.dim,
                "matrices": [
                    [[float(z.real), float(z.imag)] for z in r.matrices[g].reshape(-1)]
                    for g in range(G.order)
                ],
            }
            for r in G.irreps
        ],
    }


def _check_shape(obj) -> None:
    """Raise ValueError unless ``obj`` has a group file's JSON shape: an
    object with a string or number "name", a number "order", number lists
    "mul" and "inv", a list of "labels" and an optional list of "irreps",
    each an object with a string or number "label", a number "dim" and
    "matrices" holding one list of [re, im] pairs per element."""
    scalar = (int, float, str)  # what int() reads: numbers and numerals

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"group file: {what}")

    def listed(xs, kinds) -> bool:
        return isinstance(xs, list) and all(isinstance(x, kinds) for x in xs)

    need(isinstance(obj, dict), f"expected a JSON object, not {obj!r:.40}")
    name = obj.get("name")
    need(isinstance(name, scalar) and not isinstance(name, bool),
         "'name' must be a string or number")
    need(isinstance(obj.get("order"), scalar), "'order' must be a number")
    need(listed(obj.get("mul"), scalar) and listed(obj.get("inv"), scalar),
         "'mul' and 'inv' must be lists of numbers")
    need(isinstance(obj.get("labels"), list), "'labels' must be a list")
    irreps = obj.get("irreps", [])
    need(listed(irreps, dict), "'irreps' must be a list of objects")
    for r in irreps:
        label = r.get("label")
        need(isinstance(label, scalar) and not isinstance(label, bool),
             "irrep 'label' must be a string or number")
        need(isinstance(r.get("dim"), scalar), "irrep 'dim' must be a number")
        mats = r.get("matrices")
        need(listed(mats, list) and all(
            listed(row, list)
            and all(listed(z, (int, float)) and len(z) == 2 for z in row)
            for row in mats),
            "irrep 'matrices' must hold one list of [re, im] pairs per element")


def _integer(x, lo: int, hi: int, what: str) -> int:
    """A group file's integer field as an int in lo..hi, checked before
    any cast: a float must be integral and finite (``int`` would truncate
    2.5 and overflow on 1e400), a JSON ``true`` is no number, and the range
    keeps the int16 tables from wrapping.  Numerals such as "2" are read
    by ``int``."""
    if isinstance(x, bool) or isinstance(x, float) and not x.is_integer():
        raise ValueError(f"{what} {x!r} is not an integer")
    n = int(x)
    if not lo <= n <= hi:
        raise ValueError(f"{what} {n} is outside {lo}..{hi}")
    return n


def group_from_json(obj: dict) -> FiniteGroup:
    _check_shape(obj)
    # bound the sizes before any array is built from them
    n = _integer(obj["order"], 1, MAX_GROUP_ORDER, "group order")
    if len(obj["mul"]) != n * n or len(obj["inv"]) != n:
        raise ValueError(f"group of order {n} needs {n * n} 'mul' and {n} "
                         "'inv' entries")
    table = np.array([_integer(x, 0, n - 1, "'mul' entry") for x in obj["mul"]],
                     dtype=int).reshape(n, n)
    inverse = np.array([_integer(x, 0, n - 1, "'inv' entry") for x in obj["inv"]],
                       dtype=int)
    irreps = []
    for r in obj.get("irreps", []):
        d = _integer(r["dim"], 1, n, "irrep dim")
        mats = np.array(
            [[complex(re, im) for re, im in row] for row in r["matrices"]]
        ).reshape(n, d, d)
        irreps.append(Irrep(label=str(r["label"]), dim=d, matrices=mats))
    G = FiniteGroup(
        name=str(obj["name"]),
        order=n,
        table=table,
        inverse=inverse,
        labels=tuple(str(x) for x in obj["labels"]),
        irreps=tuple(irreps),
    )
    rep = validate_group(G)
    if not rep.passed():
        raise ValueError(f"group {G.name} failed validation: {rep.violations}")
    rep = validate_irreps(G)
    if not rep.passed():
        raise ValueError(
            f"group {G.name} irreps failed validation: "
            f"{rep.violations or rep.residuals}"
        )
    return G


def _not_json(name: str):
    raise ValueError(f"{name} is not a JSON value")


def read_json_file(path: str) -> tuple:
    """(value, sha256 of its bytes) of a JSON file read once, so the digest
    is of the bytes parsed.  The bytes are decoded as UTF-8 with universal
    newlines, as a text-mode read decodes them, and the NaN and +-Infinity
    constants that Python's json reader accepts but JSON does not have are
    refused."""
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return (json.loads(text, parse_constant=_not_json),
            hashlib.sha256(data).hexdigest())


def load_group_file(path: str) -> tuple:
    """(group, sha256 of the file's bytes)."""
    obj, digest = read_json_file(path)
    return group_from_json(obj), digest


def resolve_group(spec: str) -> tuple:
    """(group, digest) for a catalog name, with its ``catalog_digest``, or
    for a path to a group JSON file, with the sha256 of its bytes."""
    if spec in catalog_names():
        return builtin_group(spec), catalog_digest(spec)
    return load_group_file(spec)
