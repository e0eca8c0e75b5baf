"""Single-site projective measurements in the group and representation bases.

Group-basis outcomes are group elements (reported by label); the
representation basis is the Fourier family |irrep, i, j> and requires the
group's irrep list to be complete, since a partial list is not a basis.
Measuring removes the site from the register.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    SparseState,
    basis_matrix_to_rep,
    project_site,
    rep_basis_order,
    schmidt_data,
    site_marginal,
)

__all__ = [
    "MeasurementOutcome",
    "outcome_distribution",
    "measure",
    "analyze_entanglement",
]

ZERO_PROBABILITY = 1e-12
DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class MeasurementOutcome:
    site: object
    basis: str  # "group" | "rep"
    outcome: object  # element label, or (irrep label, i, j)
    probability: float
    post_state: SparseState  # normalized, measured site dropped
    distribution: list  # every outcome's probability, as outcome_distribution


def _check_rep_basis(G) -> None:
    if sum(r.dim**2 for r in G.irreps) != G.order:
        raise ValueError(
            "representation-basis measurement needs a complete irrep list "
            f"(sum of squared dimensions {sum(r.dim ** 2 for r in G.irreps)} "
            f"!= {G.order})"
        )


def outcome_distribution(state: SparseState, site, basis: str = "group"):
    """[(outcome, probability), ...] for measuring ``site``; sums to 1."""
    G = state.register.group
    if basis == "group":
        probs = site_marginal(state, site)
        return [(G.labels[g], float(probs[g])) for g in range(G.order)]
    if basis != "rep":
        raise ValueError(f"unknown measurement basis {basis!r}")
    _check_rep_basis(G)
    n2 = state.norm() ** 2
    if n2 == 0:
        raise ValueError("zero-norm state has no outcome distribution")
    U = basis_matrix_to_rep(G)
    # each outcome's branch as ``_branch`` projects it: the merge of equal
    # remainder codes before the norm accounts for interference
    return [(outcome,
             float(project_site(state, site, np.conj(U[r])).norm() ** 2 / n2))
            for r, outcome in enumerate(rep_basis_order(G))]


def _branch(state: SparseState, site, basis: str, outcome) -> SparseState:
    G = state.register.group
    if basis == "group":
        vec = np.zeros(G.order)
        vec[G.element(outcome)] = 1.0
        return project_site(state, site, vec)
    U = basis_matrix_to_rep(G)
    r = rep_basis_order(G).index(tuple(outcome))
    return project_site(state, site, np.conj(U[r]))


def measure(state: SparseState, site, basis: str = "group",
            rng: np.random.Generator | None = None,
            forced=None) -> MeasurementOutcome:
    """Projective measurement of one site.

    Samples from the Born distribution with ``rng`` unless ``forced`` pins
    the outcome; forcing an outcome of (numerically) zero probability is an
    error rather than a renormalized zero state.
    """
    dist = outcome_distribution(state, site, basis)
    outcomes = [o for o, _ in dist]
    probs = np.array([p for _, p in dist])
    if forced is not None:
        key = tuple(forced) if basis == "rep" else forced
        if key not in outcomes:
            raise ValueError(f"{forced!r} is not an outcome in the {basis} basis")
        idx = outcomes.index(key)
        if probs[idx] < ZERO_PROBABILITY:
            raise ValueError(
                f"forced outcome {forced!r} has zero probability ({probs[idx]:.3e})"
            )
    else:
        if rng is None:
            raise ValueError("measure needs either rng= or forced=")
        idx = int(rng.choice(len(outcomes), p=probs / probs.sum()))
    post = _branch(state, site, basis, outcomes[idx])
    return MeasurementOutcome(
        site=site,
        basis=basis,
        outcome=outcomes[idx],
        probability=float(probs[idx]),
        post_state=post.normalized(),
        distribution=dist,
    )


def analyze_entanglement(state: SparseState, part_a) -> dict:
    """Schmidt rank, entanglement entropy in bits, and whether the kept
    Schmidt spectrum is flat (maximal entanglement at its rank)."""
    vals, rank, entropy = schmidt_data(state, part_a)
    kept = vals[:rank]
    maximal = bool(rank > 0 and float(kept.max() - kept.min()) < DEGENERACY_TOL)
    return {"rank": rank, "entropy": entropy, "maximal": maximal}
