"""``gcs``: command-line front end.

Every subcommand assembles a run report — command, input hashes, effective
tolerances, per-check residuals, pass/fail — and exits 0 only when every
check passed.  Exit 2 flags bad input (unknown group, malformed graph file,
a group file's order outside 1..256, a state past the builder's key
budget, a register too wide for 62-bit key codes) before any check runs,
and an unwritable ``--out`` or ``--dump-graphs`` path, in which case no
report is printed; exit 1 flags a check failure.
Reports are deterministic for fixed inputs and seed up to the wall-time
field, which consumers strip before diffing.  Each is one line of
canonical JSON: sorted keys, ``,``/``:`` separators, ASCII escapes and a
trailing newline.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from .builder import OverBudget, build_cluster_state, schedule
from .corpus import build_corpus, corpus_battery, corpus_pairs, stabilizer_residuals
from .graphs import graph_to_json, load_graph_file, ring_graph
from .groups import (
    ALGEBRA_TOL,
    group_to_json,
    resolve_group,
    validate_group,
    validate_irreps,
)
from .measurement import measure
from .peps import compare_to_circuit
from .qdouble import (
    build_qd_lattice,
    check_qd_dims,
    prepare_qd_with_measurement,
    random_plaquette_outcomes,
    sector_matched_fidelity,
)
from .stabilizers import STABILIZER_TOL, verify
from .states import check_width
from .symmetry import verify_symmetry_algebra

__all__ = ["main", "run"]

MAX_STATES = 1_000  # random states a symmetry check may draw (--states)
MAX_DUMP = 4_096  # keys a build report may list (--dump-cap)


class InputError(Exception):
    """Bad input: reported on stderr with exit code 2."""


def _reason(exc: Exception) -> str:
    """The message of ``exc``; a ``KeyError``'s ``str`` is the repr of its
    argument, quotes and all, so its argument is the message."""
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical_hash(obj) -> str:
    return _sha256_bytes(json.dumps(obj, sort_keys=True).encode("utf-8"))


def _load_group(spec: str):
    try:
        G, digest = resolve_group(spec)
    except (KeyError, OSError, ValueError) as exc:
        raise InputError(f"cannot load group {spec!r}: {_reason(exc)}")
    return G, {"spec": spec, "sha256": digest}


def _load_graph(path: str):
    try:
        g, digest = load_graph_file(path)
    except (KeyError, OSError, ValueError) as exc:
        raise InputError(f"cannot load graph {path!r}: {_reason(exc)}")
    return g, {"spec": path, "sha256": digest}


def _check(label: str, residual: float, tol: float) -> dict:
    return {
        "label": label,
        "residual": float(residual),
        "tol": float(tol),
        "passed": bool(residual <= tol),
    }


def _fidelity_check(label: str, fid: float, tol: float) -> dict:
    # fidelity targets 1; report the shortfall as the residual
    return _check(label, max(0.0, 1.0 - float(fid)), tol)


def _assemble(command: str, inputs: dict, tolerances: dict, checks: list,
              seed, extra: dict | None = None) -> dict:
    failures = [c["label"] for c in checks if not c["passed"]]
    report = {
        "command": command,
        "inputs": inputs,
        "tolerances": {k: float(v) for k, v in tolerances.items()},
        "seed": seed,
        "checks": checks,
        "first_failure": failures[0] if failures else None,
        "passed": not failures,
    }
    if extra:
        report.update(extra)
    return report


def _emit(report: dict, args) -> int:
    # the one report form: sorted keys, no whitespace, ASCII escapes and a
    # trailing newline; without ``indent``, json encodes it in C
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write report {args.out!r}: {exc}")
    if args.json:
        sys.stdout.write(text)
    else:
        for c in report["checks"]:
            status = "PASS" if c["passed"] else "FAIL"
            print(f"  {status}  {c['label']}: residual={c['residual']:.3e} "
                  f"tol={c['tol']:.1e}")
        overall = "PASS" if report["passed"] else "FAIL"
        print(f"{report['command']}: {overall} "
              f"({len(report['checks'])} checks, {report['wall_time_s']:.2f}s)")
        if report["first_failure"]:
            print(f"first failure: {report['first_failure']}")
    return 0 if report["passed"] else 1


# --- Subcommands ---


def _cmd_group(args) -> dict:
    G, ghash = _load_group(args.group)
    if args.action == "show":
        return _assemble("group", {"group": ghash}, {}, [], None,
                         extra={"group_json": group_to_json(G)})
    table_rep = validate_group(G)
    checks = []
    if not table_rep.violations:
        # the table axioms are exact integer checks; a clean pass is residual 0
        checks.append(_check(f"{G.name}:table_axioms", 0.0, args.tol))
    for rep in (table_rep, validate_irreps(G)):
        for name, residual in sorted(rep.residuals.items()):
            checks.append(_check(f"{rep.subject}:{name}", residual, args.tol))
        for violation in rep.violations:
            checks.append(_check(f"{rep.subject}:{violation}", float("inf"),
                                 args.tol))
    return _assemble("group", {"group": ghash}, {"algebra": args.tol}, checks, None)


def _cmd_build(args) -> dict:
    if not 0 <= args.dump_cap <= MAX_DUMP:
        raise InputError(
            f"--dump-cap needs 0 to {MAX_DUMP}, got {args.dump_cap}")
    G, ghash = _load_group(args.group)
    g, fhash = _load_graph(args.graph)
    psi = build_cluster_state(g, G)
    checks = [_check("norm", abs(psi.norm() - 1.0), args.tol)]
    extra = {
        "sites": list(psi.register.sites),
        "keys": len(psi),
        "gates": len(schedule(g)),
    }
    if len(psi) <= args.dump_cap:
        labels = np.array(G.labels, dtype=object)[psi.keys].tolist()
        extra["amplitudes"] = [
            [key, re, im] for key, re, im
            in zip(labels, psi.amps.real.tolist(), psi.amps.imag.tolist())
        ]
    return _assemble("build", {"group": ghash, "graph": fhash},
                     {"residual": args.tol}, checks, None, extra=extra)


def _cmd_stabilizers(args) -> dict:
    G, ghash = _load_group(args.group)
    g, fhash = _load_graph(args.graph)
    psi = build_cluster_state(g, G)
    res = stabilizer_residuals(g, G, psi, args.seed,
                               5 if args.cross_check else 0)
    checks = [_check(f"{route}:{label}", residual, args.tol)
              for route, residuals in res.items()
              for label, residual in residuals.items()]
    return _assemble("stabilizers", {"group": ghash, "graph": fhash},
                     {"residual": args.tol}, checks, args.seed)


def _cmd_measure(args) -> dict:
    G, ghash = _load_group(args.group)
    g, fhash = _load_graph(args.graph)
    psi = build_cluster_state(g, G)
    if args.site not in psi.register.sites:
        raise InputError(f"site {args.site!r} not in graph {g.name!r}")
    forced = None
    if args.forced is not None:
        if args.basis == "group":
            forced = args.forced
        else:
            parts = args.forced.split(",")
            if len(parts) != 3:
                raise InputError(
                    "rep-basis forced outcome must be 'irrep,i,j'")
            try:
                forced = (parts[0], int(parts[1]), int(parts[2]))
            except ValueError:
                raise InputError(
                    f"rep-basis forced outcome wants integer indices, "
                    f"got {args.forced!r}")
    rng = np.random.default_rng(args.seed)
    try:
        out = measure(psi, args.site, args.basis, rng=rng, forced=forced)
    except (KeyError, ValueError) as exc:
        raise InputError(_reason(exc))
    total = sum(p for _, p in out.distribution)
    checks = [
        _check("distribution_total", abs(total - 1.0), args.tol),
        _check("post_state_norm", abs(out.post_state.norm() - 1.0), args.tol),
    ]
    return _assemble(
        "measure", {"group": ghash, "graph": fhash}, {"residual": args.tol},
        checks, args.seed,
        extra={
            "site": args.site,
            "basis": args.basis,
            "outcome": str(out.outcome),
            "probability": float(out.probability),
            "distribution": [[str(o), float(p)] for o, p in out.distribution],
            "post_keys": len(out.post_state),
        })


def _cmd_symmetry(args) -> dict:
    G, ghash = _load_group(args.group)
    if (args.graph is None) == (args.ring is None):
        raise InputError("pass exactly one of --graph or --ring")
    if not 1 <= args.states <= MAX_STATES:
        raise InputError(
            f"--states needs 1 to {MAX_STATES}, got {args.states}")
    if args.graph is not None:
        g, fhash = _load_graph(args.graph)
    else:
        if args.ring < 4 or args.ring % 2:
            raise InputError("--ring needs an even length of at least 4")
        check_width(G, args.ring)  # before the ring is allocated
        g = ring_graph(args.ring)
        fhash = {"spec": f"ring{args.ring}",
                 "sha256": _canonical_hash(graph_to_json(g))}
    rng = np.random.default_rng(args.seed)
    try:
        residuals = verify_symmetry_algebra(g, G, rng=rng, states=args.states)
    except ValueError as exc:
        raise InputError(str(exc))
    checks = [_check(name, residual, args.tol)
              for name, residual in sorted(residuals.items())]
    return _assemble("symmetry", {"group": ghash, "graph": fhash},
                     {"residual": args.tol}, checks, args.seed,
                     extra={"states": args.states})


def _cmd_peps_compare(args) -> dict:
    G, ghash = _load_group(args.group)
    g, fhash = _load_graph(args.graph)
    fid = compare_to_circuit(g, G)
    checks = [_fidelity_check("contract_vs_circuit", fid, args.tol)]
    return _assemble("peps-compare", {"group": ghash, "graph": fhash},
                     {"fidelity_gap": args.tol}, checks, None,
                     extra={"fidelity": float(fid)})


def _parse_dims(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise InputError(f"--dims wants LxM, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"--dims wants integers, got {text!r}")


def _cmd_qdouble(args) -> dict:
    G, ghash = _load_group(args.group)
    dims = _parse_dims(args.dims)
    try:
        check_qd_dims(*dims)
    except ValueError as exc:
        raise InputError(str(exc))
    check_width(G, 4 * dims[0] * dims[1])  # before the lattice is allocated
    lat = build_qd_lattice(*dims)
    outcomes: dict = {}
    if args.random_outcomes:
        rng = np.random.default_rng(args.seed)
        outcomes = random_plaquette_outcomes(lat, G, rng)
    for text in args.outcome or ():
        pid, _, label = text.partition("=")
        if not label:
            raise InputError(f"--outcome wants 'plaquette=label', got {text!r}")
        outcomes[pid] = label
    try:
        psi, stabs = prepare_qd_with_measurement(lat, G, outcomes)
    except (KeyError, ValueError) as exc:
        raise InputError(_reason(exc))
    checks = [_check(label, residual, args.tol)
              for label, residual in verify(stabs, psi).items()]
    extra = {
        "dims": list(dims),
        "links": len(lat.links),
        "keys": len(psi),
        "outcomes": {p.id: G.labels[outcomes[p.id]]
                     if isinstance(outcomes.get(p.id), (int, np.integer))
                     else str(outcomes.get(p.id, G.labels[0]))
                     for p in lat.plaquettes},
    }
    if G.order == 2 and not outcomes:
        fid = sector_matched_fidelity(lat, psi)
        checks.append(_fidelity_check("toric_reference", fid, args.tol))
        extra["toric_fidelity"] = float(fid)
    inputs = {"group": ghash,
              "lattice": {"spec": args.dims,
                          "sha256": _canonical_hash(list(dims))}}
    return _assemble("qdouble", inputs, {"residual": args.tol}, checks, args.seed,
                     extra=extra)


def _cmd_corpus(args) -> dict:
    if args.dump_graphs:
        written = []
        try:
            os.makedirs(args.dump_graphs, exist_ok=True)
            for entry in build_corpus():
                path = os.path.join(args.dump_graphs, f"{entry.name}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(graph_to_json(entry.graph), fh, indent=2,
                              sort_keys=True)
                    fh.write("\n")
                written.append(path)
        except OSError as exc:
            raise InputError(f"cannot dump graphs: {exc}")
        return _assemble("corpus", {}, {}, [], args.seed,
                         extra={"dumped": written})
    pairs = corpus_pairs(max_edges=args.max_edges,
                         groups=args.groups or None)
    if not pairs:
        raise InputError("the requested filters leave no corpus pairs")
    results = [corpus_battery(entry, gname, seed=args.seed, tol=args.tol)
               for entry, gname in pairs]
    checks = []
    for res in results:
        label = f"{res['graph']}+{res['group']}"
        worst = max(res["closed_form_max_residual"],
                    res["propagated_max_residual"],
                    res["routes_max_residual"],
                    1.0 - res["peps_fidelity"])
        checks.append(_check(label, worst, args.tol))
    corpus_hash = _canonical_hash(
        [graph_to_json(e.graph) for e in build_corpus()])
    return _assemble("corpus", {"corpus": {"spec": "builtin",
                                           "sha256": corpus_hash}},
                     {"residual": args.tol}, checks, args.seed,
                     extra={"pairs": len(pairs), "results": results})


# --- Entry point ---


def _tolerance(text: str) -> float:
    """``--tol``: a finite float >= 0; anything else is a usage error."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(tol) or tol < 0:
        raise argparse.ArgumentTypeError(
            f"must be finite and >= 0, got {text!r}")
    return tol


def _seed(text: str) -> int:
    """``--seed``: an integer >= 0; anything else is a usage error."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return seed


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``run``;
    ``parse_args`` gives each call a fresh namespace."""
    ap = argparse.ArgumentParser(
        prog="gcs",
        description="exact construction and verification of generalized "
                    "cluster states over finite group algebras",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, group=True, graph=False, seed=False, tol=STABILIZER_TOL):
        if group:
            p.add_argument("--group", required=True,
                           help="catalog name or group JSON file")
        if graph:
            p.add_argument("--graph", required=True,
                           help="graph JSON file")
        if seed:
            p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--tol", type=_tolerance, default=tol,
                       help="check tolerance (default %(default)g)")
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--json", action="store_true",
                       help="print the JSON report instead of a summary")

    p = sub.add_parser("group", help="validate a group/irrep catalog entry")
    p.add_argument("action", choices=("validate", "show"))
    p.add_argument("--name", dest="group", required=True,
                   help="catalog name or group JSON file")
    common(p, group=False, tol=ALGEBRA_TOL)
    p.set_defaults(fn=_cmd_group)

    p = sub.add_parser("build", help="build a cluster state and dump it")
    common(p, graph=True)
    p.add_argument("--dump-cap", type=int, default=64,
                   help="dump amplitudes when the state has at most this "
                        f"many keys (0 to {MAX_DUMP})")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("stabilizers",
                       help="derive both stabilizer routes and verify them")
    common(p, graph=True, seed=True)
    p.add_argument("--cross-check", action="store_true",
                   help="also compare the two routes on random states")
    p.set_defaults(fn=_cmd_stabilizers)

    p = sub.add_parser("measure", help="measure one site of a cluster state")
    common(p, graph=True, seed=True)
    p.add_argument("--site", required=True)
    p.add_argument("--basis", choices=("group", "rep"), default="group")
    p.add_argument("--forced", default=None,
                   help="pin the outcome: element label, or 'irrep,i,j'")
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("symmetry", help="check the ring symmetry algebra")
    common(p, seed=True)
    p.add_argument("--graph", default=None, help="ring graph JSON file")
    p.add_argument("--ring", type=int, default=None,
                   help="generate a ring of this length instead of --graph")
    p.add_argument("--states", type=int, default=10)
    p.set_defaults(fn=_cmd_symmetry)

    p = sub.add_parser("peps-compare",
                       help="recontract the tensor-network form and compare")
    common(p, graph=True)
    p.set_defaults(fn=_cmd_peps_compare)

    p = sub.add_parser("qdouble",
                       help="prepare a torus ground state and verify it")
    common(p, seed=True)
    p.add_argument("--dims", default="2x2", help="torus size, e.g. 2x2")
    p.add_argument("--outcome", action="append",
                   help="force a plaquette outcome: 'p[x,y]=label' (repeatable)")
    p.add_argument("--random-outcomes", action="store_true",
                   help="draw a consistent random outcome set from --seed")
    p.set_defaults(fn=_cmd_qdouble)

    p = sub.add_parser("corpus", help="run the battery over the whole corpus")
    common(p, group=False, seed=True)
    p.add_argument("--max-edges", type=int, default=None)
    p.add_argument("--groups", nargs="*", default=None,
                   help="restrict to these groups")
    p.add_argument("--dump-graphs", default=None,
                   help="write every corpus graph as JSON into this directory")
    p.set_defaults(fn=_cmd_corpus)
    return ap


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.fn(args)
        report["wall_time_s"] = round(time.perf_counter() - start, 6)
        return _emit(report, args)
    except (InputError, OverBudget) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
