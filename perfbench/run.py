"""Benchmark for ``gcs``: one named workload, one closed-loop client.

    python3 perfbench/run.py --workload requests --seed 1 --seconds 20 --trace 0

Run from the repository root.  Requests go through ``gcs.cli.run(argv)``
in-process, each sent when the previous one returns.  After every round the
reports are checked against the benchmark's own references (``checks.py``);
checking is not timed.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  A copy of the result, and with ``--trace 1`` the spans, go
to ``.perfbench_out/``.
"""

from __future__ import annotations

import time

_PROCESS_CPU_AT_START = time.process_time()  # interpreter start-up, ~all CPU
_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from checks import CheckError, check, load_inputs  # noqa: E402
from workloads import CATALOG, WORKLOADS, Paths  # noqa: E402

TAIL_QUANTILE = 0.98  # reported only where >= 10 samples lie beyond it


def _parse(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Client:
    """Sends one request at a time through ``gcs.cli.run``."""

    def __init__(self, cli):
        self.cli = cli

    def call(self, argv) -> tuple:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.run([*argv, "--json"])
        return rc, buf.getvalue()


def _set_up(tmp: str):
    """Dump the corpus graphs and every catalog group table; return the
    client, file paths and the checkers' inputs."""
    import gcs.cli as cli

    client = Client(cli)
    paths = Paths(tmp)
    rc, out = client.call(("corpus", "--dump-graphs", paths.graphs))
    if rc != 0:
        raise RuntimeError(f"gcs corpus --dump-graphs exited {rc}")
    graph_files = json.loads(out)["dumped"]
    os.makedirs(paths.groups)
    for G in CATALOG:
        rc, out = client.call(("group", "show", "--name", G))
        if rc != 0:
            raise RuntimeError(f"gcs group show --name {G} exited {rc}")
        with open(paths.group(G), "w", encoding="utf-8") as fh:
            json.dump(json.loads(out)["group_json"], fh, indent=2, sort_keys=True)
    inputs = load_inputs({G: paths.group(G) for G in CATALOG}, graph_files)
    return client, paths, inputs


def _quantile(latencies):
    """The nearest-rank TAIL_QUANTILE latency, or None when fewer than ten
    samples lie beyond it."""
    s = sorted(latencies)
    if len(s) * (1 - TAIL_QUANTILE) >= 10:
        return s[math.ceil(TAIL_QUANTILE * len(s)) - 1]
    return None


def _tail(round_latencies):
    """The median over rounds of each round's TAIL_QUANTILE latency when a
    round is long enough to have one; otherwise the slowest request."""
    tails = [_quantile(lat) for lat in round_latencies]
    if None not in tails:
        return statistics.median(tails)
    return max(max(lat) for lat in round_latencies)


def _run_request(client, req, failures):
    """(rc, output) or None when the request raised."""
    try:
        return client.call(req.argv)
    except Exception:  # a crashing request is counted, not fatal
        failures.append({"argv": list(req.argv),
                         "error": traceback.format_exc(limit=3)})
        return None


def bench(args, tmp: str) -> dict:
    workers = len(os.sched_getaffinity(0))
    os.environ["GCS_THREADS"] = str(workers)  # corpus pool at nproc

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    client, paths, inputs = _set_up(tmp)
    workload = WORKLOADS[args.workload](args.seed, paths, inputs)
    mismatches, failures = [], []
    res = _run_request(client, workload.warmup, failures)
    if res is None:
        raise RuntimeError(f"warm-up request failed: {failures[-1]}")
    try:
        check(workload.warmup, *res, inputs)
    except CheckError as exc:
        mismatches.append({"argv": list(workload.warmup.argv), "error": str(exc)})
    setup_s = _PROCESS_CPU_AT_START + (time.perf_counter() - _T0)
    if tracer is not None:
        tracer.spans.clear()

    latencies, by_kind, attempted, rounds, timed = [], {}, 0, 0, 0.0
    round_rates = []  # requests completed per second, one figure per round
    round_latencies = []
    clock = time.perf_counter
    while timed < args.seconds:
        done = []
        round_latencies.append([])
        start = clock()
        for req in workload.round(rounds):
            t = clock()
            res = _run_request(client, req, failures)
            latencies.append(clock() - t)
            round_latencies[-1].append(latencies[-1])
            by_kind.setdefault(req.kind, []).append(latencies[-1])
            done.append((req, res))
        elapsed = clock() - start
        timed += elapsed
        rounds += 1
        completed = 0
        for req, res in done:
            attempted += 1
            if res is None:
                continue
            if res[0] != 0:
                failures.append({"argv": list(req.argv), "error": f"exit {res[0]}"})
                continue
            completed += 1
            try:
                check(req, *res, inputs)
            except CheckError as exc:
                mismatches.append({"argv": list(req.argv), "error": str(exc)})
        round_rates.append(completed / elapsed)

    end_to_end = {
        "setup_s": (setup_s, "s"),
        # the median round, so that one round slowed by the machine does
        # not move the figure
        "requests_per_s": (statistics.median(round_rates), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (_tail(round_latencies), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    if tracer is None:
        metrics = end_to_end
    else:
        layers = tracing.layer_metrics(tracer.spans, rounds, workers)
        metrics = {name: (layers[name], unit) for name, unit in tracing.PER_LAYER}
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "timed_s": timed, "workers": workers,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "median_latency_s_by_kind": {k: statistics.median(v)
                                     for k, v in sorted(by_kind.items())},
        "mismatches": mismatches[:20], "failures": failures[:20],
    }
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**result, "detail": detail}, fh, indent=2)
    if tracer is not None:
        tracer.write(stem + ".spans.csv.gz")
    for item in mismatches[:5] + failures[:5]:
        print(f"perfbench: {item}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gcs", "__init__.py")):
        print("perfbench: no gcs sources under src/", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        result = bench(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
