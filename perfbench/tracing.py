"""Per-layer tracing of ``gcs`` from outside the program.

``install`` wraps every public function of each ``gcs`` module (and
``ConditionalMonomial.apply``) and rebinds the wrapper under every name the
package imported it by, so ``from .states import residual_norm`` in another
module records too.  Each call becomes a span: name, thread, start, end,
parent span, and an optional work count.  A span opened on a thread with no
open span (a ``gcs corpus`` worker) takes the running request as parent.
Spans stay in memory; ``layer_metrics`` reduces them at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import threading
import time

LAYERS = ("groups", "graphs", "states", "builder", "stabilizers",
          "measurement", "symmetry", "peps", "qdouble", "corpus", "cli")

PER_LAYER = (  # name, unit
    ("groups.resolve_s", "s"), ("groups.resolve_calls", "count"),
    ("groups.validate_s", "s"),
    ("graphs.load_s", "s"), ("graphs.load_calls", "count"),
    ("cli.request_s", "s"), ("cli.self_s", "s"),
    ("builder.build_s", "s"), ("builder.build_calls", "count"),
    ("builder.keys_built", "count"),
    ("states.project_s", "s"), ("states.residual_s", "s"),
    ("states.random_state_s", "s"),
    ("stabilizers.apply_s", "s"), ("stabilizers.apply_calls", "count"),
    ("stabilizers.apply_keys", "count"), ("stabilizers.verify_self_s", "s"),
    ("stabilizers.derive_s", "s"), ("stabilizers.routes_self_s", "s"),
    ("qdouble.prepare_self_s", "s"), ("qdouble.reference_s", "s"),
    ("peps.contract_s", "s"), ("peps.assignments", "count"),
    ("corpus.battery_s", "s"), ("corpus.battery_calls", "count"),
    ("corpus.pool_busy_ratio", "ratio"),
    ("measurement.distribution_s", "s"), ("measurement.measure_s", "s"),
    ("symmetry.algebra_s", "s"),
)


def _keys_out(args, kwargs, result):
    return len(result)


def _keys_in(args, kwargs, result):
    return len(args[1])  # (self, state)


def _assignments(args, kwargs, result):
    net = args[0]
    g = net.graph
    touched = {x for e in g.edges for x in (e.tail, e.head)}
    isolated = sum(1 for w in g.odd_vertices if w not in touched)
    return net.group.order ** (len(g.edges) + isolated)


COUNTERS = {  # span name -> work count taken from (args, kwargs, result)
    "builder.build_cluster_state": _keys_out,
    "stabilizers.apply": _keys_in,
    "peps.contract": _assignments,
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, thread, start, end, count)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0  # the request span open on the client thread

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            is_root = name == "cli.run" and not stack
            if is_root:
                tracer._root = sid
            stack.append(sid)
            count = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    count = counter(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                if is_root:
                    tracer._root = 0
                tracer.spans.append((sid, parent, name,
                                     threading.get_ident(), start, end, count))

        return traced

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,thread,start,end,count\n")
            for s in self.spans:
                fh.write(",".join(map(str, s)) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public (not underscored) functions of every layer, under
    every name the package binds them to."""
    mods = {layer: importlib.import_module(f"gcs.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    monomial = mods["stabilizers"].ConditionalMonomial
    monomial.apply = tracer.wrap("stabilizers.apply", monomial.apply)


def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans, rounds: int, workers: int) -> dict:
    """Per-layer figures per round of the workload.  Times are summed over
    threads; a self time is the span's duration minus the union of the
    intervals its child spans cover."""
    by_id = {s[0]: s for s in spans}
    children: dict = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)

    def outermost(names):
        """Spans named in ``names`` with no ancestor also named there."""
        out = []
        for s in spans:
            if s[2] not in names:
                continue
            p = by_id.get(s[1])
            while p is not None and p[2] not in names:
                p = by_id.get(p[1])
            if p is None:
                out.append(s)
        return out

    def total(*names):
        return sum(s[5] - s[4] for s in outermost(set(names)))

    def calls(name):
        return sum(1 for s in spans if s[2] == name)

    def counted(name):
        return sum(s[6] for s in spans if s[2] == name)

    def self_time(name):
        acc = 0.0
        for s in spans:
            if s[2] == name:
                kids = [(max(c[4], s[4]), min(c[5], s[5]))
                        for c in children.get(s[0], ())]
                acc += (s[5] - s[4]) - _union(k for k in kids if k[1] > k[0])
        return acc

    request_s = total("cli.run")
    battery_s = total("corpus.corpus_battery")
    corpus_request_s = sum(
        s[5] - s[4] for s in spans
        if s[2] == "cli.run" and any(c[2] == "corpus.corpus_battery"
                                     for c in children.get(s[0], ())))
    values = {
        "groups.resolve_s": total("groups.resolve_group"),
        "groups.resolve_calls": calls("groups.resolve_group"),
        "groups.validate_s": total("groups.validate_group",
                                   "groups.validate_irreps"),
        "graphs.load_s": total("graphs.load_graph_file"),
        "graphs.load_calls": calls("graphs.load_graph_file"),
        "cli.request_s": request_s,
        "cli.self_s": self_time("cli.run"),
        "builder.build_s": total("builder.build_cluster_state"),
        "builder.build_calls": calls("builder.build_cluster_state"),
        "builder.keys_built": counted("builder.build_cluster_state"),
        "states.project_s": total("states.project_site"),
        "states.residual_s": total("states.residual_norm"),
        "states.random_state_s": total("states.random_state"),
        "stabilizers.apply_s": total("stabilizers.apply"),
        "stabilizers.apply_calls": calls("stabilizers.apply"),
        "stabilizers.apply_keys": counted("stabilizers.apply"),
        "stabilizers.verify_self_s": self_time("stabilizers.verify"),
        "stabilizers.derive_s": total("stabilizers.closed_form_stabilizers",
                                      "stabilizers.initial_stabilizers",
                                      "stabilizers.propagate"),
        "stabilizers.routes_self_s": self_time(
            "stabilizers.operators_agree_on_random_states"),
        "qdouble.prepare_self_s": self_time(
            "qdouble.prepare_qd_with_measurement"),
        "qdouble.reference_s": total("qdouble.sector_matched_fidelity"),
        "peps.contract_s": total("peps.contract"),
        "peps.assignments": counted("peps.contract"),
        "corpus.battery_s": battery_s,
        "corpus.battery_calls": calls("corpus.corpus_battery"),
        "measurement.distribution_s": total("measurement.outcome_distribution"),
        "measurement.measure_s": total("measurement.measure"),
        "symmetry.algebra_s": total("symmetry.verify_symmetry_algebra"),
    }
    values = {k: v / rounds for k, v in values.items()}
    values["corpus.pool_busy_ratio"] = (
        battery_s / (workers * corpus_request_s) if corpus_request_s else 0.0)
    return values
