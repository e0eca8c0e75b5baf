"""The benchmark workloads, as rounds of ``gcs`` requests.

``BENCHMARK.json`` lists ``corpus`` and ``requests``.  ``large-state`` is
for profiling by hand: its 17-second rounds leave a run too few requests to
be steady (see the README).

A round is the unit a run repeats until its time is up: every run attempts
whole rounds.  All inputs come from the workload seed; the program sees
only the generated argument lists.
"""

from __future__ import annotations

import os
import random

from checks import Request

CATALOG = ("Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "S3", "D4", "Q8")
CORPUS_MAX_EDGES = 16  # every corpus graph except the two tori
BUILD_KEYS = 512  # state size cap for build/measure/stabilizers requests
PEPS_ASSIGNMENTS = 3 * 10**5  # bond enumeration cap for peps-compare
SYMMETRY_STATES = 2
QDOUBLE_SMALL = (("Z2", (2, 2)), ("Z3", (2, 2)), ("Z4", (2, 2)),
                 ("Z2", (2, 4)), ("Z2", (4, 2)))


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


class Workload:
    """``warmup`` is one request run during set-up; ``round(i)`` gives the
    requests of round i."""

    name = ""

    def __init__(self, seed: int, paths, inputs):
        self.seed = seed
        self.paths = paths  # .graph(name) / .group(name) -> file path
        self.inputs = inputs

    def round(self, i: int) -> list:
        raise NotImplementedError


class Corpus(Workload):
    """One ``gcs corpus`` sweep per round, seeded per round."""

    name = "corpus"

    def _request(self, max_edges: int, seed: str) -> Request:
        return Request("corpus", ("corpus", "--max-edges", str(max_edges),
                                  "--seed", seed),
                       params={"max_edges": max_edges})

    @property
    def warmup(self) -> Request:
        return self._request(2, str(self.seed))

    def round(self, i):
        rng = random.Random(f"corpus:{self.seed}:{i}")
        return [self._request(CORPUS_MAX_EDGES, _seed(rng))]


class LargeState(Workload):
    """The projected S3 torus ground state, then 96 stabilizer checks on
    the 390,625-key Z5 cluster state of the same torus graph."""

    name = "large-state"

    @property
    def warmup(self) -> Request:
        return Request("qdouble", ("qdouble", "--group", "Z2", "--dims", "2x2"),
                       group="Z2", params={"dims": (2, 2)})

    def round(self, i):
        rng = random.Random(f"large-state:{self.seed}:{i}")
        return [
            Request("qdouble", ("qdouble", "--group", "S3", "--dims", "2x2",
                                "--seed", _seed(rng)),
                    group="S3", params={"dims": (2, 2)}),
            Request("stabilizers", ("stabilizers", "--group", "Z5", "--graph",
                                    self.paths.graph("qd2x2"), "--seed",
                                    _seed(rng)),
                    group="Z5", graph="qd2x2"),
        ]


class Requests(Workload):
    """A fixed menu of short requests over the corpus graphs and every
    catalog group that fits, in a seeded order with seeded sites, bases,
    random seeds and plaquette outcomes.  Every round replays the same
    stream, so the work per round does not depend on the seed."""

    name = "requests"

    def __init__(self, seed, paths, inputs):
        super().__init__(seed, paths, inputs)
        self.stream = self._stream(random.Random(f"requests:{seed}"))
        self.warmup = self.stream[0]

    def _stream(self, rng):
        out = []
        for G in CATALOG:
            for spec in (G, self.paths.group(G)):
                for action in ("validate", "show"):
                    out.append(Request(f"group-{action}",
                                       ("group", action, "--name", spec),
                                       group=G, params={"spec": spec}))
        groups = self.inputs.groups
        for name in sorted(self.inputs.graphs):
            g = self.inputs.graphs[name]
            path = self.paths.graph(name)
            for G in CATALOG:
                n = groups[G].order
                pair = dict(group=G, graph=name)
                head = ("--group", G, "--graph", path)
                if n ** len(g.odd) <= BUILD_KEYS:
                    out.append(Request("build", ("build", *head, "--dump-cap",
                                                 str(BUILD_KEYS)), **pair))
                    out.append(Request("stabilizers",
                                       ("stabilizers", *head, "--cross-check",
                                        "--seed", _seed(rng)), **pair))
                    for basis in ("group", "rep"):
                        site = rng.choice(sorted(g.mixed))
                        out.append(Request(
                            "measure", ("measure", *head, "--site", site,
                                        "--basis", basis, "--seed", _seed(rng)),
                            params={"site": site}, **pair))
                if n ** (len(g.edges) + len(g.isolated_odd)) <= PEPS_ASSIGNMENTS:
                    out.append(Request("peps-compare", ("peps-compare", *head),
                                       **pair))
                if name.startswith("ring"):
                    out.append(Request(
                        "symmetry", ("symmetry", *head, "--states",
                                     str(SYMMETRY_STATES), "--seed", _seed(rng)),
                        **pair))
        for G, dims in QDOUBLE_SMALL:
            spec = "x".join(map(str, dims))
            out.append(Request("qdouble", ("qdouble", "--group", G, "--dims", spec),
                               group=G, params={"dims": dims}))
            out.append(Request("qdouble", ("qdouble", "--group", G, "--dims", spec,
                                           "--random-outcomes", "--seed",
                                           _seed(rng)),
                               group=G, params={"dims": dims, "random": True}))
        rng.shuffle(out)
        return out

    def round(self, i):
        return self.stream


WORKLOADS = {w.name: w for w in (Corpus, LargeState, Requests)}


class Paths:
    """Where set-up wrote the corpus graphs and the group tables."""

    def __init__(self, root: str):
        self.graphs = os.path.join(root, "graphs")
        self.groups = os.path.join(root, "groups")

    def graph(self, name: str) -> str:
        return os.path.join(self.graphs, f"{name}.json")

    def group(self, name: str) -> str:
        return os.path.join(self.groups, f"{name}.json")
