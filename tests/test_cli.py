"""End-to-end checks of the ``gcs`` command line: exit codes, report shape,
determinism of reports across runs, and the documented error paths."""

from __future__ import annotations

import hashlib
import json
import time

import pytest

from gcs import cli, graphs, groups
from gcs.cli import run
from gcs.graphs import (MAX_EDGES, Edge, build_graph, graph_to_json, line_graph,
                        load_graph_file, ring_graph)
from gcs.corpus import general_small_graph
from gcs.groups import builtin_group, group_to_json
from gcs.states import MAX_SITES
from test_reports_golden import CASES as GOLDEN_CASES
from test_reports_golden import graph_dir  # noqa: F401 (a fixture)


def _write_graph(tmp_path, g, name=None):
    path = tmp_path / f"{name or g.name}.json"
    path.write_text(json.dumps(graph_to_json(g)))
    return str(path)


def _read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _one_error_line(capsys):
    """Assert stderr holds one ``error:`` line; return what stdout got."""
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return out


# --- group ---


def test_group_validate_passes():
    assert run(["group", "validate", "--name", "D4"]) == 0


def test_group_validate_tight_tolerance_fails():
    # S3's 2-dim irrep has residuals at machine precision, not below 1e-17
    assert run(["group", "validate", "--name", "S3", "--tol", "1e-17"]) == 1


def test_unknown_group_is_input_error(capsys):
    assert run(["group", "validate", "--name", "nope"]) == 2
    assert "cannot load group" in capsys.readouterr().err


def _z2_file(tmp_path, change):
    """A Z2 group file with its second irrep object edited by ``change``."""
    obj = group_to_json(builtin_group("Z2"))
    change(obj["irreps"][1])
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("change, message", [
    (lambda r: r.update(label="w0"), "irrep labels must be unique"),
    (lambda r: r.pop("label"), "irrep 'label' must be a string or number"),
])
def test_bad_irrep_labels_are_input_errors(tmp_path, capsys, change, message):
    group = _z2_file(tmp_path, change)
    graph = _write_graph(tmp_path, line_graph(3, "e"))
    for argv in (["group", "validate", "--name", group],
                 ["measure", "--group", group, "--graph", graph,
                  "--site", "1", "--basis", "rep"],
                 ["symmetry", "--group", group, "--ring", "4"]):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err


@pytest.mark.parametrize("change", [
    lambda obj: obj.pop("name"),
    lambda obj: obj.update(name=True),
])
def test_group_file_needs_a_name(tmp_path, capsys, change):
    obj = group_to_json(builtin_group("Z2"))
    change(obj)
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(obj))
    assert run(["group", "validate", "--name", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "'name' must be a string or number" in err


def test_group_digest_follows_catalog_precedence(tmp_path, monkeypatch, capsys):
    # a file named like a catalog group does not shadow the catalog entry,
    # so the report carries the catalog group's canonical digest
    shadow = tmp_path / "S3"
    shadow.write_text(json.dumps(group_to_json(builtin_group("Z2"))))
    monkeypatch.chdir(tmp_path)
    canonical = json.dumps(group_to_json(builtin_group("S3")), sort_keys=True)
    assert run(["group", "validate", "--name", "S3", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["inputs"]["group"]["sha256"] == hashlib.sha256(
        canonical.encode("utf-8")).hexdigest()
    # a path that is not a catalog name still reports the file's bytes
    path = tmp_path / "z2.json"
    path.write_bytes(shadow.read_bytes())
    assert run(["group", "validate", "--name", str(path), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["inputs"]["group"]["sha256"] == hashlib.sha256(
        path.read_bytes()).hexdigest()


def test_group_show_dumps_tables(tmp_path):
    out = tmp_path / "g.json"
    assert run(["group", "show", "--name", "Z4", "--out", str(out)]) == 0
    rep = _read_report(out)
    assert rep["group_json"]["order"] == 4


# --- build ---


def test_build_line3_order2_gives_ghz(tmp_path, capsys):
    path = _write_graph(tmp_path, line_graph(3, "e"))
    assert run(["build", "--group", "Z2", "--graph", path, "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is True
    amps = {tuple(k): (re, im) for k, re, im in rep["amplitudes"]}
    assert set(amps) == {("0", "0", "0"), ("1", "1", "1")}
    for re, im in amps.values():
        assert re == pytest.approx(2 ** -0.5) and im == 0.0


def test_dump_cap_is_bounded(tmp_path, capsys, monkeypatch):
    # 2**12 keys: the most a report may list
    argv = ["build", "--group", "Z2", "--graph",
            _write_graph(tmp_path, line_graph(24, "o")), "--json", "--dump-cap"]
    assert run([*argv, str(cli.MAX_DUMP)]) == 0
    assert len(json.loads(capsys.readouterr().out)["amplitudes"]) == cli.MAX_DUMP
    monkeypatch.setattr(cli, "build_cluster_state", None)  # refused before the build
    for cap in (-1, cli.MAX_DUMP + 1):
        assert run([*argv, str(cap)]) == 2
        _one_error_line(capsys)


def test_register_past_the_width_limit_is_input_error(tmp_path, capsys):
    # two keys (one odd site), but 62 Z2 sites need 62-bit codes
    vertices = [("o", "odd")] + [(f"v{i}", "even") for i in range(61)]
    edges = [Edge(f"e{i}", f"v{i}", "o") for i in range(61)]
    path = _write_graph(tmp_path, build_graph("star62", vertices, edges))
    assert run(["build", "--group", "Z2", "--graph", path]) == 2
    _one_error_line(capsys)


def test_graph_past_the_site_limit_is_refused_on_load(tmp_path, capsys):
    # every vertex is a register site: 61 load, 62 exit 2 before the
    # graph is built
    line61 = _write_graph(tmp_path, line_graph(MAX_SITES, "e"))
    assert len(load_graph_file(line61)[0].vertices) == MAX_SITES == 61
    line62 = _write_graph(tmp_path, line_graph(MAX_SITES + 1, "e"))
    for argv in (["build", "--group", "Z2"],
                 ["stabilizers", "--group", "S3", "--cross-check"]):
        assert run([*argv, "--graph", line62]) == 2
        _one_error_line(capsys)
    with pytest.raises(ValueError, match="62 vertices"):
        load_graph_file(line62)


def _parallel_edges(tmp_path, n):
    path = tmp_path / f"parallel{n}.json"
    path.write_text(json.dumps({
        "vertices": [{"id": "e", "parity": "even"}, {"id": "o", "parity": "odd"}],
        "edges": [{"id": f"e{i}", "tail": "o", "head": "e"} for i in range(n)]}))
    return str(path)


def test_graph_past_the_edge_limit_is_refused_on_load(tmp_path, capsys,
                                                       monkeypatch):
    # E parallel edges give one closed form E(E-1)/2 summation variables:
    # the limit loads, and past it the file exits 2 before any edge is built
    assert len(load_graph_file(_parallel_edges(tmp_path, MAX_EDGES))[0].edges) \
        == MAX_EDGES == 128

    def no_edge(*args):
        raise AssertionError("an edge was built")

    monkeypatch.setattr(graphs, "Edge", no_edge)
    for n in (MAX_EDGES + 1, 5000):
        path = _parallel_edges(tmp_path, n)
        start = time.perf_counter()
        assert run(["stabilizers", "--group", "Z2", "--cross-check",
                    "--graph", path]) == 2
        assert time.perf_counter() - start < 1.0
        _one_error_line(capsys)
        with pytest.raises(ValueError, match=f"{n} edges, past the 128-edge"):
            load_graph_file(path)


def test_large_graph_file_loads_in_linear_time(tmp_path, capsys):
    # a 32,000-vertex line without orderings is refused once its vertex
    # list is counted, before any graph indexing
    g = line_graph(32000, "e")
    obj = graph_to_json(g)
    del obj["orderings"]
    path = tmp_path / "line32000.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    assert run(["build", "--group", "Z2", "--graph", str(path)]) == 2
    assert time.perf_counter() - start < 10
    _one_error_line(capsys)


def test_build_missing_graph_file_is_input_error(tmp_path):
    assert run(["build", "--group", "Z2",
                "--graph", str(tmp_path / "missing.json")]) == 2


def test_directory_inputs_are_input_errors(tmp_path, capsys):
    assert run(["build", "--group", "Z2", "--graph", str(tmp_path)]) == 2
    _one_error_line(capsys)
    assert run(["group", "validate", "--name", str(tmp_path)]) == 2
    _one_error_line(capsys)


def test_non_utf8_inputs_are_input_errors(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff{}")
    reason = ("'utf-8' codec can't decode byte 0xff in position 0: "
              "invalid start byte\n")
    assert run(["build", "--group", "Z2", "--graph", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot load graph {str(path)!r}: {reason}"
    assert run(["group", "validate", "--name", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot load group {str(path)!r}: {reason}"


@pytest.mark.parametrize("kind", ["graph", "group"])
def test_report_digest_is_of_the_bytes_parsed(tmp_path, capsys, monkeypatch,
                                              kind):
    # the file is rewritten as soon as it is parsed: the report names the
    # bytes parsed, not those the file holds after
    path = tmp_path / f"{kind}.json"
    if kind == "graph":
        path.write_text(json.dumps(graph_to_json(line_graph(3, "e"))))
        module, name = graphs, "graph_from_json"
        argv = ["build", "--group", "Z2", "--graph", str(path)]
    else:
        path.write_text(json.dumps(group_to_json(builtin_group("Z2"))))
        module, name = groups, "group_from_json"
        argv = ["group", "validate", "--name", str(path)]
    parsed = path.read_bytes()
    parse = getattr(module, name)

    def parse_then_rewrite(obj):
        path.write_bytes(parsed + b"\n")
        return parse(obj)

    monkeypatch.setattr(module, name, parse_then_rewrite)
    assert run([*argv, "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert path.read_bytes() != parsed
    assert rep["inputs"][kind]["sha256"] == hashlib.sha256(parsed).hexdigest()


def test_unwritable_outputs_are_input_errors(tmp_path, capsys):
    # the checks run, but no report is printed when it cannot be written
    out = tmp_path / "missing" / "r.json"
    assert run(["group", "validate", "--name", "Z2", "--json",
                "--out", str(out)]) == 2
    assert _one_error_line(capsys) == ""
    assert not out.exists()
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(["corpus", "--dump-graphs", str(blocker / "sub")]) == 2
    assert _one_error_line(capsys) == ""


def _graph_shapes():
    good = graph_to_json(line_graph(3, "e"))
    # str() makes a well-formed id of a null, list or boolean field used
    # consistently, so only the shape check refuses these files
    bare = json.dumps({k: v for k, v in good.items() if k != "orderings"})
    named_none = json.loads(json.dumps(good).replace('"e0"', '"None"'))
    return [{**good, "vertices": None}, {**good, "edges": [1, 2]}, [1, 2],
            {**good, "vertices": [{"id": "0"}, *good["vertices"][1:]]},
            {**good, "edges": [{"id": "e0", "tail": "0"}, *good["edges"][1:]]},
            json.loads(bare.replace('"0"', "null")),
            json.loads(bare.replace('"0"', "[0]")),
            json.loads(json.dumps(good).replace('"e0"', "true")),
            {**named_none, "orderings": {**named_none["orderings"], "0": [None]}}]


def _group_shapes():
    # json.dumps writes NaN and +-Infinity, which are not JSON; a text
    # case is the file as written, with a literal that overflows a float
    good = group_to_json(builtin_group("Z2"))
    bad_irrep = {**good["irreps"][0], "matrices": 5}
    inf_dim = {**good["irreps"][0], "dim": float("inf")}
    text = json.dumps(good)
    return [{**good, "labels": None}, {**good, "irreps": [bad_irrep]},
            {**good, "order": float("inf")}, {**good, "order": -float("inf")},
            {**good, "order": float("nan")}, {**good, "irreps": [inf_dim]},
            {**good, "order": 2.5}, {**good, "inv": [0, 1.7]},
            {**good, "inv": [0, True]},
            {**good, "mul": [65536, 1, 1, 0]}, {**good, "mul": [-65536, 1, 1, 0]},
            text.replace('"order": 2', '"order": 1e400'),
            text.replace('"dim": 1', '"dim": 1e400', 1),
            text.replace('"mul": [0', '"mul": [1e400')]


@pytest.mark.parametrize("obj", _graph_shapes(),
                         ids=["null-vertices", "int-edges", "top-level-list",
                              "vertex-without-parity", "edge-without-head",
                              "null-vertex-id", "list-vertex-id",
                              "boolean-edge-id", "null-ordering-entry"])
def test_wrongly_shaped_graph_file_is_input_error(tmp_path, capsys, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert run(["build", "--group", "Z2", "--graph", str(path)]) == 2
    _one_error_line(capsys)


@pytest.mark.parametrize("obj", _group_shapes(),
                         ids=["null-labels", "int-matrices", "infinite-order",
                              "minus-infinite-order", "nan-order",
                              "infinite-irrep-dim", "fractional-order",
                              "fractional-inv", "boolean-inv", "wrapping-mul",
                              "minus-wrapping-mul", "overflowing-order",
                              "overflowing-irrep-dim", "overflowing-mul"])
def test_wrongly_shaped_group_file_is_input_error(tmp_path, capsys, obj):
    path = tmp_path / "bad.json"
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    assert run(["group", "validate", "--name", str(path)]) == 2
    _one_error_line(capsys)


def _group_sizes():
    good = group_to_json(builtin_group("Z2"))
    # order 257 with a short table: refused before any array is built
    return [({**good, "order": 257}, "outside 1..256"),
            ({**good, "order": 0, "mul": [], "inv": []}, "outside 1..256"),
            ({**good, "mul": good["mul"][:3]}, "needs 4 'mul'"),
            ({**good, "inv": [0]}, "and 2 'inv'")]


@pytest.mark.parametrize("obj,says", _group_sizes(),
                         ids=["order-257", "order-0", "short-mul", "short-inv"])
def test_group_file_sizes_are_bounded(tmp_path, capsys, obj, says):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    assert run(["group", "validate", "--name", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert says in err


@pytest.mark.parametrize("drop", [True, False], ids=["no-irreps", "empty-irreps"])
def test_irrepless_group_file_fails_completeness(tmp_path, capsys, drop):
    obj = group_to_json(builtin_group("S3"))
    if drop:
        del obj["irreps"]
    else:
        obj["irreps"] = []
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(obj))
    assert run(["group", "validate", "--name", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "completeness" in err


# --- stabilizers ---


def test_stabilizers_cross_check_passes(tmp_path, capsys):
    path = _write_graph(tmp_path, general_small_graph())
    assert run(["stabilizers", "--group", "S3", "--graph", path,
                "--cross-check", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    labels = [c["label"] for c in rep["checks"]]
    assert any(lab.startswith("closed:") for lab in labels)
    assert any(lab.startswith("propagated:") for lab in labels)
    assert any(lab.startswith("routes:") for lab in labels)
    assert all(c["tol"] == 1e-10 for c in rep["checks"])


# --- measure ---


def test_measure_forced_outcome(tmp_path, capsys):
    path = _write_graph(tmp_path, line_graph(3, "e"))
    assert run(["measure", "--group", "Z3", "--graph", path,
                "--site", "1", "--forced", "2", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["outcome"] == "2"
    assert rep["probability"] == pytest.approx(1 / 3)


def test_measure_rep_basis(tmp_path, capsys):
    path = _write_graph(tmp_path, line_graph(3, "o"))
    assert run(["measure", "--group", "S3", "--graph", path,
                "--site", "1", "--basis", "rep", "--seed", "3",
                "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is True
    assert sum(p for _, p in rep["distribution"]) == pytest.approx(1.0)


def test_measure_non_integer_rep_indices_are_input_error(tmp_path, capsys):
    path = _write_graph(tmp_path, line_graph(3, "o"))
    assert run(["measure", "--group", "S3", "--graph", path, "--site", "1",
                "--basis", "rep", "--forced", "std,a,0"]) == 2
    assert "integer" in capsys.readouterr().err


def test_measure_unknown_site_is_input_error(tmp_path):
    path = _write_graph(tmp_path, line_graph(3, "e"))
    assert run(["measure", "--group", "Z2", "--graph", path,
                "--site", "zz"]) == 2


# --- symmetry ---


def test_symmetry_ring_flag():
    assert run(["symmetry", "--group", "Z3", "--ring", "6",
                "--states", "3"]) == 0


@pytest.mark.parametrize("states", ["0", "-3"])
def test_symmetry_needs_a_state(capsys, states):
    assert run(["symmetry", "--group", "Z3", "--ring", "6",
                "--states", states]) == 2
    assert "--states" in capsys.readouterr().err


def test_symmetry_states_past_the_limit_is_input_error(capsys, monkeypatch):
    drawn = []

    def no_draw(g, G, rng, states):
        drawn.append(states)
        return {}

    monkeypatch.setattr(cli, "verify_symmetry_algebra", no_draw)
    ring = ["symmetry", "--group", "Z2", "--ring", "4", "--states"]
    assert run([*ring, str(cli.MAX_STATES + 1)]) == 2
    _one_error_line(capsys)
    assert drawn == []
    assert run([*ring, str(cli.MAX_STATES)]) == 0
    assert drawn == [cli.MAX_STATES]


def test_symmetry_rejects_odd_ring():
    assert run(["symmetry", "--group", "Z2", "--ring", "5"]) == 2


def test_symmetry_ring_at_the_width_limit_runs():
    # 60 Z2 sites pack into 60-bit codes
    assert run(["symmetry", "--group", "Z2", "--ring", "60",
                "--states", "1"]) == 0


@pytest.mark.parametrize("group,ring", [("Z2", "62"), ("S3", "24"),
                                        ("Z2", "1000000000")])
def test_symmetry_ring_past_the_width_limit_is_input_error(
        capsys, monkeypatch, group, ring):
    def no_ring(n):
        raise AssertionError("the ring was allocated")

    monkeypatch.setattr(cli, "ring_graph", no_ring)
    assert run(["symmetry", "--group", group, "--ring", ring]) == 2
    _one_error_line(capsys)


def test_symmetry_needs_exactly_one_source(tmp_path):
    path = _write_graph(tmp_path, ring_graph(4))
    assert run(["symmetry", "--group", "Z2"]) == 2
    assert run(["symmetry", "--group", "Z2", "--graph", path,
                "--ring", "4"]) == 2


# --- peps-compare ---


def test_peps_compare_ring(tmp_path):
    path = _write_graph(tmp_path, ring_graph(4))
    assert run(["peps-compare", "--group", "Z3", "--graph", path]) == 0


def test_peps_compare_over_budget_is_input_error(tmp_path, capsys):
    # 8^8 rows, one per assignment of the eight odd sites: past MAX_KEYS
    path = _write_graph(tmp_path, ring_graph(16))
    assert run(["peps-compare", "--group", "Z8", "--graph", path]) == 2
    assert "budget" in capsys.readouterr().err


def test_peps_compare_torus(tmp_path):
    # 3^8 rows although the torus has 32 bonds
    from gcs.qdouble import build_qd_lattice, qd_cluster_graph
    path = _write_graph(tmp_path, qd_cluster_graph(build_qd_lattice(2, 2)))
    assert run(["peps-compare", "--group", "Z3", "--graph", path]) == 0


@pytest.mark.parametrize("argv", [
    ["build"],
    ["stabilizers", "--cross-check"],
    ["measure", "--site", "1"],
])
def test_state_over_budget_is_input_error(tmp_path, capsys, argv):
    path = _write_graph(tmp_path, ring_graph(16))
    assert run([*argv, "--group", "Z8", "--graph", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "budget" in err
    assert "Traceback" not in err


# --- qdouble ---


def test_qdouble_default_torus(capsys):
    assert run(["qdouble", "--group", "Z2", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["toric_fidelity"] == pytest.approx(1.0)
    labels = [c["label"] for c in rep["checks"]]
    assert sum(lab.startswith("B[") for lab in labels) == 4
    assert sum(lab.startswith("A[") for lab in labels) == 8


def test_qdouble_forced_outcomes():
    assert run(["qdouble", "--group", "Z2",
                "--outcome", "p[0,0]=1", "--outcome", "p[1,0]=1"]) == 0


def test_qdouble_inconsistent_outcomes_are_input_error(capsys):
    assert run(["qdouble", "--group", "Z2", "--outcome", "p[0,0]=1"]) == 2
    assert "inconsistent" in capsys.readouterr().err


def test_unknown_outcome_label_error_line_has_no_repr_quotes(capsys):
    # the KeyError's message is reported, not the repr str(KeyError) gives
    assert run(["qdouble", "--group", "Z2", "--outcome", "p[0,0]=zz"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: unknown element label 'zz' in group Z2\n")


def test_qdouble_random_outcomes():
    assert run(["qdouble", "--group", "Z3", "--random-outcomes",
                "--seed", "11"]) == 0


def test_qdouble_rejects_odd_dims():
    assert run(["qdouble", "--group", "Z2", "--dims", "3x2"]) == 2
    assert run(["qdouble", "--group", "Z2", "--dims", "2"]) == 2


@pytest.mark.parametrize("dims,says", [
    ("200x200", "62-bit"),  # 160,000 cluster sites
    ("2000000x2000000", "62-bit"),
    ("3x2000000", "even dimensions"),  # the dims are checked first
])
def test_qdouble_past_the_width_limit_is_input_error(capsys, monkeypatch,
                                                     dims, says):
    def no_lattice(l1, l2):
        raise AssertionError("the lattice was allocated")

    monkeypatch.setattr(cli, "build_qd_lattice", no_lattice)
    assert run(["qdouble", "--group", "Z2", "--dims", dims]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert says in err


@pytest.mark.parametrize("argv", [["qdouble", "--dims", "8x8"],
                                  ["symmetry", "--ring", "100"]])
def test_one_element_group_has_the_width_limit(tmp_path, capsys, argv):
    # a trivial group's digits carry no bits, but a register is still
    # charged one bit per site: 256 and 100 sites are past the 61-site limit
    one = {"name": "Z1", "order": 1, "mul": [0], "inv": [0], "labels": ["e"],
           "irreps": [{"label": "A", "dim": 1, "matrices": [[[1, 0]]]}]}
    path = tmp_path / "z1.json"
    path.write_text(json.dumps(one))
    assert run([argv[0], "--group", str(path), *argv[1:]]) == 2
    _one_error_line(capsys)


# --- corpus ---


def test_corpus_dump_graphs(tmp_path):
    target = tmp_path / "graphs"
    assert run(["corpus", "--dump-graphs", str(target)]) == 0
    names = sorted(p.name for p in target.iterdir())
    assert len(names) == 15 and "qd2x2.json" in names
    # dumped files round-trip through the loader
    assert run(["build", "--group", "Z2",
                "--graph", str(target / "ring6.json")]) == 0


def test_corpus_report_deterministic_across_threads(tmp_path):
    # the battery runs serially; two runs must still agree byte for byte
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert run(["corpus", "--max-edges", "2", "--groups", "Z2", "Z3",
                    "--out", str(out)]) == 0
    a, b = _read_report(out1), _read_report(out2)
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["pairs"] == 4  # line3e, line3o for each of the two groups


def test_corpus_empty_filter_is_input_error():
    assert run(["corpus", "--max-edges", "1"]) == 2


# --- report contract ---


CANONICAL_CASES = {**GOLDEN_CASES,
                   "corpus-max-edges-4": ["corpus", "--max-edges", "4",
                                          "--seed", "1"]}


@pytest.mark.parametrize("name", sorted(CANONICAL_CASES))
def test_report_is_one_canonical_line(name, graph_dir, tmp_path, capsys,
                                      monkeypatch):
    # sorted keys, no whitespace, one trailing newline; --out holds the
    # bytes --json prints
    monkeypatch.chdir(graph_dir)
    path = tmp_path / "report.json"
    assert run([*CANONICAL_CASES[name], "--json", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True,
                             separators=(",", ":")) + "\n"
    assert out.count("\n") == 1
    assert path.read_bytes() == out.encode("ascii")


def test_every_check_names_its_tolerance(tmp_path, capsys):
    path = _write_graph(tmp_path, line_graph(4, "e"))
    assert run(["stabilizers", "--group", "Z4", "--graph", path,
                "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    for key in ("command", "inputs", "tolerances", "seed", "checks",
                "first_failure", "passed", "wall_time_s"):
        assert key in rep
    for c in rep["checks"]:
        assert set(c) == {"label", "residual", "tol", "passed"}
    assert rep["inputs"]["graph"]["sha256"]
    assert rep["first_failure"] is None


def test_failure_report_names_first_failing_check(capsys):
    assert run(["group", "validate", "--name", "S3", "--tol", "1e-17",
                "--json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is False
    assert rep["first_failure"] is not None
    assert any(not c["passed"] for c in rep["checks"])


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ["symmetry", "--group", "Z2", "--ring", "4"],
    ["group", "validate", "--name", "Z2"],
    ["corpus", "--max-edges", "2"],
])
def test_bad_tolerance_is_usage_error(argv, tol, capsys, monkeypatch):
    def no_checks(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "verify_symmetry_algebra", no_checks)
    monkeypatch.setattr(cli, "validate_group", no_checks)
    monkeypatch.setattr(cli, "corpus_batteries", no_checks)
    with pytest.raises(SystemExit) as exc:
        run([*argv, f"--tol={tol}"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "-3", "1.5", "x"])
@pytest.mark.parametrize("argv", [
    ["symmetry", "--group", "Z2", "--ring", "4"],
    ["measure", "--group", "Z2", "--graph", "g.json", "--site", "1"],
    ["measure", "--group", "Z2", "--graph", "g.json", "--site", "1",
     "--basis", "rep"],
    ["qdouble", "--group", "Z2", "--random-outcomes"],
    ["stabilizers", "--group", "Z2", "--graph", "g.json", "--cross-check"],
    ["corpus", "--max-edges", "2"],
])
def test_bad_seed_is_usage_error(argv, seed, capsys):
    with pytest.raises(SystemExit) as exc:
        run([*argv, f"--seed={seed}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "Traceback" not in err


def test_zero_tolerance_is_accepted():
    assert run(["group", "validate", "--name", "Z2", "--tol", "0"]) in (0, 1)


# --- repeated in-process runs ---


def test_repeated_runs_share_no_parsed_state(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    forced = ["qdouble", "--group", "Z2", "--outcome", "p[0,0]=1",
              "--outcome", "p[1,0]=1"]
    for _ in range(2):
        assert cli._parser().parse_args(forced).outcome == [
            "p[0,0]=1", "p[1,0]=1"]
        assert run([*forced, "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert "toric_fidelity" not in rep
    assert cli._parser().parse_args(forced[:3]).outcome is None
    assert run(["qdouble", "--group", "Z2", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert set(rep["outcomes"].values()) == {"0"}
    assert rep["toric_fidelity"] == pytest.approx(1.0)

    ring = ["symmetry", "--group", "Z2", "--ring", "4"]
    first = tmp_path / "first.json"
    assert run([*ring, "--json", "--out", str(first), "--seed", "5",
                "--states", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["seed"], rep["states"]) == (5, 2)
    first.unlink()
    assert run(ring) == 0
    assert not capsys.readouterr().out.startswith("{")  # summary, not JSON
    assert not first.exists()
    second = tmp_path / "second.json"
    assert run([*ring, "--out", str(second)]) == 0
    rep = _read_report(second)
    assert (rep["seed"], rep["states"]) == (0, 10)


def test_bad_argv_exits_2_on_every_call():
    bad = (["frobnicate"], ["group", "validate"],
           ["symmetry", "--group", "Z2", "--ring", "four"])
    for _ in range(3):
        for argv in bad:
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2
        assert run(["group", "validate", "--name", "Z2"]) == 0


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2
