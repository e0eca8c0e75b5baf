import json

import pytest

from gcs.graphs import (
    ClusterGraph,
    Edge,
    graph_from_json,
    graph_to_json,
    line_graph,
    ring_graph,
    validate_graph,
)
from references import scramble_ordering


def test_line_eoe_default_directions():
    g = line_graph(3, "eoe")
    assert g.parity("0") == "even" and g.parity("1") == "odd"
    # both edges directed from the even endpoints into the centre
    assert (g.edge("e0").tail, g.edge("e0").head) == ("0", "1")
    assert (g.edge("e1").tail, g.edge("e1").head) == ("2", "1")
    assert validate_graph(g).ok


def test_line_oeo_default_directions():
    g = line_graph(3, "oeo")
    # repeating chain pattern: every edge toward the lower index
    assert (g.edge("e0").tail, g.edge("e0").head) == ("1", "0")
    assert (g.edge("e1").tail, g.edge("e1").head) == ("2", "1")
    assert g.orderings["1"] == ("e0", "e1")


def test_line_full_pattern_and_overrides():
    g = line_graph(4, "eoeo", directions=["fwd", "fwd", "fwd"])
    assert g.edge("e1").tail == "1"
    with pytest.raises(ValueError):
        line_graph(4, "eeoo")
    with pytest.raises(ValueError):
        line_graph(3, "eoe", directions=["fwd"])


def test_ring_structure():
    g = ring_graph(6)
    assert len(g.edges) == 6
    assert g.even_vertices == ("0", "2", "4")
    # leftward orientation including the wrap edge
    assert (g.edge("e5").tail, g.edge("e5").head) == ("0", "5")
    assert (g.edge("e0").tail, g.edge("e0").head) == ("1", "0")
    assert validate_graph(g).ok


def test_odd_ring_rejected():
    with pytest.raises(ValueError):
        ring_graph(3)
    with pytest.raises(ValueError):
        ring_graph(5)


def test_validation_catches_non_bipartite():
    g = ClusterGraph(
        "bad",
        (("a", "even"), ("b", "even")),
        (Edge("e", "a", "b"),),
        {"a": ("e",), "b": ("e",)},
    )
    rep = validate_graph(g)
    assert any("not bipartite" in v for v in rep.violations)


def test_validation_catches_bad_ordering():
    g = line_graph(3, "eoe")
    broken = ClusterGraph(g.name, g.vertices, g.edges, {"0": ("e0", "e1"), "2": ("e1",)})
    rep = validate_graph(broken)
    assert any("permutation" in v for v in rep.violations)
    missing = ClusterGraph(g.name, g.vertices, g.edges, {"0": ("e0",)})
    rep = validate_graph(missing)
    assert any("missing" in v for v in rep.violations)


def test_validation_notes_multigraph():
    g = ClusterGraph(
        "multi",
        (("a", "even"), ("b", "odd")),
        (Edge("e0", "a", "b"), Edge("e1", "a", "b")),
        {"a": ("e0", "e1")},
    )
    rep = validate_graph(g)
    assert rep.ok
    assert any("multigraph" in n for n in rep.notes)


def test_json_round_trip():
    g = line_graph(5, "eoeoe")
    obj = json.loads(json.dumps(graph_to_json(g)))
    h = graph_from_json(obj)
    assert h.vertices == g.vertices
    assert h.edges == g.edges
    assert h.orderings == g.orderings


def test_json_omitted_orderings_default_to_declaration_order():
    g = line_graph(5, "eoeoe")
    obj = graph_to_json(g)
    del obj["orderings"]
    h = graph_from_json(obj)
    assert h.orderings == g.orderings  # line defaults are declaration order


def test_json_rejects_invalid():
    g = line_graph(3, "eoe")
    obj = graph_to_json(g)
    obj["edges"][0]["tail"] = "2"  # now joins two evens
    with pytest.raises(ValueError):
        graph_from_json(obj)


@pytest.mark.parametrize("value", ["missing", None, True, [0]],
                         ids=["missing", "null", "bool", "list"])
@pytest.mark.parametrize("kind,name", [("vertex", "id"), ("vertex", "parity"),
                                       ("edge", "id"), ("edge", "tail"),
                                       ("edge", "head")])
def test_json_field_errors_name_the_field(kind, name, value):
    obj = graph_to_json(line_graph(3, "eoe"))
    item = obj["vertices" if kind == "vertex" else "edges"][1]
    if value == "missing":
        del item[name]
    else:
        item[name] = value
    with pytest.raises(ValueError,
                       match=f"graph {kind} '{name}' must be a string or number"):
        graph_from_json(obj)


@pytest.mark.parametrize("value", [None, True, [0]], ids=["null", "bool", "list"])
def test_json_ordering_entries_are_strings_or_numbers(value):
    obj = graph_to_json(line_graph(3, "eoe"))
    obj["orderings"]["0"] = [value]
    with pytest.raises(ValueError, match="'orderings' must map vertex ids to "
                                         "lists of strings or numbers"):
        graph_from_json(obj)


def test_lookups_index_first_declarations():
    line = line_graph(3, "eoe")
    g = ClusterGraph(line.name,
                     line.vertices + (("1", "even"),),  # duplicate id
                     line.edges + (Edge("e0", "2", "1"),),  # duplicate id
                     line.orderings)
    assert g.parity("1") == "odd"
    assert g.edge("e0") == Edge("e0", "0", "1")
    assert [e.id for e in g.incident_edges("1")] == ["e0", "e1", "e0"]
    assert g.incident_edges("nope") == ()
    bad = validate_graph(g).violations
    assert "duplicate vertex ids" in bad and "duplicate edge ids" in bad
    with pytest.raises(KeyError):
        g.parity("nope")
    with pytest.raises(KeyError):
        g.edge("nope")


def test_scramble_ordering():
    g = line_graph(3, "oeo", directions=["bwd", "fwd"])
    assert g.orderings["1"] == ("e0", "e1")
    s = scramble_ordering(g, "1")
    assert s.orderings["1"] == ("e1", "e0")
    assert validate_graph(s).ok
