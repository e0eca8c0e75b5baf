import hashlib
import json

import numpy as np
import pytest

from gcs.graphs import graph_to_json, line_graph, load_graph_file
from gcs.groups import (
    builtin_group,
    catalog_digest,
    catalog_names,
    centralizer,
    conjugacy_classes,
    group_from_json,
    group_to_json,
    load_group_file,
    rep_direct_sum,
    rep_tensor,
    validate_group,
    validate_irreps,
)

TOL = 1e-12


def test_catalog_names():
    names = catalog_names()
    assert set(names) == {"Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "S3", "D4", "Q8"}


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_group_axioms(name):
    G = builtin_group(name)
    rep = validate_group(G)
    assert rep.violations == ()
    assert G.multiply(0, 1 % G.order) == 1 % G.order
    for a in range(G.order):
        assert G.multiply(a, G.inv(a)) == 0


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_irreps_validate(name):
    G = builtin_group(name)
    rep = validate_irreps(G)
    assert rep.violations == ()
    assert rep.max_residual < TOL
    assert sum(r.dim**2 for r in G.irreps) == G.order


@pytest.mark.parametrize("name", catalog_names())
def test_class_count_equals_irrep_count(name):
    G = builtin_group(name)
    assert len(conjugacy_classes(G)) == len(G.irreps)


@pytest.mark.parametrize("name", catalog_names())
def test_character_orthogonality(name):
    # sum_g chi_a(g) conj(chi_b(g)) = |G| d_ab — a consequence of grand
    # orthogonality, checked directly.
    G = builtin_group(name)
    chars = [np.einsum("gii->g", r.matrices) for r in G.irreps]
    for a, ca in enumerate(chars):
        for b, cb in enumerate(chars):
            val = np.sum(ca * cb.conj())
            want = G.order if a == b else 0.0
            assert abs(val - want) < 1e-10


def test_z2_facts():
    G = builtin_group("Z2")
    assert G.order == 2
    assert G.multiply(1, 1) == 0
    minus = G.irrep("w1")
    assert minus.matrices[1, 0, 0] == pytest.approx(-1.0)
    assert conjugacy_classes(G) == ((0,), (1,))


def test_s3_structure():
    G = builtin_group("S3")
    assert G.order == 6
    # the two 3-cycles are mutually inverse
    a, b = G.element("(123)"), G.element("(132)")
    assert G.multiply(a, b) == 0
    assert G.inv(a) == b
    assert not np.array_equal(G.table, G.table.T)  # not abelian
    sizes = sorted(len(c) for c in conjugacy_classes(G))
    assert sizes == [1, 2, 3]
    assert sorted(r.dim for r in G.irreps) == [1, 1, 2]
    # transpositions are odd permutations
    sgn = G.irrep("sgn")
    for lab in ["(12)", "(13)", "(23)"]:
        assert sgn.matrices[G.element(lab), 0, 0] == pytest.approx(-1.0)


def test_d4_structure():
    G = builtin_group("D4")
    r, s = G.element("r"), G.element("s")
    # s r s = r^-1
    assert G.product([s, r, s]) == G.inv(r)
    assert len(conjugacy_classes(G)) == 5
    assert sorted(rr.dim for rr in G.irreps) == [1, 1, 1, 1, 2]


def test_q8_structure():
    G = builtin_group("Q8")
    i, j, k = G.element("i"), G.element("j"), G.element("k")
    assert G.multiply(i, j) == k
    assert G.multiply(j, i) == G.element("-k")
    assert G.multiply(i, i) == G.element("-1")
    assert centralizer(G, G.element("-1")) == tuple(range(8))
    assert len(conjugacy_classes(G)) == 5


def test_zn_irreps_are_roots_of_unity():
    G = builtin_group("Z3")
    w = np.exp(2j * np.pi / 3)
    assert G.irrep("w1").matrices[1, 0, 0] == pytest.approx(w)
    assert G.irrep("w2").matrices[2, 0, 0] == pytest.approx(w)


def test_corrupted_table_reports_identity_violation():
    G = builtin_group("Z4")
    bad = np.array(G.table)
    bad[0, 1] = 0
    from gcs.groups import FiniteGroup

    H = FiniteGroup(
        name="Z4bad",
        order=4,
        table=bad,
        inverse=G.inverse,
        labels=G.labels,
        irreps=(),
    )
    rep = validate_group(H)
    assert any("identity" in v or "permutation" in v for v in rep.violations)


def test_incomplete_irrep_set_fails_completeness():
    G = builtin_group("Z2")
    rep = validate_irreps(G, irreps=G.irreps[:1])
    assert any("completeness" in v for v in rep.violations)


def test_rep_tensor_and_direct_sum_are_homomorphisms():
    G = builtin_group("S3")
    std = G.irrep("std")
    for r in (rep_tensor(std, std), rep_direct_sum(std, G.irrep("sgn"))):
        prod = np.einsum("aij,bjk->abik", r.matrices, r.matrices)
        assert np.abs(prod - r.matrices[G.table]).max() < TOL


@pytest.mark.parametrize("name", ["Z5", "S3", "Q8"])
def test_json_round_trip(name):
    G = builtin_group(name)
    obj = json.loads(json.dumps(group_to_json(G)))
    H = group_from_json(obj)
    assert H.name == G.name
    assert np.array_equal(H.table, G.table)
    assert H.labels == G.labels
    for a, b in zip(H.irreps, G.irreps):
        assert a.label == b.label
        assert np.abs(a.matrices - b.matrices).max() < TOL


def test_loader_rejects_corrupt_file():
    G = builtin_group("Z3")
    obj = group_to_json(G)
    obj["mul"][1] = 0  # break the identity row
    with pytest.raises(ValueError):
        group_from_json(obj)


def test_loader_rejects_repeated_irrep_labels():
    # FiniteGroup.irrep finds irreps by label, so a repeat would hide one
    obj = group_to_json(builtin_group("Z2"))
    obj["irreps"][1]["label"] = obj["irreps"][0]["label"]
    with pytest.raises(ValueError, match="irrep labels must be unique"):
        group_from_json(obj)
    G = builtin_group("S3")
    rep = validate_irreps(G, (G.irreps[0], G.irreps[1], G.irreps[1]))
    assert "irrep labels must be unique" in rep.violations


@pytest.mark.parametrize("label", [None, True, [1], {"a": 1}])
def test_loader_requires_an_irrep_label(label):
    obj = group_to_json(builtin_group("Z2"))
    if label is None:
        del obj["irreps"][1]["label"]
    else:
        obj["irreps"][1]["label"] = label
    with pytest.raises(ValueError,
                       match="irrep 'label' must be a string or number"):
        group_from_json(obj)


@pytest.mark.parametrize("name", [None, False, [1], {"a": 1}])
def test_loader_requires_a_group_name(name):
    obj = group_to_json(builtin_group("Z2"))
    if name is None:
        del obj["name"]
    else:
        obj["name"] = name
    with pytest.raises(ValueError, match="'name' must be a string or number"):
        group_from_json(obj)


def test_loader_reads_numerals_and_integral_floats():
    # integer fields are checked before any cast, and int() reads "2" and 1.0
    obj = group_to_json(builtin_group("Z2"))
    obj.update(order="2", mul=["0", 1.0, 1, 0], inv=[0, "1"])
    obj["irreps"][1]["dim"] = 1.0
    H = group_from_json(obj)
    assert H.order == 2 and H.irreps[1].dim == 1
    assert H.table.tolist() == [[0, 1], [1, 0]] and H.inverse.tolist() == [0, 1]


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_file_loaders_refuse_non_json_constants(tmp_path, constant):
    # Python's json reads these, but they are not JSON
    text = json.dumps(group_to_json(builtin_group("Z2")))
    path = tmp_path / "g.json"
    path.write_text(text.replace('"order": 2', f'"order": {constant}'))
    with pytest.raises(ValueError, match=f"{constant} is not a JSON value"):
        load_group_file(str(path))
    text = json.dumps(graph_to_json(line_graph(3, "e")))
    path.write_text(text.replace('"id": "0"', f'"id": {constant}', 1))
    with pytest.raises(ValueError, match=f"{constant} is not a JSON value"):
        load_graph_file(str(path))


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_groups_are_shared_and_read_only(name):
    G = builtin_group(name)
    assert builtin_group(name) is G
    with pytest.raises(ValueError):
        G.table[0, 0] = 1
    with pytest.raises(ValueError):
        G.inverse[0] = 1
    for r in G.irreps:
        with pytest.raises(ValueError):
            r.matrices[0, 0, 0] = 2.0
    text = json.dumps(group_to_json(G), sort_keys=True)
    assert catalog_digest(name) == hashlib.sha256(text.encode("utf-8")).hexdigest()
