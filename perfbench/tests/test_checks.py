"""The benchmark's checkers accept real ``gcs`` reports and reject corrupted
ones.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from checks import CheckError, Request, check, flat_connection_count  # noqa: E402
from run import _set_up  # noqa: E402


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    client, paths, inputs = _set_up(str(tmp_path_factory.mktemp("bench")))
    return client, paths, inputs


def _report(env, req):
    client, _, inputs = env
    rc, out = client.call(req.argv)
    check(req, rc, out, inputs)  # the genuine report passes
    return json.loads(out)


def _rejects(env, req, report):
    with pytest.raises(CheckError):
        check(req, 0, json.dumps(report), env[2])


def _build(env, group, graph):
    path = env[1].graph(graph)
    return Request("build", ("build", "--group", group, "--graph", path,
                             "--dump-cap", "512"), group=group, graph=graph)


def test_build_rejects_one_changed_amplitude(env):
    req = _build(env, "S3", "general-small")
    report = _report(env, req)
    bad = copy.deepcopy(report)
    bad["amplitudes"][17][1] += 1e-9
    _rejects(env, req, bad)


def test_build_rejects_key_count_off_by_one(env):
    req = _build(env, "D4", "line5o")
    report = _report(env, req)
    _rejects(env, req, dict(report, keys=report["keys"] + 1))
    _rejects(env, req, dict(report, amplitudes=report["amplitudes"][:-1]))


@pytest.mark.parametrize("group,dims,random", [
    ("Z3", (2, 2), False), ("Z2", (2, 4), False), ("Z4", (2, 2), True)])
def test_qdouble_rejects_key_count_off_by_one(env, group, dims, random):
    argv = ("qdouble", "--group", group, "--dims", "x".join(map(str, dims)))
    if random:
        argv += ("--random-outcomes", "--seed", "5")
    req = Request("qdouble", argv, group=group,
                  params={"dims": dims, "random": random})
    report = _report(env, req)
    for delta in (1, -1):
        bad = dict(report, keys=report["keys"] + delta)
        _rejects(env, req, bad)


def _measure(env, group, graph, site, basis):
    path = env[1].graph(graph)
    return Request("measure", ("measure", "--group", group, "--graph", path,
                               "--site", site, "--basis", basis, "--seed", "3"),
                   group=group, graph=graph, params={"site": site})


@pytest.mark.parametrize("basis", ["group", "rep"])
def test_measure_rejects_non_uniform_distribution(env, basis):
    req = _measure(env, "S3", "ring6", "1", basis)
    report = _report(env, req)
    bad = copy.deepcopy(report)
    bad["distribution"][0][1] += 0.01
    bad["distribution"][1][1] -= 0.01
    _rejects(env, req, bad)


def test_measure_rejects_post_state_key_count_off_by_one(env):
    req = _measure(env, "Z3", "line5o", "2", "group")
    report = _report(env, req)
    _rejects(env, req, dict(report, post_keys=report["post_keys"] + 1))


def test_measure_refuses_a_site_that_is_not_maximally_mixed(env):
    # v3's two edges to o4 cancel: its digit is always the identity
    req = _measure(env, "Z2", "random-medium", "v3", "group")
    client, _, inputs = env
    rc, out = client.call(req.argv)
    with pytest.raises(CheckError):
        check(req, rc, out, inputs)


def test_stabilizers_rejects_a_missing_check(env):
    path = env[1].graph("general-small")
    req = Request("stabilizers", ("stabilizers", "--group", "S3", "--graph",
                                  path, "--cross-check", "--seed", "1"),
                  group="S3", graph="general-small")
    report = _report(env, req)
    for route in ("closed", "propagated", "routes"):
        bad = copy.deepcopy(report)
        drop = next(i for i, c in enumerate(bad["checks"])
                    if c["label"].startswith(route + ":"))
        del bad["checks"][drop]
        _rejects(env, req, bad)


def test_stabilizers_rejects_a_residual_over_tolerance(env):
    path = env[1].graph("ring4")
    req = Request("stabilizers", ("stabilizers", "--group", "Z3", "--graph",
                                  path), group="Z3", graph="ring4")
    report = _report(env, req)
    bad = copy.deepcopy(report)
    bad["checks"][2]["residual"] = 2e-10
    _rejects(env, req, bad)


def test_peps_rejects_low_fidelity(env):
    path = env[1].graph("ring6")
    req = Request("peps-compare", ("peps-compare", "--group", "S3", "--graph",
                                   path), group="S3", graph="ring6")
    report = _report(env, req)
    _rejects(env, req, dict(report, fidelity=1 - 1e-9))


def test_corpus_rejects_a_missing_or_duplicated_pair(env):
    req = Request("corpus", ("corpus", "--max-edges", "4", "--seed", "2"),
                  params={"max_edges": 4})
    report = _report(env, req)
    missing = copy.deepcopy(report)
    missing["results"].pop()
    _rejects(env, req, missing)
    doubled = copy.deepcopy(report)
    doubled["results"][-1] = copy.deepcopy(doubled["results"][0])
    _rejects(env, req, doubled)


def test_group_show_rejects_a_broken_table(env):
    spec = env[1].group("S3")
    req = Request("group-show", ("group", "show", "--name", spec), group="S3",
                  params={"spec": spec})
    report = _report(env, req)
    bad = copy.deepcopy(report)
    bad["group_json"]["mul"][7], bad["group_json"]["mul"][8] = (
        bad["group_json"]["mul"][8], bad["group_json"]["mul"][7])
    _rejects(env, req, bad)


def test_flat_connection_counts(env):
    groups = env[2].groups
    # |G|^V k(G): k(Zn) = n, k(S3) = 3, k(D4) = k(Q8) = 5
    assert flat_connection_count(groups["S3"], 2, 2) == 6**4 * 3 == 3888
    assert [groups[G].class_count() for G in ("Z5", "S3", "D4", "Q8")] == \
        [5, 3, 5, 5]
