"""Golden reports: a fixed set of ``gcs`` requests must reproduce the
stored JSON reports under ``tests/data/golden/``.

Each request runs through ``gcs.cli.run`` in a fresh working directory
holding the corpus graphs (``gcs corpus --dump-graphs graphs``), so every
path in a report is relative.  ``wall_time_s`` is dropped; structure,
strings, integers and booleans must match exactly and floats to 1e-12, so
a different numpy build may move the last bits of a residual.

Regenerate the fixtures (only when a report is meant to change) with

    PYTHONPATH=src python3 tests/test_reports_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

import pytest

from gcs.cli import run

GOLDEN = Path(__file__).parent / "data" / "golden"
GRAPH = "graphs/general-small.json"

CASES = {
    "corpus-max-edges-8": ["corpus", "--max-edges", "8", "--seed", "3"],
    "build-s3-general-small": ["build", "--group", "S3", "--graph", GRAPH,
                               "--dump-cap", "512"],
    "stabilizers-s3-general-small": ["stabilizers", "--group", "S3",
                                     "--graph", GRAPH, "--cross-check",
                                     "--seed", "7"],
    "measure-group-s3-general-small": ["measure", "--group", "S3", "--graph",
                                       GRAPH, "--site", "e1", "--basis",
                                       "group", "--seed", "5"],
    "measure-rep-s3-general-small": ["measure", "--group", "S3", "--graph",
                                     GRAPH, "--site", "o1", "--basis", "rep",
                                     "--seed", "5"],
    "symmetry-s3-ring6": ["symmetry", "--group", "S3", "--ring", "6",
                          "--states", "2"],
    "peps-compare-z3-ring8": ["peps-compare", "--group", "Z3", "--graph",
                              "graphs/ring8.json"],
    "qdouble-z3-random-outcomes": ["qdouble", "--group", "Z3",
                                   "--random-outcomes", "--seed", "4"],
    "group-show-q8": ["group", "show", "--name", "Q8"],
}


def _report(argv) -> dict:
    """The JSON report of one request, run in the current directory,
    without its wall time."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run([*argv, "--json"])
    assert rc == 0, (argv, rc)
    report = json.loads(buf.getvalue())
    del report["wall_time_s"]
    return report


def _dump_graphs() -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["corpus", "--dump-graphs", "graphs"]) == 0


def _assert_close(got, want, path="report"):
    """Equal structure, strings, ints and bools; floats within 1e-12."""
    assert type(got) is type(want), f"{path}: {got!r} vs {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{path}: keys differ"
        for k in want:
            _assert_close(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: lengths differ"
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_close(a, b, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), \
            f"{path}: {got!r} vs {want!r}"
    else:
        assert got == want, f"{path}: {got!r} vs {want!r}"


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        _dump_graphs()
    finally:
        os.chdir(cwd)
    return root


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, graph_dir, monkeypatch):
    monkeypatch.chdir(graph_dir)
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    _assert_close(_report(CASES[name]), want)


def test_golden_fixtures_cover_every_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


def _regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            _dump_graphs()
            for name, argv in CASES.items():
                text = json.dumps(_report(argv), indent=1, sort_keys=True)
                (GOLDEN / f"{name}.json").write_text(text + "\n",
                                                     encoding="utf-8")
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    _regenerate()
