"""`metra run` reports compared byte for byte against committed golden files.

The JSON and text reports of three workspaces are stored under
``tests/golden/``: the CLI tests' ``GOLDEN`` and ``GRID`` texts and
``lattice.mt`` (kernels, meets, joins, compositions, decompositions,
quotients, free algebras in modes M, Q and LIP(2), reduced products).
A refactor that must not change behaviour keeps these files unchanged.
Regenerate them with ``python tests/test_golden.py`` only when a report
change is intended.

The reports of the ``workspace_lattice`` benchmark's seed-1 and seed-2
workspaces are pinned by their sha-256 instead: the workspaces are
generated by ``bench/workspace_lattice.py``, which is imported, not edited.
"""

from __future__ import annotations

import hashlib
import importlib
from pathlib import Path

import pytest

import metra.cli as cli_module
import metra.extmetric as extmetric_module
from metra.cli import load_workspace, parse_workspace, render_json, render_text, run_workspace
from test_cli import GOLDEN, GRID

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
# sha-256 of each seed's JSON reports, each followed by "exit <code>\n", in
# the order the generator writes the workspaces.
BENCH_REPORT_DIGESTS = {
    1: "9b0b2a06d87c83037c6cf4cd8f66a5040f248d90d910e274c0032e99c6808436",
    2: "e8b248e400be37d8f419bc60a5bcda4a0162d77065a5fd9f7db561f561bb3aa3",
}


def _workspaces() -> dict[str, str]:
    return {
        "golden": GOLDEN,
        "grid": GRID,
        "lattice": (GOLDEN_DIR / "lattice.mt").read_text(encoding="utf-8"),
    }


def _reports(text: str) -> dict[str, str]:
    results, _ = run_workspace(parse_workspace(text))
    return {"json": render_json(results), "txt": render_text(results)}


@pytest.mark.parametrize("name", ["golden", "grid", "lattice"])
@pytest.mark.parametrize("kind", ["json", "txt"])
def test_reports_match_the_golden_files(name, kind):
    expected = (GOLDEN_DIR / f"{name}.{kind}").read_bytes()
    actual = _reports(_workspaces()[name])[kind].encode("utf-8")
    assert actual == expected


def test_no_command_scans_a_derived_result(monkeypatch):
    """Results that hold by construction are not re-checked: no command of
    ``lattice.mt`` runs the triangle scan.  Of all commands only
    ``limitmetric`` runs it, on its input.  Parsing runs it on each
    declaration, which shows that the spy is in place."""
    scans, command = [], [None]
    run_one, triangle = cli_module._run_one, extmetric_module._triangle_witness

    def running(ws, word, *args):
        command[0] = word
        try:
            return run_one(ws, word, *args)
        finally:
            command[0] = None

    def scanned(arr):
        scans.append(command[0])
        return triangle(arr)

    monkeypatch.setattr(cli_module, "_run_one", running)
    monkeypatch.setattr(extmetric_module, "_triangle_witness", scanned)
    run_workspace(parse_workspace(_workspaces()["lattice"]))
    assert None in scans
    assert [word for word in scans if word not in (None, "limitmetric")] == []


@pytest.mark.parametrize("seed", sorted(BENCH_REPORT_DIGESTS))
def test_benchmark_reports_keep_their_digest(seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    workspace_lattice = importlib.import_module("workspace_lattice")
    digest = hashlib.sha256()
    for ws in workspace_lattice.generate(seed, tmp_path):
        results, code = run_workspace(load_workspace(str(ws["path"])))
        digest.update(f"{render_json(results)}exit {code}\n".encode("utf-8"))
    assert digest.hexdigest() == BENCH_REPORT_DIGESTS[seed]


if __name__ == "__main__":
    for name, text in _workspaces().items():
        for kind, report in _reports(text).items():
            (GOLDEN_DIR / f"{name}.{kind}").write_bytes(report.encode("utf-8"))
