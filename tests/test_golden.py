"""`metra run` reports compared byte for byte against committed golden files.

The JSON and text reports of three workspaces are stored under
``tests/golden/``: the CLI tests' ``GOLDEN`` and ``GRID`` texts and
``lattice.mt`` (kernels, meets, joins, compositions, decompositions,
quotients, free algebras in modes M, Q and LIP(2), reduced products).
A refactor that must not change behaviour keeps these files unchanged.
Regenerate them with ``python tests/test_golden.py`` only when a report
change is intended.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from metra.cli import parse_workspace, render_json, render_text, run_workspace
from test_cli import GOLDEN, GRID

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


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


if __name__ == "__main__":
    for name, text in _workspaces().items():
        for kind, report in _reports(text).items():
            (GOLDEN_DIR / f"{name}.{kind}").write_bytes(report.encode("utf-8"))
