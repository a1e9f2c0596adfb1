"""CLI stdout against the recorded outputs in tests/golden/, byte for byte.

cases.json lists each case's argv (paths relative to tests/golden/) and its
exit code; <name>.out holds its stdout.  The outputs were recorded with the
cellular model as the only route to H(Z), so this gate also pins the
block-by-block route to the earlier bytes.  The toric cases print the kernel
basis, the rows U[rank:] of the witnessed Smith normal form, so they pin U.
Every subcommand has at least one case in each output format; the series
commands pin num and den, and shifted pins the sphere wedge.
"""

import argparse
import json
from pathlib import Path

import pytest

from polyprod.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def test_golden_set_covers_every_mode():
    commands = {(c["argv"][0], "--reduced" in c["argv"], "--smash" in c["argv"],
                 c["argv"][-1]) for c in CASES}
    for fmt in ("--json", "--tsv"):
        for cmd in (("homology", False, False), ("homology", True, False),
                    ("homology", False, True), ("split", False, False),
                    ("wedge-lemma", False, False), ("toric", False, False)):
            assert cmd + (fmt,) in commands
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    recorded = {(c["argv"][0], c["argv"][-1]) for c in CASES}
    for name in subparsers.choices:
        assert {(name, "--json"), (name, "--tsv")} <= recorded, name
    specs = {a for c in CASES for a in c["argv"] if ":" in a}
    assert {"disk-sphere:0", "disk-sphere:1"} <= specs
    assert any(s.startswith("cone:") for s in specs)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_golden(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(case["argv"])
    out, err = capsys.readouterr()
    assert (code, err) == (case["exit"], "")
    assert out == (GOLDEN / f"{case['name']}.out").read_text()
