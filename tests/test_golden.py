"""CLI stdout against the recorded outputs in tests/golden/, byte for byte.

cases.json lists each case's argv (paths relative to tests/golden/) and its
exit code; <name>.out holds its stdout.  The outputs were recorded with the
cellular model as the only route to H(Z), so this gate also pins the
block-by-block route to the earlier bytes.  The toric cases print the kernel
basis, the rows U[rank:] of the witnessed Smith normal form, so they pin U.
Every subcommand has at least one case in each output format; the series
commands pin num and den, and shifted pins the sphere wedge.

wedge_lemma_summands.json pins the library's wedge-lemma summands, face by
face, on every complex with m <= 4 vertices and every pair of the standard
library.  It was recorded when each summand was the homology of the join's
full chain complex, so it ties the Kunneth route to that one.  It keys each
case by m, the maximal faces and the pair name, and lists the nonzero
summands as (face, homology groups).
"""

import argparse
import json
from pathlib import Path

import pytest

from polyprod.catalog import all_complexes_on, standard_pair_library
from polyprod.cli import build_parser, main
from polyprod.complexes import vertices_from_mask
from polyprod.products import wedge_lemma_decomposition

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


def test_wedge_lemma_summands_match_recorded_values():
    recorded = json.loads((GOLDEN / "wedge_lemma_summands.json").read_text())
    checked = 0
    for m in range(1, 5):
        for k in all_complexes_on(m):
            facets = " ".join("".join(map(str, vertices_from_mask(f))) or "-"
                              for f in k.maximal_faces)
            for pair in standard_pair_library():
                res = wedge_lemma_decomposition(k, [pair] * m)
                assert res.verified
                assert len(res.summands) == len(k.faces)
                nonzero = [[list(s.subset),
                            [[d, b, list(chain)] for d, b, chain in s.homology.groups]]
                           for s in res.summands if not s.homology.is_trivial()]
                key = f"{m} [{facets}] {pair.name}"
                assert nonzero == recorded[key], key
                checked += 1
    assert checked == len(recorded) == 176
