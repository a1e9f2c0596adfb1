"""Command-line surface: file formats, exit codes, output determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import polyprod
from polyprod import cli
from polyprod.cli import main
from polyprod.complexes import CLOSURE_SUBSET_BOUND, vertices_from_mask
from polyprod.errors import InputError
from polyprod.files import (
    load_complex,
    parse_characteristic_json,
    parse_characteristic_text,
    parse_complex_json,
    parse_complex_text,
    parse_pair_spec,
)
from polyprod.homology import HomologySummary, direct_sum
from polyprod.pairs import simplicial_space
from polyprod.products import HOCHSTER_NONFACE_BOUND, contractible_X_summary, hochster_homology

SQUARE_TEXT = """\
# the 4-cycle
m 4
face 1 2
face 2 3
face 3 4
face 4 1
"""

SQUARE_JSON = json.dumps({"m": 4, "maximal_faces": [[1, 2], [2, 3], [3, 4], [4, 1]]})

SQUARE_LAMBDA = "1 0\n0 1\n-1 0\n0 -1\n"


@pytest.fixture
def square_file(tmp_path):
    p = tmp_path / "square.cx"
    p.write_text(SQUARE_TEXT)
    return str(p)


@pytest.fixture
def lambda_file(tmp_path):
    p = tmp_path / "square.lam"
    p.write_text(SQUARE_LAMBDA)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_text_and_json_complex_parsers_agree():
    a = parse_complex_text(SQUARE_TEXT)
    b = parse_complex_json(SQUARE_JSON)
    assert a.faces == b.faces and a.m == b.m


def test_text_parser_diagnoses_line_numbers():
    with pytest.raises(InputError) as err:
        parse_complex_text("m 2\nface 1 5\n", source="bad.cx")
    assert "bad.cx" in str(err.value) and "2" in str(err.value)
    with pytest.raises(InputError):
        parse_complex_text("face 1\n")            # m directive missing
    with pytest.raises(InputError):
        parse_complex_text("m 2\nm 3\nface 1\n")  # m given twice


def test_json_parser_rejects_malformed_payloads():
    with pytest.raises(InputError):
        parse_complex_json('{"m": 2}')
    with pytest.raises(InputError):
        parse_complex_json('{"m": 2, "maximal_faces": [[1]], "extra": 1}')
    with pytest.raises(InputError):
        parse_complex_json('{"m": 2, "maximal_faces": [[1], [1]]}')
    # a file is parsed as JSON only when it starts with '{', so no file
    # reaches these two
    for parse in (parse_complex_json, parse_characteristic_json):
        with pytest.raises(InputError, match="expected a JSON object"):
            parse("[1]")


def _complex_text(faces):
    return "m 2\n" + "".join("face " + " ".join(map(str, f)) + "\n" for f in faces)


def _complex_json(faces):
    return json.dumps({"m": 2, "maximal_faces": faces})


# the bad face is the second one, on line 3 of the text file
@pytest.mark.parametrize("parse, render, where", [
    (parse_complex_text, _complex_text, "bad.cx:3"),
    (parse_complex_json, _complex_json, "bad.cx"),
], ids=["text", "json"])
@pytest.mark.parametrize("faces, message", [
    ([[1, 2], [2, 2]], "repeated vertex in face (2, 2)"),
    ([[1, 2], [2, 1]], "duplicate face (1, 2)"),
    ([[1, 2], [2, 3]], "vertex 3 outside 1..2"),
], ids=["repeated-vertex", "duplicate-face", "vertex-range"])
def test_complex_parsers_refuse_a_bad_face(parse, render, where, faces, message):
    with pytest.raises(InputError) as err:
        parse(render(faces), source="bad.cx")
    assert str(err.value) == f"{where}: {message}"


@pytest.mark.parametrize("payload", [
    {"m": True, "maximal_faces": [[1]]},
    {"m": 2, "maximal_faces": [[True]]},
    {"m": 2, "maximal_faces": [[True, 2]]},
])
def test_json_complex_parser_rejects_booleans_as_integers(payload):
    with pytest.raises(InputError):
        parse_complex_json(json.dumps(payload))


@pytest.mark.parametrize("payload", [
    {"n": True, "rows": [[1], [-1]]},
    {"n": 1, "rows": [[True], [-1]]},
    {"n": 2, "rows": [[1, False], [0, 1]]},
])
def test_json_characteristic_parser_rejects_booleans_as_integers(payload):
    with pytest.raises(InputError):
        parse_characteristic_json(json.dumps(payload))


def test_load_complex_sniffs_format(tmp_path):
    t = tmp_path / "k.cx"
    t.write_text(SQUARE_TEXT)
    j = tmp_path / "k.json"
    j.write_text(SQUARE_JSON)
    assert load_complex(t).faces == load_complex(j).faces


def test_characteristic_parsers():
    lam = parse_characteristic_text(SQUARE_LAMBDA)
    assert (lam.m, lam.n) == (4, 2)
    lam2 = parse_characteristic_json(
        json.dumps({"n": 2, "rows": [[1, 0], [0, 1], [-1, 0], [0, -1]]}))
    assert lam.rows == lam2.rows
    with pytest.raises(InputError):
        parse_characteristic_text("1 0\n0\n")


def test_pair_spec_parsing(tmp_path):
    assert parse_pair_spec("disk-sphere:2").name == "(D3,S2)"
    p = tmp_path / "sq.cx"
    p.write_text(SQUARE_TEXT)
    cone = parse_pair_spec(f"cone:{p}:1")
    assert cone.null_homotopic_inclusion
    based = parse_pair_spec(f"based:{p}:2")
    assert len(based.a_cells()) == 1
    for bad in ("disk-sphere:x", "disk-sphere:-1", "unknown:3", "cone:missing",
                f"cone:{p}:0", f"based:{p}:-1"):
        with pytest.raises(InputError):
            parse_pair_spec(bad)


# ---------------------------------------------------------------------------
# commands and exit codes
# ---------------------------------------------------------------------------

def test_homology_command_json(capsys, square_file):
    code, out, err = run(capsys, "homology", square_file,
                         "--pair", "disk-sphere:1")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["schema"] == "polyprod/1"
    assert payload["command"] == "homology"
    assert payload["betti"] == [1, 0, 0, 2, 0, 0, 1]


def test_homology_smash_and_reduced_flags(capsys, square_file):
    code, out, _ = run(capsys, "homology", square_file,
                       "--pair", "disk-sphere:1", "--reduced")
    assert code == 0
    assert json.loads(out)["betti"] == [0, 0, 0, 2, 0, 0, 1]
    code, out, _ = run(capsys, "homology", square_file,
                       "--pair", "disk-sphere:1", "--smash")
    assert code == 0
    assert json.loads(out)["betti"] == [0, 0, 0, 0, 0, 0, 1]


def test_homology_budget_below_the_cell_count_exits_one(capsys, square_file):
    # the 4-cycle with (D2,S1) has 64 cells; the budget counts all of them
    # before any block is built
    code, out, err = run(capsys, "homology", square_file,
                         "--pair", "disk-sphere:1", "--budget", "63")
    assert (code, out) == (1, "")
    assert err == "error: construction needs 64 cells, budget is 63\n"
    code, out, _ = run(capsys, "homology", square_file,
                       "--pair", "disk-sphere:1", "--budget", "64", "--reduced")
    assert code == 0 and json.loads(out)["cells"] == 64


@pytest.mark.parametrize("command", ["homology", "split", "wedge-lemma"])
@pytest.mark.parametrize("budget", ["0", "-1"])
def test_budget_below_one_names_the_flag(capsys, square_file, command, budget):
    with pytest.raises(SystemExit) as exc:
        main([command, square_file, "--pair", "disk-sphere:1", "--budget", budget])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --budget: must be >= 1, got {budget}" in captured.err
    assert "construction needs" not in captured.err


def test_homology_of_a_cone_pair_matches_the_join_model(capsys, tmp_path,
                                                       square_file):
    # 14,400 cells, most of them in the block of the full vertex set
    tri = tmp_path / "tri.cx"
    tri.write_text("m 3\nface 1 2\nface 2 3\nface 1 3\n")
    code, out, _ = run(capsys, "homology", square_file,
                       "--pair", f"cone:{tri}:1")
    assert code == 0
    payload = json.loads(out)
    assert payload["cells"] == 14400
    # H-tilde(Zhat(K_I;(CA,A))) is the join of |K_I| with the smash of the
    # A's, which builds no product cells
    k = load_complex(square_file)
    a = simplicial_space(load_complex(tri), 1)
    expected = direct_sum(
        [HomologySummary(((0, 1, ()),))]
        + [contractible_X_summary(k.full_subcomplex(vertices_from_mask(mask)),
                                  [a] * mask.bit_count())
           for mask in range(1, 1 << k.m)])
    assert payload["homology"] == expected.to_entries()


def test_validate_command_exit_codes(capsys, square_file, tmp_path):
    code, out, _ = run(capsys, "validate", square_file)
    assert code == 0
    ghost = tmp_path / "ghost.cx"
    ghost.write_text("m 3\nface 1 2\n")
    code, out, _ = run(capsys, "validate", str(ghost))
    assert code == 0
    code, out, _ = run(capsys, "validate", str(ghost), "--strict")
    assert code == 1
    assert "ghost" in out.lower()


def test_missing_file_is_an_input_error(capsys):
    code, out, err = run(capsys, "validate", "/nonexistent/k.cx")
    assert code == 1
    assert err != ""


@pytest.mark.parametrize("command", [["validate"], ["hochster", "--n", "1"]])
def test_m_directive_with_a_non_ascii_digit_is_an_input_error(capsys, tmp_path, command):
    # '²' passes str.isdigit() yet int() refuses it
    bad = tmp_path / "superscript.cx"
    bad.write_text("m \u00b2\nface 1\n", encoding="utf-8")
    code, out, err = run(capsys, command[0], str(bad), *command[1:])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "m needs one positive integer" in err
    assert "Traceback" not in err


NESTED = "[" * 200_000


# the file is bad.cx, or bad.lam for the toric matrix; bytes are not UTF-8
@pytest.mark.parametrize("argv, name, content", [
    (["validate", "{bad}"], "bad.cx", b"\xff\xfe"),
    (["homology", "{square}", "--pair", "cone:{bad}:1"], "bad.cx", b"\xff\xfe"),
    (["validate", "{bad}"], "bad.cx", '{"m": ' + NESTED),
    (["toric", "{square}", "{bad}"], "bad.lam", '{"n": ' + NESTED),
], ids=["not-utf8", "not-utf8-pair-spec", "nested-complex", "nested-matrix"])
def test_an_unreadable_input_file_is_an_input_error(capsys, tmp_path, square_file,
                                                    argv, name, content):
    bad = tmp_path / name
    bad.write_bytes(content if isinstance(content, bytes) else content.encode())
    code, out, err = run(capsys, *(a.format(bad=bad, square=square_file) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(bad) in err
    assert "Traceback" not in err


# {bad} is a file holding the given text
@pytest.mark.parametrize("argv, text, message", [
    (["validate", "{bad}"], '{"m": 2, "m": 2, "maximal_faces": [[1]]}',
     "duplicate key 'm'"),
    (["validate", "{bad}"], "m 2\nface 1 x\n", "face vertices must be integers"),
    (["validate", "{bad}"], "m 2\nface\n", "face needs at least one vertex"),
    (["validate", "{bad}"], "m 2\nfacet 1\n", "unknown directive 'facet'"),
    (["validate", "{bad}"], "# no directives\n", "missing m directive"),
    (["validate", "{bad}"], '{"m": 2,', "invalid JSON"),
    (["toric", "{square}", "{bad}"], "1 0\n0 x\n", "matrix entries must be integers"),
    (["toric", "{square}", "{bad}"], "# no rows\n", "empty matrix"),
    (["toric", "{square}", "{bad}"], '{"n": 1, "rows": [[1]], "cols": 1}',
     "unknown keys ['cols']"),
    (["toric", "{square}", "{bad}"], '{"n": 2, "rows": [[1, 0], [1]]}',
     "every row must have n = 2 entries"),
    (["homology", "{square}", "--pair", "cone:{bad}:x"], "m 1\n",
     "vertex must be an integer"),
    (["homology", "{square}"], "", "at least one --pair specification is required"),
    (["homology", "{square}", "--pair", "disk-sphere:1", "--pair", "disk-sphere:1"],
     "", "2 pair specs for m = 4 vertices"),
    (["porter", "3", "--q", "1", "--y-dims", "1,x"], "",
     "--y-dims must be a comma-separated integer list"),
], ids=["duplicate-key", "non-integer-vertex", "empty-face", "unknown-directive",
        "missing-m", "invalid-json", "non-integer-matrix", "empty-matrix",
        "unknown-matrix-key", "short-matrix-row", "non-integer-pair-vertex",
        "no-pair", "pair-count", "bad-y-dims"])
def test_a_refused_input_exits_one_with_its_message(capsys, tmp_path, square_file,
                                                    argv, text, message):
    bad = tmp_path / "bad"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *(a.format(bad=bad, square=square_file) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_an_m_token_past_the_integer_digit_limit_is_an_input_error(capsys, tmp_path):
    # int() refuses more than 4,300 digits with a ValueError of its own
    bad = tmp_path / "long.cx"
    bad.write_text("m " + "9" * 5001 + "\n", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1 and out == ""
    assert err == f"error: {bad}:1: m needs one positive integer\n"


def test_a_basepoint_vertex_out_of_range_is_an_input_error(capsys, square_file):
    code, out, err = run(capsys, "homology", square_file,
                         "--pair", f"cone:{square_file}:0")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "out of range 1..4" in err


def test_malformed_usage_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["porter"])            # missing required arguments
    assert exc.value.code == 1
    capsys.readouterr()


def test_split_command_verdict(capsys, square_file):
    code, out, _ = run(capsys, "split", square_file, "--pair", "disk-sphere:1")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["verdict"] == "VERIFIED"
    subsets = [s["I"] for s in payload["summands"]]
    assert subsets[0] == [1] and subsets[-1] == [1, 2, 3, 4]


def test_split_tsv_mirrors_json(capsys, square_file):
    code, out, _ = run(capsys, "split", square_file, "--pair", "disk-sphere:1",
                       "--tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "verdict\tVERIFIED"


def test_hochster_command(capsys, square_file):
    code, out, _ = run(capsys, "hochster", square_file, "--n", "1")
    assert code == 0
    payload = json.loads(out)
    degrees = {e["degree"]: e["betti"] for e in payload["total"]}
    assert degrees == {3: 2, 6: 1}
    assert all(s["homology"] is not None for s in payload["summands"])


def test_wedge_lemma_command(capsys, square_file):
    code, out, _ = run(capsys, "wedge-lemma", square_file,
                       "--pair", "disk-sphere:1")
    assert code == 0
    assert json.loads(out)["verdict"] == "VERIFIED"


def test_porter_command(capsys):
    code, out, _ = run(capsys, "porter", "4", "--q", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["spheres"] == [
        {"dimension": 3, "multiplicity": 6},
        {"dimension": 4, "multiplicity": 8},
        {"dimension": 5, "multiplicity": 3},
    ]
    code, out, _ = run(capsys, "porter", "3", "--q", "1",
                       "--y-dims", "1,1,2")
    assert code == 0
    assert json.loads(out)["spheres"] == [{"dimension": 6, "multiplicity": 1}]


@pytest.mark.parametrize("m", ["1", "0"])
def test_porter_below_two_vertices_names_the_least_m(capsys, m):
    code, out, err = run(capsys, "porter", m, "--q", "0")
    assert code == 1 and out == ""
    assert f"m must be at least 2 (q lies in 0..m-2), got {m}" in err
    assert "outside" not in err


@pytest.mark.parametrize("n, message", [
    ("0", "argument --n: must be >= 1, got 0"),
    ("-1", "argument --n: must be >= 1, got -1"),
    ("abc", "argument --n: invalid int value: 'abc'"),
])
def test_poincare_below_dimension_one_names_the_flag(capsys, square_file, n, message):
    with pytest.raises(SystemExit) as exc:
        main(["poincare", square_file, "--n", n])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_poincare_command(capsys, square_file):
    code, out, _ = run(capsys, "poincare", square_file, "--n", "1",
                       "--trunc", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["series"]["expansion"] == [0, 4, 4, 0, 0, 0, 0]


def test_sr_command(capsys, square_file):
    code, out, _ = run(capsys, "sr", square_file, "--trunc", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["relation_monomials"] == ["x1*x3", "x2*x4"]
    assert payload["relations"] == [[1, 3], [2, 4]]
    assert payload["series"]["expansion"][0] == 1


def test_dj_check_command(capsys, square_file):
    code, out, _ = run(capsys, "dj-check", square_file)
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_toric_command(capsys, square_file, lambda_file):
    code, out, _ = run(capsys, "toric", square_file, lambda_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["betti"] == [1, 0, 2, 0, 1]
    assert payload["euler"] == 4
    assert payload["kernel_rank"] == 2
    assert payload["linear_display"] == ["x1 - x3", "x2 - x4"]
    assert payload["valid"] is True


def test_toric_command_rejects_bad_matrix(capsys, square_file, tmp_path):
    bad = tmp_path / "bad.lam"
    bad.write_text("1 0\n0 1\n-2 1\n0 -1\n")
    code, out, _ = run(capsys, "toric", square_file, str(bad))
    assert code == 1
    payload = json.loads(out)
    assert any(d["kind"] == "face_not_unimodular" for d in payload["diagnostics"])


def test_toric_command_with_a_huge_prime_entry_finishes(tmp_path):
    two = tmp_path / "two.cx"
    two.write_text("m 2\nface 1\nface 2\n")
    big = tmp_path / "big.lam"
    big.write_text("100000000000000000039\n1\n")
    # a subprocess with a timeout turns a hang into a failure
    src = str(Path(polyprod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "polyprod.cli", "toric", str(two), str(big)],
        capture_output=True, text=True, timeout=2, env=env)
    assert proc.returncode == 1
    kinds = {d["kind"] for d in json.loads(proc.stdout)["diagnostics"]}
    assert kinds == {"row_not_primitive", "face_not_unimodular"}


def test_porter_on_forty_vertices_hits_the_enumeration_bound():
    # 2^40 subsets would run for days; the bound must refuse them at once
    src = str(Path(polyprod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "polyprod.cli", "porter", "40", "--q", "1"],
        capture_output=True, text=True, timeout=2, env=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "m = 40 exceeds 24" in proc.stderr


def test_hochster_on_eighteen_points_hits_the_nonface_bound(tmp_path):
    # 2^18 - 19 non-faces; walking them would take gigabytes, so the count
    # must be refused before any K_I is built, and before the first byte
    # of the document
    points = tmp_path / "points.cx"
    points.write_text("m 18\n" + "".join(f"face {v}\n" for v in range(1, 19)))
    src = str(Path(polyprod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "polyprod.cli", "hochster", str(points), "--n", "1"],
        capture_output=True, text=True, timeout=5, env=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (f"error: Hochster's formula walks {(1 << 18) - 19} non-faces; "
                           f"bound is {HOCHSTER_NONFACE_BOUND}\n")


def test_hochster_refusals_write_nothing(capsys, square_file, monkeypatch):
    assert run(capsys, "hochster", square_file, "--n", "-1") == (
        1, "", "error: sphere dimension n must be >= 0\n")
    # the CLI passes one n for every vertex; one dimension too many stands
    # in for a caller that gets the arity wrong
    monkeypatch.setattr(cli, "hochster_homology", lambda k, n, job_map=None:
                        hochster_homology(k, (n,) * (k.m + 1), job_map))
    assert run(capsys, "hochster", square_file) == (
        1, "", "error: expected 4 sphere dimensions, got 5\n")


def cycle_file(tmp_path, m: int) -> Path:
    path = tmp_path / f"c{m}.cx"
    path.write_text(f"m {m}\n" + "".join(f"face {v} {v % m + 1}\n" for v in range(1, m + 1)))
    return path


def test_a_reader_that_closes_stdout_early_gets_a_quiet_exit(tmp_path):
    # the 14-cycle's document is 4.7 MB, far past a pipe buffer, so the
    # writer meets the closed pipe in the middle of the summands
    src = str(Path(polyprod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "polyprod.cli", "hochster",
         str(cycle_file(tmp_path, 14)), "--n", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(600)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head.startswith(b'{\n  "command": "hochster",\n  "n": 1,')
    assert b"Traceback" not in err
    assert err == b""


class Discard(io.TextIOBase):
    """A stdout that drops what it is given."""

    def write(self, text):
        return len(text)


def test_hochster_streams_its_summands_to_stdout(tmp_path):
    # 16,355 summands in a 4.7 MB document.  Streamed, the peak is about
    # 3.4 MB; holding the document as one string takes it to 11 MB, and
    # holding the summands, their payload dicts and the document to 33 MB
    cycle = cycle_file(tmp_path, 14)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(Discard()):
            code = main(["hochster", str(cycle), "--n", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 6_000_000


def test_validate_of_one_twenty_vertex_face_hits_the_closure_bound(tmp_path):
    # closing one 20-vertex face walks 2^20 subsets; the count must be
    # refused before any is walked
    simplex = tmp_path / "simplex.cx"
    simplex.write_text("m 20\nface " + " ".join(map(str, range(1, 21))) + "\n")
    src = str(Path(polyprod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "polyprod.cli", "validate", str(simplex)],
        capture_output=True, text=True, timeout=5, env=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (f"error: closing the input faces walks {1 << 20} subsets; "
                           f"bound is {CLOSURE_SUBSET_BOUND}\n")


def test_sr_of_one_edge_on_twenty_four_vertices_finishes(tmp_path):
    # the minimal non-faces come from the faces: a scan of the 2^24
    # subsets ran for 16 s
    edge = tmp_path / "edge.cx"
    edge.write_text("m 24\nface 1 2\n")
    src = str(Path(polyprod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "polyprod.cli", "sr", str(edge)],
        capture_output=True, text=True, timeout=5, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["relations"] == [[v] for v in range(3, 25)]


def test_wedge_lemma_on_a_seven_vertex_sphere_finishes(tmp_path):
    # the boundary of the 6-simplex: its barycentric subdivision has 47,293
    # faces, so the left factors must come from links, not order complexes
    sphere = tmp_path / "sphere.cx"
    sphere.write_text("m 7\n" + "".join(
        "face " + " ".join(str(v) for v in range(1, 8) if v != skip) + "\n"
        for skip in range(1, 8)))
    src = str(Path(polyprod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "polyprod.cli", "wedge-lemma", str(sphere),
         "--pair", "disk-sphere:1"],
        capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "VERIFIED"


def test_split_of_the_five_cycle_with_a_dense_cone_finishes(tmp_path):
    # (cone over the triangle's boundary, that boundary) on the 5-cycle:
    # 106,056 cells whose cone boundaries fill in densely; without clearing
    # the split was still running after 60 s
    triangle = tmp_path / "triangle.cx"
    triangle.write_text("m 3\nface 1 2\nface 2 3\nface 1 3\n")
    cycle = tmp_path / "c5.cx"
    cycle.write_text("m 5\n" + "".join(f"face {v} {v % 5 + 1}\n" for v in range(1, 6)))
    src = str(Path(polyprod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "polyprod.cli", "split", str(cycle),
         "--pair", f"cone:{triangle}:1"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "VERIFIED"


def test_shifted_command(capsys, tmp_path, square_file):
    star = tmp_path / "star.cx"
    star.write_text("m 3\nface 1 2\nface 1 3\n")
    code, out, _ = run(capsys, "shifted", str(star), "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["shifted"] is True
    assert payload["spheres"] == [{"dimension": 4, "multiplicity": 1}]
    code, out, _ = run(capsys, "shifted", square_file)
    assert code == 0
    assert json.loads(out)["shifted"] is False


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_identical_invocations_are_byte_identical(capsys, square_file):
    _, first, _ = run(capsys, "split", square_file, "--pair", "disk-sphere:1")
    _, second, _ = run(capsys, "split", square_file, "--pair", "disk-sphere:1")
    assert first == second


def test_jobs_flag_never_changes_output(capsys, square_file):
    _, serial, _ = run(capsys, "split", square_file,
                       "--pair", "disk-sphere:1", "--jobs", "1")
    _, parallel, _ = run(capsys, "split", square_file,
                         "--pair", "disk-sphere:1", "--jobs", "2")
    assert serial == parallel
    _, h1, _ = run(capsys, "hochster", square_file, "--n", "2", "--jobs", "1")
    _, h2, _ = run(capsys, "hochster", square_file, "--n", "2", "--jobs", "3")
    assert h1 == h2


class RecordingPool:
    """Stands in for multiprocessing.Pool: records the requested size and
    maps in this process, so no worker is ever started."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    map = imap_unordered = staticmethod(map)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_jobs_are_capped_at_the_cpu_count(capsys, square_file, monkeypatch):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "Pool", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    _, serial, _ = run(capsys, "hochster", square_file)
    for jobs in ("100000", "3", "1"):
        code, out, _ = run(capsys, "hochster", square_file, "--jobs", jobs)
        assert (code, out) == (0, serial)
    assert RecordingPool.sizes == [4, 3]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert run(capsys, "split", square_file, "--pair", "disk-sphere:1",
               "--jobs", "100000")[0] == 0
    assert RecordingPool.sizes == [4, 3]


class ChunkingPool(RecordingPool):
    """A RecordingPool whose map lists its items first, as Pool.map does,
    and whose imap_unordered takes them one chunk at a time.  Each records,
    as it takes items, how many of the split blocks taken so far are alive."""

    def __init__(self, processes):
        super().__init__(processes)
        self.refs, self.alive = [], []

    def _take(self, items):
        self.refs += [weakref.ref(block) for _, block in items]
        self.alive.append(sum(ref() is not None for ref in self.refs))

    def map(self, fn, items):
        items = list(items)
        self._take(items)
        return [fn(item) for item in items]

    def imap_unordered(self, fn, items, chunksize=1):
        items = iter(items)
        while chunk := list(islice(items, chunksize)):
            self._take(chunk)
            results = [fn(item) for item in chunk]
            del chunk
            yield from results


def test_split_streams_its_blocks_to_the_pool(capsys, tmp_path, monkeypatch):
    cycle = tmp_path / "c5.cx"
    cycle.write_text("m 5\n" + "".join(f"face {v} {v % 5 + 1}\n" for v in range(1, 6)))
    argv = ["split", str(cycle), "--pair", "disk-sphere:1"]
    _, serial, _ = run(capsys, *argv)
    pools = []
    monkeypatch.setattr(cli, "Pool", lambda n: pools.append(ChunkingPool(n)) or pools[-1])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert run(capsys, *argv, "--jobs", "2")[:2] == (0, serial)
    # all 32 blocks went through the pool, and at most one chunk of one
    # block was alive at a time
    (pool,) = pools
    assert len(pool.refs) == 32
    assert max(pool.alive) == 1


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_are_rejected(capsys, square_file, monkeypatch, jobs):
    monkeypatch.setattr(cli, "Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    with pytest.raises(SystemExit) as exc:
        main(["hochster", square_file, "--jobs", jobs])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --jobs: must be >= 1, got {jobs}" in captured.err
    assert RecordingPool.sizes == []


def test_json_output_is_sorted_and_stable(capsys, square_file):
    _, out, _ = run(capsys, "homology", square_file, "--pair", "disk-sphere:1")
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


class Streamed(list):
    """A list that json_text hands to the writer as a generator."""


def streamed(value):
    """value with each Streamed list replaced by a generator over its items."""
    if isinstance(value, Streamed):
        return (streamed(item) for item in value)
    if isinstance(value, (list, tuple)):
        return type(value)(map(streamed, value))
    if isinstance(value, dict):
        return {key: streamed(item) for key, item in value.items()}
    return value


def json_text(value) -> str:
    pieces = []
    cli._json(streamed(value), pieces.append)
    return "".join(pieces)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text()
    | st.integers(-2**70, 2**70) | st.sampled_from([0, 2**64, -2**64 - 1]),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.lists(inner, max_size=4).map(Streamed)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_writer_matches_json_dumps_with_sorted_keys_and_indent(value):
    # json.dumps writes a Streamed list as a list; the writer is given a generator
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    Streamed(),
    {"a": Streamed(), "b": [Streamed(), {}]},
    [Streamed([Streamed(), 1]), {"c": Streamed([{"d": Streamed([[]])}])}],
], ids=["empty", "empty-in-dict-and-list", "nested"])
def test_json_writer_writes_generators_as_lists(value):
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def test_json_writer_writes_each_item_of_an_iterator_as_it_is_made():
    log = []

    def items():
        for i in range(2):
            log.append(f"make {i}")
            yield {"i": i}

    cli._json({"a": 1, "items": items(), "z": []}, log.append)
    assert log == [
        "make 0", '{\n  "a": 1,\n  "items": [\n    {\n      "i": 0\n    }',
        "make 1", ',\n    {\n      "i": 1\n    }',
        '\n  ],\n  "z": []\n}',
    ]


def test_json_writer_escapes_like_json_dumps():
    value = {"é": ["", "\x00\x1f\"\\/", "\U0001f600", " "], "": {}, "b": [[], {}]}
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.0, {"x": [float("nan")]}, {1: 2}, {"x": {1, 2}},
                                   {"x": Streamed([{1: 2}])}])
def test_json_writer_refuses_what_a_payload_never_holds(value):
    with pytest.raises(TypeError):
        json_text(value)
