"""Torsion products against field coefficients: the universal coefficient
theorem checks the integral homology of (C RP^2, RP^2) products and of every
golden homology input against ranks mod p, and the sparse elimination
leaves the (C RP^2, RP^2) products no dense remainder."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import polyprod.homology as homology_module
from polyprod.catalog import (
    all_complexes_on,
    cycle_complex,
    projective_plane,
    random_complex,
    standard_pair_library,
)
from polyprod.complexes import SimplicialComplex
from polyprod.errors import BudgetExceeded
from polyprod.files import load_complex, parse_pair_spec
from polyprod.homology import homology, simplicial_chain_complex
from polyprod.pairs import rp2_pair
from polyprod.products import moment_angle_chain

from oracles import mod_p_dims, universal_coefficients

GOLDEN = Path(__file__).parent / "golden"

# (complex file, pair specs) of every golden `homology` case, once each
_GOLDEN_HOMOLOGY_INPUTS = sorted({
    (case["argv"][1],
     tuple(a for a, flag in zip(case["argv"][1:], case["argv"]) if flag == "--pair"))
    for case in json.loads((GOLDEN / "cases.json").read_text())
    if case["argv"][0] == "homology"})

# two complexes with f-vector (6, 15, 10): every edge on 6 vertices plus
# these triangles; their (C RP^2, RP^2) models have 43,281 cells each
_SIX_VERTEX_TRIANGLES = (
    ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 4, 6),
     (2, 3, 4), (2, 3, 5), (2, 5, 6), (3, 4, 6), (3, 5, 6)),
    ((1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 3, 6), (1, 5, 6),
     (2, 3, 4), (2, 3, 5), (2, 5, 6), (3, 4, 5), (4, 5, 6)),
)


def _six_vertex_complex(triangles):
    edges = [(a, b) for a in range(1, 7) for b in range(a + 1, 7)]
    return SimplicialComplex.from_maximal_faces(6, edges + list(triangles))


def _rp2_model(k):
    return moment_angle_chain(k, [rp2_pair()] * k.m)


@pytest.fixture
def dense_calls(monkeypatch):
    """Shapes of every block handed to the dense kernel while the test runs."""
    calls = []
    real = homology_module._diagonalize

    def spy(m, n_rows, n_cols):
        calls.append((n_rows, n_cols))
        return real(m, n_rows, n_cols)

    monkeypatch.setattr(homology_module, "_diagonalize", spy)
    return calls


def test_mod_p_dims_of_the_projective_plane():
    c = simplicial_chain_complex(projective_plane())
    assert mod_p_dims(c, 2) == {0: 1, 1: 1, 2: 1}
    assert mod_p_dims(c, 3) == {0: 1}
    assert universal_coefficients(homology(c), 2) == {0: 1, 1: 1, 2: 1}


def test_small_rp2_products_leave_no_dense_remainder(dense_calls):
    complexes = [k for m in range(1, 5) for k in all_complexes_on(m)]
    complexes.append(cycle_complex(5))
    for k in complexes:
        h = homology(_rp2_model(k))
        assert dense_calls == [], (k.m, sorted(k.faces))
        assert h.betti(0) == 1


@pytest.mark.parametrize("name", ["C7", "six-vertex-0", "six-vertex-1"])
def test_large_rp2_models_agree_with_field_ranks(name, dense_calls):
    if name == "C7":
        k = cycle_complex(7)
    else:
        k = _six_vertex_complex(_SIX_VERTEX_TRIANGLES[int(name[-1])])
    c = _rp2_model(k)
    assert c.total_cells() >= 40_000
    h = homology(c)
    assert dense_calls == []
    assert not h.is_torsion_free()
    for p in (2, 3):
        assert mod_p_dims(c, p) == universal_coefficients(h, p), p


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.lists(st.integers(0, 3), min_size=4, max_size=4))
def test_universal_coefficients_on_random_products(m, seed, picks):
    k = random_complex(random.Random(seed), m)
    library = standard_pair_library()
    try:
        c = moment_angle_chain(k, [library[i] for i in picks[:m]], budget=3000)
    except BudgetExceeded:
        assume(False)
    h = homology(c)
    for p in (2, 3):
        assert mod_p_dims(c, p) == universal_coefficients(h, p), p


def test_golden_homology_inputs_include_every_pair_kind():
    specs = {s for _, specs in _GOLDEN_HOMOLOGY_INPUTS for s in specs}
    for kind in ("disk-sphere:", "cone:", "based:"):
        assert any(s.startswith(kind) for s in specs), kind
    assert any(len(specs) > 1 for _, specs in _GOLDEN_HOMOLOGY_INPUTS)


@pytest.mark.parametrize("complex_file, specs", _GOLDEN_HOMOLOGY_INPUTS,
                         ids=[" ".join((f,) + s) for f, s in _GOLDEN_HOMOLOGY_INPUTS])
def test_universal_coefficients_on_golden_inputs(complex_file, specs, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    k = load_complex(complex_file)
    pairs = [parse_pair_spec(s) for s in specs]
    if len(pairs) == 1:
        pairs *= k.m
    c = moment_angle_chain(k, pairs)
    h = homology(c)
    for p in (2, 3):
        assert mod_p_dims(c, p) == universal_coefficients(h, p), p
