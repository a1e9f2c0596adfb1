"""Command-line surface: one subcommand per computation, JSON or TSV output.

Exit codes: 0 for success (including verified identities), 2 when a
verification command finds the two sides of an identity unequal, and 1 for
input problems (bad files, bad flags, budget or bound violations).
"""

from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii
from multiprocessing import Pool
from typing import Callable, Sequence

from .complexes import validate
from .errors import InputError, PolyprodError
from .files import load_characteristic, load_complex, parse_pair_spec
from .homology import HomologySummary, direct_sum, homology
from .products import (
    DEFAULT_CELL_BUDGET,
    SplitSummand,
    SplittingResult,
    hochster_homology,
    moment_angle_blocks,
    poincare_polynomial,
    porter_decomposition,
    smash_moment_angle_chain,
    sphere_wedge_report,
    stable_splitting,
    wedge_lemma_decomposition,
)
from .series import RationalSeries
from .stanley_reisner import dj_additive_check, sr_hilbert_series, sr_presentation
from .toric import (
    kernel_lattice_basis,
    toric_betti,
    toric_presentation,
    validate_characteristic,
)

SCHEMA = "polyprod/1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MISMATCH = 2


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; here 2 means math mismatch, so
    usage errors are remapped to the input-error code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _json(value, newline: str = "\n") -> str:
    """The text of json.dumps(value, sort_keys=True, indent=2), for payloads
    of dicts with str keys, lists, tuples, str, int, bool and None.

    json.dumps runs its pure-Python encoder whenever indent is set; this
    builds the same text with one call per value.  Any other type, floats
    and non-str keys included, raises TypeError: a payload holds exact
    integers only.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        items = [encode_basestring_ascii(key) + ": " + _json(value[key], inner)
                 for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(args, payload: dict, tsv_rows: Sequence[Sequence]) -> None:
    if args.format == "tsv":
        for row in tsv_rows:
            print("\t".join(str(x) for x in row))
    else:
        out = {"schema": SCHEMA, "command": args.command}
        out.update(payload)
        print(_json(out))


def _homology_rows(summary: HomologySummary) -> list[tuple]:
    return [(d, b, ",".join(map(str, t)) if t else "-")
            for d, b, t in summary.groups] or [("trivial", "", "")]


def _summand_payload(summands: Sequence[SplitSummand]) -> list[dict]:
    return [{"I": list(s.subset), "description": s.description,
             "homology": s.homology.to_entries()} for s in summands]


def _series_payload(series: RationalSeries, trunc: int) -> dict:
    return {"num": list(series.num), "den": list(series.den),
            "expansion": list(series.expansion(trunc))}


def _resolve_pairs(specs: Sequence[str] | None, m: int):
    if not specs:
        raise InputError("at least one --pair specification is required")
    pairs = [parse_pair_spec(s) for s in specs]
    if len(pairs) == 1 and m != 1:
        pairs = pairs * m
    if len(pairs) != m:
        raise InputError(
            f"{len(pairs)} pair specs for m = {m} vertices (give one, or one per vertex)")
    return pairs


def _emit_splitting(args, result: SplittingResult) -> int:
    verdict = "VERIFIED" if result.verified else "MISMATCH"
    payload = {
        "summands": _summand_payload(result.summands),
        "total": result.total.to_entries(),
        "oracle": result.oracle.to_entries(),
        "verified": result.verified,
        "verdict": verdict,
    }
    rows = [("{" + ",".join(map(str, s.subset)) + "}", str(s.homology))
            for s in result.summands]
    rows.append(("verdict", verdict))
    _emit(args, payload, rows)
    return EXIT_OK if result.verified else EXIT_MISMATCH


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        # argparse would name this function in its message
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _with_job_map(jobs: int, fn: Callable, streamed: bool = False):
    """fn(job_map) on a pool, or fn(None) for one worker.  pool.map lists its
    items before it sends any; streamed uses pool.imap_unordered, which does not."""
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        with Pool(workers) as pool:
            return fn(pool.imap_unordered if streamed else pool.map)
    return fn(None)


def _diagnostic_entries(diagnostics) -> list[dict]:
    return [{"kind": d.kind, "message": d.message,
             "face": list(d.face) if d.face is not None else None,
             "vertex": d.vertex}
            for d in diagnostics]


# -- command handlers -----------------------------------------------------------

def _cmd_validate(args) -> int:
    k = load_complex(args.complex)
    diagnostics = validate(k, strict=args.strict)
    payload = {
        "ok": not diagnostics,
        "m": k.m,
        "f_vector": list(k.f_vector()) if k.dim() >= 0 else [],
        "diagnostics": _diagnostic_entries(diagnostics),
    }
    rows = [(d.kind, d.message) for d in diagnostics] or [("ok", "no findings")]
    _emit(args, payload, rows)
    return EXIT_OK if not diagnostics else EXIT_INPUT


def _cmd_homology(args) -> int:
    k = load_complex(args.complex)
    pairs = _resolve_pairs(args.pair, k.m)
    if args.smash:
        chain = smash_moment_angle_chain(k, pairs, args.budget)
        cells, summary = chain.total_cells(), homology(chain)
    else:
        # H(Z) block by block, each reduced as it is built and then dropped;
        # block 0 is the basepoint cell, the Z in degree 0
        cells, parts = 0, []
        for mask, block in moment_angle_blocks(k, pairs, args.budget):
            cells += block.total_cells()
            if mask or not args.reduced:
                parts.append(homology(block))
        summary = direct_sum(parts)
    payload = {
        "smash": bool(args.smash),
        "reduced": bool(args.reduced or args.smash),
        "cells": cells,
        "homology": summary.to_entries(),
        "betti": list(summary.betti_vector(0)),
    }
    _emit(args, payload, _homology_rows(summary))
    return EXIT_OK


def _cmd_split(args) -> int:
    k = load_complex(args.complex)
    pairs = _resolve_pairs(args.pair, k.m)
    result = _with_job_map(
        args.jobs,
        lambda jm: stable_splitting(k, pairs, args.budget, job_map=jm), streamed=True)
    return _emit_splitting(args, result)


def _cmd_hochster(args) -> int:
    k = load_complex(args.complex)
    total, summands = _with_job_map(
        args.jobs, lambda jm: hochster_homology(k, args.n, job_map=jm))
    payload = {
        "n": args.n,
        "summands": _summand_payload(summands),
        "total": total.to_entries(),
    }
    _emit(args, payload, _homology_rows(total))
    return EXIT_OK


def _cmd_wedge_lemma(args) -> int:
    k = load_complex(args.complex)
    pairs = _resolve_pairs(args.pair, k.m)
    return _emit_splitting(args, wedge_lemma_decomposition(k, pairs, args.budget))


def _cmd_porter(args) -> int:
    if args.y_dims is not None:
        try:
            dims = tuple(int(tok) for tok in args.y_dims.split(","))
        except ValueError:
            raise InputError("--y-dims must be a comma-separated integer list") from None
    else:
        dims = (args.n,) * args.m
    wedge = porter_decomposition(args.m, args.q, dims)
    spheres = [(d, betti) for d, betti, _ in wedge.groups]
    payload = {
        "m": args.m, "q": args.q, "y_dims": list(dims),
        "spheres": [{"dimension": d, "multiplicity": c} for d, c in spheres],
    }
    _emit(args, payload, spheres or [("empty", "wedge")])
    return EXIT_OK


def _cmd_poincare(args) -> int:
    k = load_complex(args.complex)
    series = poincare_polynomial(k, RationalSeries.monomial(args.n))
    payload = {"n": args.n, "series": _series_payload(series, args.trunc)}
    rows = list(enumerate(series.expansion(args.trunc)))
    _emit(args, payload, rows)
    return EXIT_OK


def _cmd_sr(args) -> int:
    k = load_complex(args.complex)
    presentation = sr_presentation(k, args.degree)
    series = sr_hilbert_series(k, args.degree)
    payload = {
        "generators": {"count": k.m, "degree": args.degree},
        "relations": [list(rel) for rel in presentation.relations],
        "relation_monomials": list(presentation.relation_strings()),
        "series": _series_payload(series, args.trunc),
    }
    rows = list(enumerate(series.expansion(args.trunc)))
    _emit(args, payload, rows)
    return EXIT_OK


def _cmd_dj_check(args) -> int:
    k = load_complex(args.complex)
    comparison = dj_additive_check(k, args.degree, args.trunc)
    payload = {
        "equal": comparison.equal,
        "ring_side": list(comparison.ring_side),
        "wedge_side": list(comparison.wedge_side),
        "mismatches": [list(t) for t in comparison.mismatches],
    }
    rows = [(d, a, b) for d, (a, b) in
            enumerate(zip(comparison.ring_side, comparison.wedge_side))]
    rows.append(("verdict", "EQUAL" if comparison.equal else "MISMATCH", ""))
    _emit(args, payload, rows)
    return EXIT_OK if comparison.equal else EXIT_MISMATCH


def _cmd_toric(args) -> int:
    k = load_complex(args.complex)
    lam = load_characteristic(args.matrix)
    diagnostics = validate_characteristic(k, lam)
    if diagnostics:
        payload = {
            "valid": False,
            "diagnostics": _diagnostic_entries(diagnostics),
        }
        _emit(args, payload, [(d.kind, d.message) for d in diagnostics])
        return EXIT_INPUT
    report = toric_betti(k, lam.n)
    presentation = toric_presentation(k, lam)
    basis = kernel_lattice_basis(lam)
    payload = {
        "valid": True,
        "betti": list(report.betti),
        "euler": report.euler,
        "h_vector": list(report.h_vector),
        "relations": [list(r) for r in presentation.ideal.relations],
        "relation_monomials": list(presentation.ideal.relation_strings()),
        "linear_relations": [list(c) for c in presentation.linear_relations],
        "linear_display": list(presentation.display_relations),
        "kernel_rank": len(basis),
        "kernel_basis": [list(v) for v in basis],
    }
    rows = [("betti", " ".join(map(str, report.betti))),
            ("euler", report.euler),
            ("kernel_rank", len(basis))]
    rows.extend(("relation", s) for s in presentation.ideal.relation_strings())
    rows.extend(("linear", s) for s in presentation.display_relations)
    _emit(args, payload, rows)
    return EXIT_OK


def _cmd_shifted(args) -> int:
    k = load_complex(args.complex)
    verdict = k.is_shifted()
    payload = {
        "shifted": verdict.shifted,
        "labeling": list(verdict.labeling) if verdict.labeling else None,
        "counterexample": (list(verdict.counterexample)
                           if verdict.counterexample else None),
    }
    rows = [("shifted", verdict.shifted)]
    if verdict.shifted and args.n is not None:
        wedge = sphere_wedge_report(k, args.n, labeling=verdict.labeling)
        spheres = [(d, betti) for d, betti, _ in wedge.groups]
        payload["n"] = args.n
        payload["spheres"] = [{"dimension": d, "multiplicity": c} for d, c in spheres]
        rows.extend(spheres)
    _emit(args, payload, rows)
    return EXIT_OK


# -- parser ----------------------------------------------------------------------

def build_parser() -> _Parser:
    fmt_parent = _Parser(add_help=False)
    group = fmt_parent.add_mutually_exclusive_group()
    group.add_argument("--json", dest="format", action="store_const",
                       const="json", default="json",
                       help="JSON output (default)")
    group.add_argument("--tsv", dest="format", action="store_const",
                       const="tsv", help="tab-separated output")

    parser = _Parser(
        prog="polyprod",
        description="Exact homology and series invariants of polyhedral products.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, *, complex_arg: bool = True,
            pairs: bool = False, jobs: bool = False, budget: bool = False,
            trunc: bool = False, degree: bool = False):
        p = sub.add_parser(name, parents=[fmt_parent], help=help_text)
        if complex_arg:
            p.add_argument("complex", help="complex file (directive text or JSON)")
        if pairs:
            p.add_argument("--pair", action="append", metavar="SPEC",
                           help="disk-sphere:N | cone:FILE:V | based:FILE:V "
                                "(one spec broadcasts to all vertices)")
        if jobs:
            p.add_argument("--jobs", type=_positive_int, default=1,
                           help="worker processes for per-subset computations "
                                "(at most one per CPU)")
        if budget:
            p.add_argument("--budget", type=_positive_int, default=DEFAULT_CELL_BUDGET,
                           help="maximum tensor-basis cells")
        if trunc:
            p.add_argument("--trunc", type=int, default=32,
                           help="series expansion order")
        if degree:
            p.add_argument("--degree", type=int, default=2,
                           help="generator degree (default 2)")
        p.set_defaults(handler=handler)
        return p

    p = add("validate", _cmd_validate, "check complex invariants")
    p.add_argument("--strict", action="store_true",
                   help="also reject vertices lying in no face")

    p = add("homology", _cmd_homology,
            "homology of the polyhedral product", pairs=True, budget=True)
    p.add_argument("--smash", action="store_true",
                   help="smash form (reduced homology of the quotient)")
    p.add_argument("--reduced", action="store_true",
                   help="reduced homology of the full product")

    add("split", _cmd_split,
        "compare the full product against its subset decomposition",
        pairs=True, jobs=True, budget=True)

    p = add("hochster", _cmd_hochster,
            "homology via the full-subcomplex formula for (D^{n+1},S^n)",
            jobs=True)
    p.add_argument("--n", type=int, default=1, help="sphere dimension")

    add("wedge-lemma", _cmd_wedge_lemma,
        "per-face join decomposition for certified pairs",
        pairs=True, budget=True)

    p = add("porter", _cmd_porter,
            "sphere wedge over a skeleton of the simplex", complex_arg=False)
    p.add_argument("m", type=int, help="number of vertices")
    p.add_argument("--q", type=int, required=True, help="skeleton dimension")
    p.add_argument("--n", type=int, default=1,
                   help="uniform sphere dimension (default 1)")
    p.add_argument("--y-dims", help="comma-separated per-vertex sphere dimensions")

    p = add("poincare", _cmd_poincare,
            "reduced Poincare series of the product with one sphere family",
            trunc=True)
    # S^0 has a nonzero reduced series in degree 0, which the formula refuses
    p.add_argument("--n", type=_positive_int, required=True,
                   help="sphere dimension of X (at least 1)")

    add("sr", _cmd_sr, "face-ring presentation and Hilbert series",
        trunc=True, degree=True)

    add("dj-check", _cmd_dj_check,
        "two-route comparison of the face-ring Hilbert function",
        trunc=True, degree=True)

    p = add("toric", _cmd_toric,
            "characteristic-matrix validation, Betti numbers, presentation")
    p.add_argument("matrix", help="matrix file (whitespace rows or JSON)")

    p = add("shifted", _cmd_shifted, "shiftedness search and sphere wedge")
    p.add_argument("--n", type=int,
                   help="also report the sphere wedge for (D^{n+1},S^n)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except PolyprodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
