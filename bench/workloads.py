"""The three seeded workloads: inputs, jobs and their independent checks.

Every input has a fixed shape (vertex count, f-vector, edge count,
denominator).  The run's seed relabels the vertices of the split cycles and
of the Hochster graph, and assigns the series exponents to vertices, so each
seed does the same algebraic work on different labeled inputs.

The complexes of the product-homology jobs are fixed draws from BASE_SEED
and are not relabeled: elimination visits cells in an order that follows the
vertex labels, so their cost depends on the labeling.  Relabeling one
(C RP2, RP2) complex moved its homology between 2.4 s and 3.5 s, and drawing
a new complex per seed moved it between 1.4 s and 5.3 s (one shared 2-CPU
x86-64 machine, Python 3.11); a per-seed bound on the round time cannot hold
against that.

A job is (name, run, check, digest): `run` is the timed call into polyprod,
`digest` turns its result into plain data outside the timed region, and
`check` compares that data with an independent route (one that does not
build the product's chain complex, or a count written out here), returning
an error message or None.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

BASE_SEED = 7114689

# Complexes on m = 1..5 vertices up to isomorphism, unused vertices allowed:
# OEIS A003182(m) - 1, the count polyprod.catalog.all_complexes_on returns.
ENUMERATION_COUNTS = (2, 4, 9, 29, 209)

# polyprod.catalog.standard_pair_library(): (D2,S1), (D1,S0), (S2,pt), (C RP2, RP2)
PAIR_LIBRARY_SIZE = 4

# Pair models by CLI spec: dimensions of the cells in A, and of the cells of
# X not in A.  Written out here so the cell and Euler counts do not come
# from the program.
DISK_SPHERE_CELLS = {
    0: ((0, 0), (1,)),
    1: ((0, 1), (2,)),
}

SIZES = {
    "full": {
        "big-product": {"homology": ((10, 60, 0), (12, 110, 1)), "cycle": 9},
        "torsion": {"m": 6, "triangles": 10, "complexes": 2, "cycle": 6},
        "sweep": {"enumerate_m": 5, "split_m": 4, "graph": (13, 19),
                  "exponents": (1, 1, 1, 2, 2, 2, 3, 3, 3), "order": 40},
    },
    # a seconds-long version of each workload, for the benchmark's own tests
    "small": {
        "big-product": {"homology": ((6, 8, 0), (7, 14, 1)), "cycle": 5},
        "torsion": {"m": 5, "triangles": 4, "complexes": 2, "cycle": 4},
        "sweep": {"enumerate_m": 4, "split_m": 3, "graph": (8, 10),
                  "exponents": (1, 2, 3, 1, 2), "order": 20},
    },
}

WORKLOADS = ("big-product", "torsion", "sweep")


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    digest: Callable[[Any], Any] = lambda out: out


# -- generation (benchmark-only code, no polyprod) -----------------------------


def _permutation(rng: random.Random, m: int) -> list[int]:
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    return perm


def _relabel(faces, perm) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(perm[v - 1] for v in f)) for f in faces)


def _base_rng(label: str) -> random.Random:
    return random.Random(f"{BASE_SEED}:{label}")


def _complete_graph(m: int) -> list[tuple[int, ...]]:
    return list(combinations(range(1, m + 1), 2))


def _cycle(m: int) -> list[tuple[int, ...]]:
    return [(i, i + 1) for i in range(1, m)] + [(1, m)]


def _closure(m: int, maximal) -> list[int]:
    """Every face of the complex spanned by `maximal`, as bitmasks."""
    faces = {0}
    for face in maximal:
        top = 0
        for v in face:
            top |= 1 << (v - 1)
        sub = top
        while sub:
            faces.add(sub)
            sub = (sub - 1) & top
    return sorted(faces)


def _write_complex(path: Path, m: int, faces) -> None:
    lines = [f"m {m}"] + ["face " + " ".join(map(str, f)) for f in faces]
    path.write_text("\n".join(lines) + "\n")


def generate(workload: str, seed: int, size: str) -> dict:
    """Plain-data inputs of one workload; the same seed gives the same inputs."""
    spec = SIZES[size][workload]
    rng = random.Random(seed)
    if workload == "big-product":
        complexes = []
        for m, triangles, n in spec["homology"]:
            base = _base_rng(f"big-product:{m}:{triangles}")
            faces = _complete_graph(m) + base.sample(
                list(combinations(range(1, m + 1), 3)), triangles)
            complexes.append((m, n, sorted(faces)))
        c = spec["cycle"]
        return {"complexes": complexes,
                "cycle": (c, _relabel(_cycle(c), _permutation(rng, c)))}
    if workload == "torsion":
        m = spec["m"]
        complexes = []
        for idx in range(spec["complexes"]):
            base = _base_rng(f"torsion:{m}:{idx}")
            faces = _complete_graph(m) + base.sample(
                list(combinations(range(1, m + 1), 3)), spec["triangles"])
            complexes.append(sorted(faces))
        c = spec["cycle"]
        return {"m": m, "complexes": complexes,
                "cycle": (c, _relabel(_cycle(c), _permutation(rng, c)))}
    if workload == "sweep":
        m, edges = spec["graph"]
        base = _base_rng(f"sweep:graph:{m}:{edges}")
        graph = base.sample(_complete_graph(m), edges)
        graph = [(v,) for v in range(1, m + 1)] + _relabel(graph, _permutation(rng, m))
        exponents = list(spec["exponents"])
        rng.shuffle(exponents)
        return {"enumerate_m": spec["enumerate_m"], "split_m": spec["split_m"],
                "graph": (m, graph), "exponents": tuple(exponents),
                "order": spec["order"]}
    raise ValueError(f"unknown workload {workload!r}")


# -- shared helpers ----------------------------------------------------------


def run_cli(lib, argv: list[str]) -> tuple[int, str, str]:
    """polyprod.cli.main in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _cli_error(out) -> str | None:
    code, _, err = out
    return f"exit code {code}: {err.strip()[:200]}" if code != 0 else None


def _prime_powers(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        q = 1
        while n % p == 0:
            q *= p
            n //= p
        if q > 1:
            out.append(q)
        p += 1
    if n > 1:
        out.append(n)
    return out


def _group(entries) -> dict[int, tuple[int, tuple[int, ...]]]:
    """(degree, betti, torsion orders) triples -> canonical map for comparison."""
    acc: dict[int, tuple[int, list[int]]] = {}
    for deg, betti, orders in entries:
        b, tors = acc.get(deg, (0, []))
        acc[deg] = (b + betti, tors + [q for o in orders for q in _prime_powers(abs(o))])
    return {d: (b, tuple(sorted(t))) for d, (b, t) in acc.items() if b or t}


def _json_groups(entries: list[dict]):
    return [(e["degree"], e["betti"], e["torsion"]) for e in entries]


def _without_point(groups: dict) -> dict:
    """Unreduced -> reduced: remove one Z from degree 0."""
    out = dict(groups)
    b, t = out.get(0, (0, ()))
    if b < 1:
        raise ValueError("no free class in degree 0")
    out[0] = (b - 1, t)
    return {d: v for d, v in out.items() if v[0] or v[1]}


def _diff(name: str, got, expected) -> str | None:
    return None if got == expected else f"{name}: got {got}, expected {expected}"


# -- big-product ----------------------------------------------------------------


def _homology_check(lib, m: int, n: int, faces):
    def check(out) -> str | None:
        if _cli_error(out):
            return _cli_error(out)
        # cells and Euler characteristic summed face by face: sigma carries
        # the X-only cells at its vertices and the A cells elsewhere
        a_dims, x_dims = DISK_SPHERE_CELLS[n]
        chi_a = sum((-1) ** d for d in a_dims)
        chi_x = sum((-1) ** d for d in x_dims)
        sizes = [s.bit_count() for s in _closure(m, faces)]
        cells = sum(len(x_dims) ** k * len(a_dims) ** (m - k) for k in sizes)
        euler = sum(chi_x ** k * chi_a ** (m - k) for k in sizes)
        data = json.loads(out[1])
        groups = _group(_json_groups(data["homology"]))
        k = lib.complexes.SimplicialComplex.from_maximal_faces(m, faces)
        total, _ = lib.products.hochster_homology(k, n)
        return (_diff("cells", data["cells"], cells)
                or _diff("euler", sum((-1) ** d * b for d, (b, _) in groups.items()), euler)
                or _diff("reduced homology vs full-subcomplex formula",
                         _without_point(groups), _group(total.groups)))
    return check


def _split_check(out) -> str | None:
    return _cli_error(out) or _diff("verdict", json.loads(out[1])["verdict"], "VERIFIED")


def big_product_jobs(lib, inputs: dict, workdir: Path) -> list[Job]:
    jobs = []
    for m, n, faces in inputs["complexes"]:
        path = workdir / f"k{m}.cx"
        _write_complex(path, m, faces)
        argv = ["homology", str(path), "--pair", f"disk-sphere:{n}"]
        jobs.append(Job(f"homology-m{m}-n{n}", lambda argv=argv: run_cli(lib, argv),
                        _homology_check(lib, m, n, faces)))
    c, faces = inputs["cycle"]
    path = workdir / f"cycle{c}.cx"
    _write_complex(path, c, faces)
    argv = ["split", str(path), "--pair", "disk-sphere:1"]
    jobs.append(Job(f"split-cycle{c}", lambda: run_cli(lib, argv), _split_check))
    return jobs


# -- torsion ----------------------------------------------------------------------


def _torsion_check(lib, k, m: int):
    def check(groups) -> str | None:
        expected: list = []
        for mask in range(1, 1 << m):
            verts = [v + 1 for v in range(m) if mask >> v & 1]
            sub = k.full_subcomplex(verts)
            summary = lib.products.contractible_X_summary(
                sub, [lib.pairs.rp2_space()] * len(verts))
            expected.extend(summary.groups)
        return _diff("reduced homology vs join model",
                     _without_point(_group(groups)), _group(expected))
    return check


def _splitting_digest(res):
    return res.verified, res.total.groups, res.oracle.groups


def _splitting_check(out) -> str | None:
    verified, total, oracle = out
    return _diff("splitting verified", verified, True) or _diff("total", total, oracle)


def torsion_jobs(lib, inputs: dict, workdir: Path) -> list[Job]:
    m = inputs["m"]
    pairs = [lib.pairs.rp2_pair()] * m
    jobs = []
    for idx, faces in enumerate(inputs["complexes"]):
        _write_complex(workdir / f"torsion{idx}.cx", m, faces)
        k = lib.files.load_complex(workdir / f"torsion{idx}.cx")
        jobs.append(Job(
            f"homology-rp2-{idx}",
            lambda k=k: lib.homology.homology(lib.products.moment_angle_chain(k, pairs)),
            _torsion_check(lib, k, m), lambda summary: summary.groups))
    c, faces = inputs["cycle"]
    _write_complex(workdir / f"cycle{c}.cx", c, faces)
    cycle = lib.files.load_complex(workdir / f"cycle{c}.cx")
    cycle_pairs = [lib.pairs.rp2_pair()] * c
    jobs.append(Job(f"split-rp2-cycle{c}",
                    lambda: lib.products.stable_splitting(cycle, cycle_pairs),
                    _splitting_check, _splitting_digest))
    return jobs


# -- sweep --------------------------------------------------------------------------


def _graph_hochster(m: int, faces, n: int) -> dict:
    """H-tilde of Z(K;(D^{n+1},S^n)) for a graph K from union-find counts over
    its full subgraphs: H0(K_I) = components - 1, H1(K_I) = edges - |I| +
    components, both shifted up by 1 + n|I|."""
    edges = [(f[0] - 1, f[1] - 1) for f in faces if len(f) == 2]
    betti: dict[int, int] = {}
    for mask in range(1, 1 << m):
        parent = {v: v for v in range(m) if mask >> v & 1}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        inside = 0
        for u, v in edges:
            if mask >> u & 1 and mask >> v & 1:
                inside += 1
                parent[find(u)] = find(v)
        size = len(parent)
        comps = sum(1 for v in parent if parent[v] == v)
        shift = 1 + n * size
        for deg, rank in ((shift, comps - 1), (shift + 1, inside - size + comps)):
            if rank:
                betti[deg] = betti.get(deg, 0) + rank
    return {d: (b, ()) for d, b in betti.items()}


def _truncated_series(exponents, order: int) -> tuple[int, ...]:
    """prod(1 + s_i) - 1 - prod(s_i) through `order`, s_i = t^a_i / (1 - t)."""
    def mul(a, b):
        out = [0] * (order + 1)
        for i, x in enumerate(a):
            if x:
                for j in range(order + 1 - i):
                    out[i + j] += x * b[j]
        return out

    one = [1] + [0] * order
    full, top = one, one
    for a in exponents:
        s = [0] * a + [1] * (order + 1 - a)
        full = mul(full, [x + y for x, y in zip(one, s)])
        top = mul(top, s)
    return tuple(f - o - t for f, o, t in zip(full, one, top))


def sweep_jobs(lib, inputs: dict, workdir: Path) -> list[Job]:
    catalog, products = lib.catalog, lib.products
    top_m, split_m = inputs["enumerate_m"], inputs["split_m"]

    def enumerate_all():
        return [catalog.all_complexes_on(m) for m in range(1, top_m + 1)]

    def enumeration_check(counts) -> str | None:
        return _diff("complex counts", counts, ENUMERATION_COUNTS[:top_m])

    def split_all():
        library = catalog.standard_pair_library()
        return [products.stable_splitting(k, [p] * m)
                for m in range(1, split_m + 1)
                for k in catalog.all_complexes_on(m) for p in library]

    def splittings_check(out) -> str | None:
        expected = PAIR_LIBRARY_SIZE * sum(ENUMERATION_COUNTS[:split_m])
        return (_diff("splittings", len(out), expected)
                or _diff("verified", sum(v for v, _, _ in out), expected)
                or next((f"splitting {i}: total != oracle"
                         for i, (_, total, oracle) in enumerate(out) if total != oracle), None))

    m, graph = inputs["graph"]
    path = workdir / f"graph{m}.cx"
    _write_complex(path, m, graph)
    argv = ["hochster", str(path), "--n", "1"]

    def hochster_check(out) -> str | None:
        if _cli_error(out):
            return _cli_error(out)
        got = _group(_json_groups(json.loads(out[1])["total"]))
        return _diff("hochster total vs union-find", got, _graph_hochster(m, graph, 1))

    exponents, order = inputs["exponents"], inputs["order"]
    boundary = catalog.simplex_boundary(len(exponents))
    x_series = [lib.series.RationalSeries.make((0,) * a + (1,), (1, -1)) for a in exponents]

    def series_check(out) -> str | None:
        return _diff("series expansion", out[2], _truncated_series(exponents, order))

    return [
        Job(f"enumerate-m1..{top_m}", enumerate_all, enumeration_check,
            lambda out: tuple(len(ks) for ks in out)),
        Job(f"splittings-m1..{split_m}", split_all, splittings_check,
            lambda out: [_splitting_digest(r) for r in out]),
        Job(f"hochster-graph{m}", lambda: run_cli(lib, argv), hochster_check),
        Job(f"series-boundary{len(exponents)}",
            lambda: products.contractible_A_series(boundary, x_series),
            series_check, lambda s: (s.num, s.den, s.expansion(order))),
    ]


JOB_BUILDERS = {
    "big-product": big_product_jobs,
    "torsion": torsion_jobs,
    "sweep": sweep_jobs,
}
