"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

Each run is a subprocess on the small input size, so a test takes seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

COUNTS = ("products.cells", "products.nnz", "homology.calls", "homology.memo_calls",
          "homology.memo_hit_ratio", "complexes.full_subcomplex_calls",
          "series.den_degree_max")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(*args: str) -> dict:
    proc = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _declared(kind: str) -> set[str]:
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_passes_every_check(workload):
    res = _result("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--size", "small")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "1",
            "--trace", "1", "--size", "small")
    first, second = _result(*args), _result(*args)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == _declared("per_layer")
    assert all(m["value"] is not None for m in first["metrics"].values())
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_picks_labels_not_sizes(workload):
    assert generate(workload, 1, "full") == generate(workload, 1, "full")
    assert generate(workload, 1, "full") != generate(workload, 2, "full")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_target_reads_null():
    saved = {n: m for n, m in sys.modules.items()
             if n == "polyprod" or n.startswith("polyprod.")}
    for name in saved:
        del sys.modules[name]
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import polyprod.catalog
        del polyprod.catalog.all_complexes_on
        tracer = Tracer()
        tracer.install()
        metrics = tracer.metrics(1.0, 1.0)
        assert metrics["catalog.enumerate_s"] is None
        assert metrics["homology.reduce_s"] == 0.0
    finally:
        sys.path.remove(str(ROOT / "src"))
        for name in [n for n in sys.modules if n == "polyprod" or n.startswith("polyprod.")]:
            del sys.modules[name]
        sys.modules.update(saved)
