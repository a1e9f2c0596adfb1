"""polyprod benchmark: one seeded workload, timed in one process, checked.

    python3 bench/run.py --workload big-product --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; polyprod is imported from ./src.
Jobs run one after another in this single-threaded process (a closed loop
with one client, no --jobs, no pool).  A round is every job of the workload
once, on a freshly imported polyprod so that no cache survives from the
previous round, as it would not survive between two CLI invocations.
Rounds repeat until --seconds is spent; wall_s is the sum over jobs of
each job's median time.  The first round's outputs are checked against
independent routes; later rounds must reproduce them.

--trace 0 reports the end-to-end metrics; --trace 1 adds one traced round
after the untraced ones and reports the per-layer metrics instead.  The last
line of stdout is the result object; the line before it holds the details
(per-job durations, failures, set-up samples, metadata).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from tracer import UNITS, Tracer
from workloads import JOB_BUILDERS, SIZES, WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_REPEATS = 21
MODULES = ("cli", "catalog", "complexes", "files", "homology", "pairs", "products", "series")


def fresh_import() -> SimpleNamespace:
    """Import polyprod anew; its submodules by short name."""
    for name in [n for n in sys.modules if n == "polyprod" or n.startswith("polyprod.")]:
        del sys.modules[name]
    # import_module returns sys.modules["polyprod.<name>"]: the package
    # attribute `homology` is the re-exported function, not the module
    return SimpleNamespace(**{name: importlib.import_module(f"polyprod.{name}")
                              for name in MODULES})


def setup(workload: str, seed: int, size: str, workdir: Path) -> list:
    """Import polyprod, generate the seeded inputs and write them; return the jobs."""
    lib = fresh_import()
    inputs = generate(workload, seed, size)
    return JOB_BUILDERS[workload](lib, inputs, Path(tempfile.mkdtemp(dir=workdir)))


def run_round(jobs, tracer: Tracer | None = None) -> list[tuple[float, object, str | None]]:
    """Run every job once; (seconds, digest or None, error or None) per job."""
    results = []
    for idx, job in enumerate(jobs):
        gc.collect()
        if tracer is not None:
            tracer.job = idx
        start = time.perf_counter()
        try:
            raw, error = job.run(), None
        except Exception as exc:
            raw, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        out = None
        if error is None:
            try:
                out = job.digest(raw)
            except Exception as exc:
                error = f"digest: {type(exc).__name__}: {exc}"
        del raw
        results.append((elapsed, out, error))
    return results


class Ledger:
    """Attempts, failures and per-job durations across all rounds."""

    def __init__(self, jobs) -> None:
        self.reference: list[object] = [None] * len(jobs)
        self.durations: dict[str, list[float]] = {job.name: [] for job in jobs}
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, jobs, results, round_no: int) -> None:
        """Check each job: independently the first time it succeeds, after
        that by equality with the checked output."""
        for idx, (job, (elapsed, out, error)) in enumerate(zip(jobs, results)):
            self.attempted += 1
            self.durations[job.name].append(elapsed)
            if error is None:
                if self.reference[idx] is not None:
                    if out != self.reference[idx]:
                        error = "output differs from the checked output of an earlier round"
                else:
                    try:
                        error = job.check(out)
                    except Exception as exc:
                        error = f"check: {type(exc).__name__}: {exc}"
                    if error is None:
                        self.reference[idx] = out
            if error is not None:
                self.failures.append(f"round {round_no} {job.name}: {error}"[:500])


def metadata(args) -> dict:
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with path.open("rb") as fh:
            src_lines += sum(1 for _ in fh)
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = os.cpu_count()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "nproc": nproc,
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "machine": f"{nproc}-CPU {platform.system()} {platform.machine()}, {cpu}",
        "src_lines": src_lines,
    }


def run(args, workdir: Path) -> dict:
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        jobs = setup(args.workload, args.seed, args.size, workdir)
        setup_samples.append(time.perf_counter() - start)
    ledger = Ledger(jobs)
    round_times: list[float] = []
    loop_start = time.perf_counter()
    while True:
        if round_times:
            jobs = setup(args.workload, args.seed, args.size, workdir)
        round_start = time.perf_counter()
        results = run_round(jobs)
        round_cost = time.perf_counter() - round_start
        round_times.append(sum(r[0] for r in results))
        ledger.record(jobs, results, len(round_times))
        del jobs, results
        gc.collect()
        spent = time.perf_counter() - loop_start
        # leave room for the traced round, which costs about one more round
        reserve = round_cost if args.trace else 0.0
        if spent + round_cost + reserve > args.seconds:
            break
    # per-job medians resist interference that hits one job of a round
    wall_s = sum(statistics.median(ds) for ds in ledger.durations.values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        jobs = setup(args.workload, args.seed, args.size, workdir)
        tracer = Tracer()
        tracer.install()
        results = run_round(jobs, tracer)
        traced_s = sum(r[0] for r in results)
        ledger.record(jobs, results, len(round_times) + 1)
        layer = tracer.metrics(traced_s, wall_s)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in UNITS.items()}
        by_job = tracer.self_time_by_job()
        trace_detail = {"traced_round_s": traced_s, "spans": len(tracer.spans),
                        "installed": sorted(tracer.installed),
                        "count_errors": tracer.count_errors,
                        "self_s_by_job": {jobs[j].name: times for j, times in by_job.items()}}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        }
        trace_detail = None

    failed = len(ledger.failures)
    detail = {
        "metadata": metadata(args),
        "rounds": len(round_times),
        "round_s": round_times,
        "jobs": {name: {"count": len(ds), "seconds": ds} for name, ds in ledger.durations.items()},
        "setup_s_samples": setup_samples,
        "peak_rss_mb": peak_rss_mb,
        "fail_frac": failed / ledger.attempted,
        "failures": ledger.failures,
        "trace": trace_detail,
    }
    print(json.dumps({"detail": detail}))
    return {"correct": failed == 0, "attempted": ledger.attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size; 'small' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "polyprod" / "__init__.py").is_file():
        print(f"error: no polyprod sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
