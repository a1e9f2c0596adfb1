"""Traced run: spans around the public functions of each polyprod layer.

The wrappers are installed from outside the program, on freshly imported
modules, so the program itself carries no instrumentation.  Each span records
its name, start, end, parent span and job id; spans stay in memory and are
reduced to per-layer self times and exact counts when the round ends.
"""

from __future__ import annotations

import functools
import sys
import time

# Span name -> (module, attribute or Class.method).  A span is named after
# the module's short name and the attribute, e.g. "homology.homology".
TARGETS = {
    "cli.main": ("polyprod.cli", "main"),
    "products.moment_angle_chain": ("polyprod.products", "moment_angle_chain"),
    "products.smash_moment_angle_chain": ("polyprod.products", "smash_moment_angle_chain"),
    "products.stable_splitting": ("polyprod.products", "stable_splitting"),
    "products.hochster_homology": ("polyprod.products", "hochster_homology"),
    "products.contractible_A_series": ("polyprod.products", "contractible_A_series"),
    "homology.homology": ("polyprod.homology", "homology"),
    "homology.check_boundaries": ("polyprod.homology", "check_boundaries"),
    "homology.invariant_factors": ("polyprod.homology", "invariant_factors"),
    "homology.quotient_complex": ("polyprod.homology", "quotient_complex"),
    "homology.reduced_simplicial_homology": ("polyprod.homology", "reduced_simplicial_homology"),
    "complexes.full_subcomplex": ("polyprod.complexes", "SimplicialComplex.full_subcomplex"),
    "catalog.all_complexes_on": ("polyprod.catalog", "all_complexes_on"),
    "series.add": ("polyprod.series", "RationalSeries.__add__"),
    "series.mul": ("polyprod.series", "RationalSeries.__mul__"),
    "series.pow": ("polyprod.series", "RationalSeries.__pow__"),
}

# Per-layer time metrics: the sum of the self times of these spans.
SELF_TIME_METRICS = {
    "products.build_s": ("products.moment_angle_chain", "products.smash_moment_angle_chain"),
    "products.decomp_self_s": ("products.stable_splitting", "products.hochster_homology",
                               "products.contractible_A_series"),
    "homology.check_s": ("homology.check_boundaries",),
    "homology.reduce_s": ("homology.homology",),
    "homology.invariant_factors_s": ("homology.invariant_factors",),
    "homology.quotient_s": ("homology.quotient_complex",),
    "complexes.full_subcomplex_s": ("complexes.full_subcomplex",),
    "catalog.enumerate_s": ("catalog.all_complexes_on",),
    "series.arith_s": ("series.add", "series.mul", "series.pow"),
    "cli.self_s": ("cli.main",),
}

# Every per-layer metric, in report order, with its unit.
UNITS = {
    "products.build_s": "s",
    "products.cells": "count",
    "products.nnz": "count",
    "products.decomp_self_s": "s",
    "homology.check_s": "s",
    "homology.reduce_s": "s",
    "homology.invariant_factors_s": "s",
    "homology.quotient_s": "s",
    "homology.calls": "count",
    "homology.memo_calls": "count",
    "homology.memo_hit_ratio": "ratio",
    "complexes.full_subcomplex_s": "s",
    "complexes.full_subcomplex_calls": "count",
    "catalog.enumerate_s": "s",
    "series.arith_s": "s",
    "series.den_degree_max": "count",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}

# Work done by the tracer itself (reading counts off a result); it is a child
# of the span that returned the result, so it never lands in a layer's self time.
_TRACER_SPAN = "tracer.count"


def _chain_counts(chain) -> tuple[int, int]:
    cells = sum(chain.dims.values())
    nnz = sum(len(col) for cols in chain.boundaries.values() for col in cols)
    return cells, nnz


def _den_degree(series) -> int:
    return len(series.den) - 1


class Tracer:
    """Span recorder for one traced round; install() once, then run jobs."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or None, job id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job: int | None = None
        self.installed: set[str] = set()
        self.cells = 0
        self.nnz = 0
        self.den_degree_max = 0
        self.count_errors: dict[str, str] = {}

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name: str, fn, on_result):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    count = self._open(_TRACER_SPAN)
                    try:
                        on_result(result)
                    except Exception as exc:   # a changed result type must not abort the job
                        self.count_errors[name] = f"{type(exc).__name__}: {exc}"
                    finally:
                        self._close(count)
                return result
            finally:
                self._close(idx)
        return functools.update_wrapper(wrapper, fn)

    def _count_chain(self, chain) -> None:
        cells, nnz = _chain_counts(chain)
        self.cells += cells
        self.nnz += nnz

    def _count_series(self, series) -> None:
        self.den_degree_max = max(self.den_degree_max, _den_degree(series))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the currently imported polyprod modules.

        Module-level functions are replaced under every polyprod module
        attribute that is the original object, because `products` and `cli`
        import names directly; methods are replaced on their class.  A target
        that no longer exists is skipped and its metrics read null.
        """
        modules = [mod for name, mod in sys.modules.items()
                   if (name == "polyprod" or name.startswith("polyprod.")) and mod is not None]
        hooks = {
            "products.moment_angle_chain": self._count_chain,
            "products.smash_moment_angle_chain": self._count_chain,
            "products.contractible_A_series": self._count_series,
            "series.add": self._count_series,
            "series.mul": self._count_series,
            "series.pow": self._count_series,
        }
        for span, (modname, qualname) in TARGETS.items():
            # sys.modules, not attribute access: the package re-exports the
            # function `homology` over the submodule of the same name
            module = sys.modules.get(modname)
            if module is None:
                continue
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(attr) if isinstance(owner, type) else None
                if original is None:
                    continue
                setattr(owner, attr, self._wrap(span, original, hooks.get(span)))
            else:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(span, original, hooks.get(span))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
            self.installed.add(span)

    # -- reduction ---------------------------------------------------------

    def _self_times(self) -> list[float]:
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [end - start - child_time[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def self_time_by_job(self) -> dict[int, dict[str, float]]:
        """Self time per span name within each job, for inspection."""
        out: dict[int, dict[str, float]] = {}
        for (name, _, _, _, job), own in zip(self.spans, self._self_times()):
            per_job = out.setdefault(job, {})
            per_job[name] = per_job.get(name, 0.0) + own
        return out

    def metrics(self, round_s: float, untraced_round_s: float) -> dict:
        """Per-layer metrics of the traced round; None where no target was found."""
        has_homology_child = [False] * len(self.spans)
        for name, _, _, parent, _ in self.spans:
            if parent is not None and name == "homology.homology":
                has_homology_child[parent] = True
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        covered = 0.0
        memo_calls = memo_hits = 0
        for i, ((name, start, end, parent, _), own) in enumerate(
                zip(self.spans, self._self_times())):
            self_time[name] = self_time.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            if parent is None:
                covered += end - start
            if name == "homology.reduced_simplicial_homology":
                memo_calls += 1
                memo_hits += not has_homology_child[i]

        def available(*names: str) -> bool:
            return any(n in self.installed for n in names)

        def counted(*names: str) -> bool:
            return available(*names) and not any(n in self.count_errors for n in names)

        out: dict[str, float | int | None] = {}
        for metric, names in SELF_TIME_METRICS.items():
            out[metric] = (sum(self_time.get(n, 0.0) for n in names)
                           if available(*names) else None)
        builds = ("products.moment_angle_chain", "products.smash_moment_angle_chain")
        out["products.cells"] = self.cells if counted(*builds) else None
        out["products.nnz"] = self.nnz if counted(*builds) else None
        out["homology.calls"] = (calls.get("homology.homology", 0)
                                 if available("homology.homology") else None)
        # a lookup is a hit when it ran no homology() of its own
        memo_ok = (available("homology.reduced_simplicial_homology")
                   and available("homology.homology"))
        out["homology.memo_calls"] = memo_calls if memo_ok else None
        # 0 when nothing was looked up; homology.memo_calls is the base
        out["homology.memo_hit_ratio"] = ((memo_hits / memo_calls if memo_calls else 0.0)
                                          if memo_ok else None)
        out["complexes.full_subcomplex_calls"] = (
            calls.get("complexes.full_subcomplex", 0)
            if available("complexes.full_subcomplex") else None)
        series = ("series.add", "series.mul", "series.pow", "products.contractible_A_series")
        out["series.den_degree_max"] = self.den_degree_max if counted(*series) else None
        out["trace.overhead_frac"] = round_s / untraced_round_s - 1.0
        out["trace.coverage_frac"] = covered / round_s if round_s else 0.0
        return out
