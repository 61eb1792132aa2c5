"""Spans and counters around perturb's functions, recorded from outside the package.

For a traced phase each function below is replaced in every perturb module
namespace that binds it, which is where the program looks it up:
``rs_solver.hermitian_eig`` and ``experiments.hermitian_eig`` are one function
bound twice, and both bindings are wrapped. Spans are kept in memory as
``[name, start, end, parent]`` and written out when the run ends. A function
missing from its home module is reported absent rather than failing the run.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# (span name, home module, function names in that module)
SPANS = [
    ("rs_solver.solve", "rs_solver", ("solve",)),
    ("rs_solver.partition", "rs_solver", ("partition",)),
    ("rs_solver.contraction_certificate", "rs_solver", ("contraction_certificate",)),
    ("rs_solver.solve_q", "rs_solver", ("solve_q",)),
    ("rs_solver.jacobi_apply_Linv", "rs_solver", ("jacobi_apply_Linv",)),
    ("rs_solver.assemble_eigvec", "rs_solver", ("assemble_eigvec",)),
    ("rs_solver.verify_solution", "rs_solver", ("verify_solution",)),
    ("rs_solver.verify_shifted_domination", "rs_solver", ("verify_shifted_domination",)),
    ("matcore.hermitian_eig", "matcore", ("hermitian_eig",)),
    ("matcore.operator_norm_exact", "matcore", ("operator_norm_exact",)),
    ("bounds.opnorm_pp_upper", "bounds", ("opnorm_pp_upper",)),
    ("bounds.opnorm_lower", "bounds", ("opnorm_lower",)),
    ("arrowhead.solve_gamma", "arrowhead", ("solve_gamma",)),
    ("ensembles.sample", "ensembles", (
        "sample_goe", "sample_gue", "sample_subgaussian_hermitian",
        "sample_arrowhead_noise", "sample_inconsistency_instance",
    )),
    ("experiments.summarize", "experiments", ("summarize",)),
    ("experiments.export_records", "experiments", ("export_records",)),
    ("cli.main", "cli", ("main",)),
]

# Counted but not timed: lp_norm runs once per matrix column inside
# opnorm_lower, where a span per call would cost more than the call itself.
# Only calls made through the bounds namespace are counted.
COUNTERS = [("bounds.lp_norm", "bounds", "lp_norm")]

# Fields of the report solve returns that the per-layer metrics read.
REPORT_FIELDS = {"outer_iters": "outer_iters", "inner_iters": "inner_iters_total"}


class Tracer:
    """Wraps perturb's functions while installed and keeps what the wrappers saw."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.solve_reports: list[dict] = []
        self.absent: list[str] = []
        self.kind_spans: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap SPANS, COUNTERS and the experiment kinds in the given perturb modules.

        ``modules`` maps short names ("rs_solver", ...) to module objects. A
        kind missing from ``experiments.EXPERIMENT_KINDS`` is absent too.
        """
        bindings = []
        for name, home, attrs in SPANS:
            found = [getattr(modules.get(home), a, None) for a in attrs]
            found = [f for f in found if callable(f)]
            if not found:
                self.absent.append(name)
            for fn in found:
                for mod in modules.values():
                    for attr, value in vars(mod).items():
                        if value is fn:
                            bindings.append((mod, attr, self._span(name, fn)))
        for name, home, attr in COUNTERS:
            fn = getattr(modules.get(home), attr, None)
            if callable(fn):
                bindings.append((modules[home], attr, self._counter(name, fn)))
            else:
                self.absent.append(name)
        for mod, attr, wrapper in bindings:
            self._undo.append((vars(mod), attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)
        kinds = getattr(modules.get("experiments"), "EXPERIMENT_KINDS", {})
        for kind, handler in list(kinds.items()):
            self._undo.append((kinds, kind, handler))
            kinds[kind] = self._span(f"experiments.{kind}", handler)
            self.kind_spans.add(f"experiments.{kind}")

    def remove(self) -> None:
        for namespace, key, original in reversed(self._undo):
            namespace[key] = original
        self._undo.clear()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        keep_report = name == "rs_solver.solve"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if keep_report:
                self.solve_reports.append({
                    key: getattr(result, attr, None) for key, attr in REPORT_FIELDS.items()
                } | {"method": getattr(result, "method", None)})
            return result

        return traced

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- summaries --------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: ``{"count", "inclusive_s", "self_s"}``.

        Self time is a span's duration minus the durations of its direct
        children; one thread runs them, so children never overlap.
        """
        child_s = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = defaultdict(lambda: {"count": 0, "inclusive_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["count"] += 1
            entry["inclusive_s"] += end - start
            entry["self_s"] += end - start - child_s[index]
        return dict(out)

    def layer_metrics(self, names: list[str], ops: int) -> tuple[dict, list[str]]:
        """Per-layer metric values per operation, and the names reported absent.

        Suffixes: ``.self_s`` self time and ``.calls`` call count, each divided
        by ``ops``; ``.trial_s`` mean inclusive time of one span; and for
        ``rs_solver.solve``, ``.outer_iters``, ``.inner_iters`` and
        ``.fallbacks`` summed from the reports and divided by ``ops``.
        """
        totals = self.totals()
        values, absent = {}, []
        for metric in names:
            span, _, suffix = metric.rpartition(".")
            if span in self.absent or (suffix == "trial_s" and span not in self.kind_spans):
                values[metric] = 0.0
                absent.append(metric)
                continue
            entry = totals.get(span, {"count": 0, "inclusive_s": 0.0, "self_s": 0.0})
            if suffix == "self_s":
                values[metric] = entry["self_s"] / ops
            elif suffix == "calls":
                values[metric] = (self.calls[span] if span in self.calls else entry["count"]) / ops
            elif suffix == "trial_s":
                values[metric] = entry["inclusive_s"] / entry["count"] if entry["count"] else 0.0
            elif suffix == "fallbacks":
                values[metric] = sum(r["method"] == "oracle-fallback" for r in self.solve_reports) / ops
            elif suffix in REPORT_FIELDS:
                counts = [r[suffix] for r in self.solve_reports]
                if any(c is None for c in counts):
                    values[metric] = 0.0
                    absent.append(metric)
                else:
                    values[metric] = sum(counts) / ops
            else:
                raise ValueError(f"no rule for per-layer metric {metric!r}")
        return values, absent
