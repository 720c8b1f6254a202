"""Spans and counters recorded around ascount's public functions.

The benchmark wraps the functions listed in SPANNED and COUNTED from the
outside; the library itself is not changed.  A wrapped name is rebound in
every ascount module and class that holds the original object, so calls
through `from .x import f` and aliases such as TruncatedSeries.__rmul__
are seen too.  Spans (name, start, end, parent) are kept in flat arrays
in memory and written out when the run ends.  Everything runs on one
thread, so self time comes from a single span stack.

LAYER_METRICS lists every per-layer metric with the end-to-end metric
and workload it should move.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# metric prefix -> (layer module, attribute path, should move)
_CLI = "wall_s on global-series (JSON of big integers)"
_DIRICHLET = ("wall_s, cpu_s, peak_rss_mb on global-series; wall_s on "
              "local-analytic; flat on oracle")
_COMPOSITIONS = "wall_s on global-series and local-analytic"
_COUNTING = "wall_s and ok_frac on oracle"
_ARTIN = "wall_s on oracle only"
_FIELDS = "wall_s on oracle"
_ASYMPTOTICS = "wall_s on local-analytic"

SPANNED = {
    "cli.main": ("cli", "main", _CLI),
    "global_dirichlet": ("dirichlet", "global_dirichlet", _DIRICHLET),
    "global_factor_series": ("dirichlet", "global_factor_series", _DIRICHLET),
    "powered_place_factor": ("dirichlet", "powered_place_factor", _DIRICHLET),
    "euler_factor_series": ("dirichlet", "euler_factor_series", _DIRICHLET),
    "TruncatedSeries.mul": ("dirichlet", "TruncatedSeries.__mul__", _DIRICHLET),
    "TruncatedSeries.pow": ("dirichlet", "TruncatedSeries.__pow__", _DIRICHLET),
    "local_rational": ("dirichlet", "local_rational", _DIRICHLET),
    "RationalSeries.series": ("dirichlet", "RationalSeries.series", _DIRICHLET),
    "psi_polynomial": ("dirichlet", "psi_polynomial", _DIRICHLET),
    "psi_closed_form": ("dirichlet", "psi_closed_form", _DIRICHLET),
    "enumerate_chains": ("compositions", "enumerate_chains", _COMPOSITIONS),
    "chain_term_count": ("compositions", "chain_term_count", _COMPOSITIONS),
    "factor_coefficient": ("counting", "factor_coefficient", _COMPOSITIONS),
    "global_count": ("counting", "global_count", _COUNTING),
    "global_count_by_degree": ("counting", "global_count_by_degree", _COUNTING),
    "effective_divisors": ("counting", "effective_divisors", _COUNTING),
    "enumerate_global": ("counting", "enumerate_global", _COUNTING),
    "candidate_vectors": ("counting", "candidate_vectors", _COUNTING),
    "enumerate_local": ("counting", "enumerate_local", _COUNTING),
    "local_count": ("counting", "local_count", _COUNTING),
    "line_reps": ("artin_schreier", "line_reps", _ARTIN),
    "make_rep": ("artin_schreier", "make_rep", _ARTIN),
    "rep_scale": ("artin_schreier", "rep_scale", _ARTIN),
    "disc_exponent_via_lines": ("artin_schreier", "disc_exponent_via_lines",
                                _ARTIN),
    "chain_at_place": ("artin_schreier", "chain_at_place", _ARTIN),
    "residue_field": ("fields", "residue_field", _FIELDS),
    "irreducibles": ("fields", "irreducibles", _FIELDS),
    "local_leading_constants": ("asymptotics", "local_leading_constants",
                                _ASYMPTOTICS),
    "main_term_fit": ("asymptotics", "main_term_fit", _ASYMPTOTICS),
    "verify_inequalities": ("asymptotics", "verify_inequalities", _ASYMPTOTICS),
    "local_pole_catalog": ("asymptotics", "local_pole_catalog", _ASYMPTOTICS),
    "global_pole_catalog": ("asymptotics", "global_pole_catalog", _ASYMPTOTICS),
    "report_json": ("asymptotics", "report_json", _ASYMPTOTICS),
}

# counted without a span: cheap, very frequent or both
COUNTED = {
    "delsarte_weight": ("compositions", "delsarte_weight", _COMPOSITIONS),
    "rep_add": ("artin_schreier", "rep_add", _ARTIN),
    "place_count": ("fields", "place_count", _FIELDS),
    "finite_place": ("fields", "finite_place", _FIELDS),
}

# called by the workloads or by cli.main directly: also report inclusive X.s
ENTRY_POINTS = ("cli.main", "global_dirichlet", "local_rational",
                "psi_polynomial", "psi_closed_form", "global_count_by_degree",
                "enumerate_global", "enumerate_local", "local_count",
                "verify_inequalities", "report_json")

# results kept for dirichlet.coef_max_bits, measured after the run
_COEFFICIENT_SOURCES = ("global_dirichlet", "global_factor_series",
                        "RationalSeries.series", "psi_polynomial",
                        "psi_closed_form")

_EXTRA = (
    ("cli.self_s", "s", "lower", "cli", _CLI),
    ("dirichlet.coef_max_bits", "count", "lower", "dirichlet", _DIRICHLET),
    ("enumerate_chains.chains", "count", "lower", "compositions", _COMPOSITIONS),
    ("enumerate_chains.distinct_ratio", "ratio", "higher", "compositions",
     _COMPOSITIONS),
    ("factor_coefficient.distinct_ratio", "ratio", "higher", "counting",
     _COMPOSITIONS),
    ("effective_divisors.divisors", "count", "lower", "counting", _COUNTING),
    ("enumerate_global.useful_ratio", "ratio", "higher", "counting", _COUNTING),
    ("candidate_vectors.vectors", "count", "lower", "counting", _COUNTING),
    ("line_reps.rejected", "count", "lower", "artin_schreier", _ARTIN),
    ("import.ascount.cli.s", "s", "lower", "import", "setup_s on every workload"),
    ("import.numpy.s", "s", "lower", "import", "setup_s on every workload"),
    ("import.mpmath.s", "s", "lower", "import", "setup_s on every workload"),
    ("trace.overhead_s", "s", "lower", "tracing", "none; it is reported"),
)


def _layer_metrics() -> list:
    rows = []
    for name, (module, _path, moves) in SPANNED.items():
        if name in ENTRY_POINTS:
            rows.append((f"{name}.s", "s", "lower", module, moves))
        if name != "cli.main":
            rows.append((f"{name}.calls", "count", "lower", module, moves))
            rows.append((f"{name}.self_s", "s", "lower", module, moves))
    for name, (module, _path, moves) in COUNTED.items():
        rows.append((f"{name}.calls", "count", "lower", module, moves))
    rows.extend(_EXTRA)
    return rows


# (metric, unit, better, layer, should move)
LAYER_METRICS = _layer_metrics()


def _bits(value) -> int:
    num = getattr(value, "numerator", value)
    den = getattr(value, "denominator", 1)
    return max(abs(num).bit_length(), den.bit_length())


class Tracer:
    """Wraps the listed functions of an imported ascount and records spans."""

    def __init__(self):
        self.names = list(SPANNED)
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.calls = dict.fromkeys(COUNTED, 0)
        self.raised = dict.fromkeys(SPANNED, 0)
        self.chain_args = set()
        self.chains = 0
        self.factor_args = set()
        self.divisors = 0
        self.vectors = 0
        self.tallied = 0
        self.kept = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "ascount" or name.startswith("ascount.")]
        observers = {
            "enumerate_chains": self._observe_chains,
            "factor_coefficient": self._observe_factor,
            "effective_divisors": self._observe_divisors,
            "candidate_vectors": self._observe_vectors,
            "enumerate_global": self._observe_tally,
        }
        for name_id, (name, (module, path, _)) in enumerate(SPANNED.items()):
            original = _lookup(module, path)
            keep = name in _COEFFICIENT_SOURCES
            wrapper = self._span(name_id, original, observers.get(name), keep)
            _rebind(modules, original, wrapper)
        for name, (module, path, _) in COUNTED.items():
            original = _lookup(module, path)
            _rebind(modules, original, self._counter(name, original))

    def _span(self, name_id, fn, observe, keep):
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, perf, raised = self.stack, time.perf_counter, self.raised
        kept, name = self.kept, self.names[name_id]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = perf()
                start[idx] = t0
                stack.pop()
                raised[name] += 1
                raise
            end[idx] = perf()
            start[idx] = t0
            stack.pop()
            if observe is not None:
                observe(args, result)
            if keep:
                kept.append(result)
            return result
        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _observe_chains(self, args, result):
        self.chains += len(result)
        self.chain_args.add(args)

    def _observe_factor(self, args, result):
        self.factor_args.add(args)

    def _observe_divisors(self, args, result):
        self.divisors += len(result)

    def _observe_vectors(self, args, result):
        self.vectors += len(result)

    def _observe_tally(self, args, result):
        self.tallied += sum(result.values())

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of this run, every name in LAYER_METRICS except
        the import and tracing rows, which the parent process measures."""
        n = len(self.name_of)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            j = self.parent[i]
            if j >= 0:
                child[j] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        incl = [0.0] * len(self.names)
        entry_ids = {self.names.index(e) for e in ENTRY_POINTS}
        for i in range(n):
            k = self.name_of[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
            if k in entry_ids and not self._has_ancestor(i, k):
                incl[k] += dur[i]
        out = {}
        for k, name in enumerate(self.names):
            if k in entry_ids:
                out[f"{name}.s"] = incl[k]
            if name != "cli.main":
                out[f"{name}.calls"] = calls[k]
                out[f"{name}.self_s"] = self_s[k]
        for name, count in self.calls.items():
            out[f"{name}.calls"] = count
        chain_calls = calls[self.names.index("enumerate_chains")]
        factor_calls = calls[self.names.index("factor_coefficient")]
        line_calls = calls[self.names.index("line_reps")]
        out.update({
            "cli.self_s": self_s[self.names.index("cli.main")],
            "dirichlet.coef_max_bits": max(
                (_bits(c) for c in _coefficients(self.kept)), default=0),
            "enumerate_chains.chains": self.chains,
            "enumerate_chains.distinct_ratio":
                len(self.chain_args) / chain_calls if chain_calls else 0.0,
            "factor_coefficient.distinct_ratio":
                len(self.factor_args) / factor_calls if factor_calls else 0.0,
            "effective_divisors.divisors": self.divisors,
            "enumerate_global.useful_ratio":
                self.tallied / line_calls if line_calls else 0.0,
            "candidate_vectors.vectors": self.vectors,
            "line_reps.rejected": self.raised["line_reps"],
        })
        return out

    def _has_ancestor(self, i, k) -> bool:
        j = self.parent[i]
        while j >= 0:
            if self.name_of[j] == k:
                return True
            j = self.parent[j]
        return False

    def fired(self) -> set:
        """Names of the spans and counters that ran at least once."""
        out = {self.names[k] for k in set(self.name_of)}
        out.update(name for name, count in self.calls.items() if count)
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end (seconds) and the index
        of the parent span (-1 at top level)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.name_of)):
                fh.write(json.dumps([self.names[self.name_of[i]], self.start[i],
                                     self.end[i], self.parent[i]]) + "\n")


def _coefficients(results):
    for result in results:
        if hasattr(result, "coefficients"):
            yield from result.coefficients()
        else:
            yield from result


def _lookup(module: str, path: str):
    owner = sys.modules[f"ascount.{module}"]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return vars(owner)[attr] if classes else getattr(owner, attr)


def _rebind(modules, original, wrapper) -> None:
    """Replace every module global and class attribute that is `original`."""
    found = False
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                found = True
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in list(vars(value).items()):
                    if member is original:
                        setattr(value, attr, wrapper)
                        found = True
    if not found:
        raise RuntimeError(f"{original.__qualname__} is not bound anywhere")
