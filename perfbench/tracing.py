"""Outside-in tracing: wrappers on the names each hypvol layer calls below it.

``Tracer.install(hv)`` rebinds module attributes such as
``hypvol.expect.a_fn`` to wrappers that record a span (name, start, end,
parent span, op id) and counts taken at the boundary (abscissae per
kernel call, integrand calls per integral, cache hits, ...).  Nothing
inside the package changes; ``uninstall`` puts the originals back.
Spans stay in memory until ``write`` saves them.

Layers: specfun (kernels), quad (refinement), abcore (a/b integrals,
their integrands, the cache), expect (subset-sum queries), exact (exact
families, PiPoly rendering), cli, mcsim (estimators and the per-sample
geometry calls).
"""

from __future__ import annotations

import gzip
import json
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

MARK = "__perfbench_span__"

# (module, attribute, span name, layer); the module is the caller's, so
# the wrapper sits on the boundary the caller crosses
_SPANS = (
    ("cli", "main", "cli.main", "cli"),
    ("expect", "expected_hyp_volume", "expect.expected_hyp_volume", "expect"),
    ("expect", "expected_beta_integral", "expect.expected_beta_integral", "expect"),
    ("expect", "ideal_polytope3", "exact.ideal_polytope3", "exact"),
    ("expect", "ideal_simplex_volume", "exact.ideal_simplex_volume", "exact"),
    ("expect", "polygon_beta0", "exact.polygon_beta0", "exact"),
    ("exact.PiPoly", "render", "exact.PiPoly.render", "exact"),
    ("expect", "a_fn", "abcore.a", "abcore"),
    ("expect", "a_prime", "abcore.a_prime", "abcore"),
    ("expect", "b_fn", "abcore.b", "abcore"),
    ("abcore", "cosh_pow_integral_scaled", "specfun.cosh_pow", "specfun"),
    ("abcore", "_f_real_from_z", "specfun.inc_beta", "specfun"),
    ("quad", "integrate_real_line_any", "quad.real_line", "quad"),
    ("quad", "integrate_real_line", "quad.real_line", "quad"),
    ("quad", "integrate_finite", "quad.finite", "quad"),
    ("mcsim", "mc_absorption", "mcsim.mc_absorption", "mcsim"),
    ("mcsim", "mc_hyp_area_d2", "mcsim.mc_hyp_area_d2", "mcsim"),
    ("mcsim", "mc_ideal_polytope3_volume", "mcsim.mc_ideal_polytope3_volume", "mcsim"),
    ("mcsim", "mc_simplex_hyp_volume", "mcsim.mc_simplex_hyp_volume", "mcsim"),
    ("mcsim", "contains", "mcsim.contains", "mcsim"),
    ("mcsim", "hull_d2", "mcsim.hull_d2", "mcsim"),
    ("mcsim", "hull_d3", "mcsim.hull_d3", "mcsim"),
    ("mcsim", "hyp_area_polygon_d2", "mcsim.hyp_area_polygon_d2", "mcsim"),
)
# counted but not timed: cheap calls inside a layer
_COUNTERS = (
    ("abcore", "_cache_get", "abcore.cache"),
    ("expect", "enumerate_classes", "expect.classes"),
)
_INTEGRAND = "abcore.integrand"
_PER_SAMPLE = ("mcsim.contains", "mcsim.hull_d2", "mcsim.hull_d3", "mcsim.hyp_area_polygon_d2")
_MC_ENTRY = {
    "mcsim.mc_absorption",
    "mcsim.mc_hyp_area_d2",
    "mcsim.mc_ideal_polytope3_volume",
    "mcsim.mc_simplex_hyp_volume",
}
LAYER_OF = {name: layer for _, _, name, layer in _SPANS}
LAYER_OF[_INTEGRAND] = "abcore"
LAYER_OF["op"] = "op"


def _resolve(hv, path: str):
    obj = hv
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def wrapped_names(hv) -> list[str]:
    """Attributes among the traced boundaries that currently hold a wrapper."""
    found = []
    for path, attr, *_ in _SPANS + _COUNTERS:
        if hasattr(getattr(_resolve(hv, path), attr), MARK):
            found.append(f"{path}.{attr}")
    return found


class Tracer:
    """Span and count recorder for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.counts: Counter = Counter()
        self.classes_by_op: Counter = Counter()
        self.op_results: list[dict] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._case = None
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def run_op(self, op: dict, fn):
        """Run one benchmark op as the root span of its spans."""
        self._op_id = op["id"]
        self._case = op.get("case")
        try:
            return self.span("op", fn)
        finally:
            self._op_id = -1

    # -- wrappers ----------------------------------------------------------

    def _counting_integrand(self, f, counts: list[int]):
        def integrand(x):
            counts[0] += 1
            counts[1] += np.size(x)
            return self.span(_INTEGRAND, f, x)

        return integrand

    def _make(self, name: str, orig):
        counts = self.counts

        def quad_wrapper(f, *args, **kwargs):
            seen = [0, 0]  # integrand calls, abscissae
            try:
                return self.span(name, orig, self._counting_integrand(f, seen), *args, **kwargs)
            except RuntimeError:
                counts["quad.failures"] += 1
                raise
            finally:
                counts[name + ".integrals"] += 1
                counts["quad.nodes"] += seen[1]
                # level 0 adds one centre call; the real line evaluates +x and -x
                levels = (seen[0] - 1) // 2 if name == "quad.real_line" else seen[0] - 1
                counts["quad.levels"] += levels

        def kernel_wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            counts[name + ".nodes"] += np.size(args[1])
            return self.span(name, orig, *args, **kwargs)

        def abcore_wrapper(*args, **kwargs):
            res = self.span(name, orig, *args, **kwargs)
            counts[name + ".calls"] += 1
            counts["abcore.closed_form"] += res.method == "closed-form"
            return res

        def expect_wrapper(*args, **kwargs):
            res = self.span(name, orig, *args, **kwargs)
            self.op_results.append({"op": self._op_id, "pole_path": res.pole_path, "exact": res.exact is not None})
            return res

        def mc_entry_wrapper(*args, **kwargs):
            res = self.span(name, orig, *args, **kwargs)
            counts[f"mcsim.{self._case}.samples"] += res.n
            counts["mcsim.resampled"] += res.resampled
            counts["mcsim.samples"] += res.n
            return res

        def plain_wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return self.span(name, orig, *args, **kwargs)

        if name.startswith("quad."):
            return quad_wrapper
        if name.startswith("specfun."):
            return kernel_wrapper
        if name.startswith("abcore."):
            return abcore_wrapper
        if name in ("expect.expected_hyp_volume", "expect.expected_beta_integral"):
            return expect_wrapper
        if name in _MC_ENTRY:
            return mc_entry_wrapper
        return plain_wrapper

    def _make_counter(self, name: str, orig):
        counts = self.counts

        def cache_get(*args, **kwargs):
            hit = orig(*args, **kwargs)
            counts["abcore.cache.lookups"] += 1
            counts["abcore.cache.hits"] += hit is not None
            return hit

        def classes(*args, **kwargs):
            out = orig(*args, **kwargs)
            counts["expect.classes"] += len(out)
            self.classes_by_op[self._op_id] += len(out)
            return out

        return cache_get if name == "abcore.cache" else classes

    def install(self, hv) -> None:
        for path, attr, name, _layer in _SPANS:
            owner = _resolve(hv, path)
            self._bind(owner, attr, self._make(name, getattr(owner, attr)))
        for path, attr, name in _COUNTERS:
            owner = _resolve(hv, path)
            self._bind(owner, attr, self._make_counter(name, getattr(owner, attr)))

    def _bind(self, owner, attr: str, wrapper) -> None:
        orig = getattr(owner, attr)
        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = orig
        self._originals.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        self._originals.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) per span, in seconds."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur, dur - child

    def layer_metrics(self, mc_cases) -> dict[str, float]:
        """Per-layer metrics over every recorded span and count."""
        c = self.counts
        dur, self_t = self.self_times()
        names = np.asarray(self.names)
        self_by_layer: Counter = Counter()
        dur_by_name: Counter = Counter()
        for name in set(self.names):
            mask = names == name
            self_by_layer[LAYER_OF[name]] += float(self_t[mask].sum())
            dur_by_name[name] = float(dur[mask].sum())
        op_total = dur_by_name["op"]

        def ratio(num, den):
            return num / den if den else 0.0

        m: dict[str, float] = {}
        for kernel in ("cosh_pow", "inc_beta"):
            key = f"specfun.{kernel}"
            m[f"{key}.calls"] = c[f"{key}.calls"]
            m[f"{key}.nodes"] = c[f"{key}.nodes"]
            m[f"{key}.ms"] = 1e3 * dur_by_name[key]
            m[f"{key}.ns_per_node"] = ratio(1e9 * dur_by_name[key], c[f"{key}.nodes"])
        m["specfun.share_frac"] = ratio(self_by_layer["specfun"], op_total)
        integrals = c["quad.real_line.integrals"] + c["quad.finite.integrals"]
        m["quad.real_line.integrals"] = c["quad.real_line.integrals"]
        m["quad.finite.integrals"] = c["quad.finite.integrals"]
        m["quad.levels_per_integral"] = ratio(c["quad.levels"], integrals)
        m["quad.nodes"] = c["quad.nodes"]
        m["quad.failures"] = c["quad.failures"]
        m["quad.self_ms"] = 1e3 * self_by_layer["quad"]
        abcore_calls = 0
        for key in ("a", "a_prime", "b"):
            m[f"abcore.{key}.calls"] = c[f"abcore.{key}.calls"]
            abcore_calls += c[f"abcore.{key}.calls"]
        m["abcore.closed_form_frac"] = ratio(c["abcore.closed_form"], abcore_calls)
        m["abcore.cache_hit_frac"] = ratio(c["abcore.cache.hits"], c["abcore.cache.lookups"])
        m["abcore.self_ms"] = 1e3 * self_by_layer["abcore"]
        expect_ops = len(self.op_results)
        m["expect.ops"] = expect_ops
        m["expect.classes"] = c["expect.classes"]
        per_op = [self.classes_by_op[op] for op in {r["op"] for r in self.op_results}]
        m["expect.classes_per_op_p50"] = statistics.median(per_op) if per_op else 0.0
        m["expect.pole_path_frac"] = ratio(sum(r["pole_path"] for r in self.op_results), expect_ops)
        m["expect.exact_frac"] = ratio(sum(r["exact"] for r in self.op_results), expect_ops)
        m["expect.self_ms"] = 1e3 * self_by_layer["expect"]
        family = [n for n, layer in LAYER_OF.items() if layer == "exact"]
        m["exact.family.calls"] = sum(c[n + ".calls"] for n in family)
        m["exact.family.ms"] = 1e3 * sum(dur_by_name[n] for n in family)
        m["cli.calls"] = c["cli.main.calls"]
        m["cli.self_ms"] = 1e3 * self_by_layer["cli"]
        for case in mc_cases:
            m[f"mcsim.{case}.samples"] = c[f"mcsim.{case}.samples"]
        m["mcsim.per_sample_calls"] = sum(c[n + ".calls"] for n in _PER_SAMPLE)
        m["mcsim.per_sample_ms"] = 1e3 * sum(dur_by_name[n] for n in _PER_SAMPLE)
        m["mcsim.resampled_frac"] = ratio(c["mcsim.resampled"], c["mcsim.samples"])
        m["mcsim.self_ms"] = 1e3 * self_by_layer["mcsim"]
        m["trace.spans"] = len(self.names)
        m["trace.ops"] = sum(1 for n in self.names if n == "op")
        return m

    def write(self, path: Path) -> None:
        """Save every span (columns) and the raw counts, gzip-compressed JSON."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "names": table,
            "layers": {n: LAYER_OF[n] for n in table},
            "span_name": [index[n] for n in self.names],
            "start_us": [round((t - t0) * 1e6, 3) for t in self.start],
            "end_us": [round((t - t0) * 1e6, 3) for t in self.end],
            "parent": self.parent,
            "op": self.op,
            "counts": dict(self.counts),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
