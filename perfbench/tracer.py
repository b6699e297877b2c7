"""Outside-in tracing of the library's layers.

The library has no instrumentation of its own, so this module wraps it
from outside at run time: every public function and public-class method
of each layer module is replaced, in every `superweyl` module namespace
that binds it (the defining module included, so calls through local
imports are seen too) or on its class.  Only the benchmark's worker
installs it, and only for the traced run.

A call opens a span when it enters a layer from another layer or from
the benchmark.  A call within the layer it is already in is counted but
opens no span: its time is already inside the enclosing span of the same
layer.  Each span records its name, start, end, parent span and request
id; spans stay in memory and are written out when the run ends.  The
self time of a span is its duration minus the time of its child spans,
accumulated per layer as the spans close.
"""

from __future__ import annotations

import array
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "cli",
    "rootdata",
    "borel",
    "weyl",
    "typicality",
    "generic",
    "star",
    "kl",
    "chars",
    "primposet",
)

# Tens of millions of calls per run (B4 alone makes 22.7 M bruhat_leq
# calls): these wrappers only count and open no span, so the time spent
# in them stays in the caller's self time.
COUNT_ONLY = frozenset(
    {"weyl.CoxeterGroup.bruhat_leq", "rootdata.form", "kl.KLTable.kl_polynomial"}
)

# Accessors called from the inner loops of other layers are not wrapped
# at all; their time, like that of the value types' arithmetic, stays in
# the caller's self time.
UNWRAPPED = frozenset(
    {
        "weyl.CoxeterGroup.length",
        "weyl.CoxeterGroup.word_of",
        "weyl.CoxeterGroup.left_descents",
        "weyl.CoxeterGroup.right_descents",
        "weyl.CoxeterGroup.canonical",
        "kl.KLTable.mu",
        "kl.KLTable.mu_sym",
        "kl.KLTable.r_polynomial",
        "kl.KLTable.left_descent_set",
        "primposet.InclusionGraph.add_node",
        "primposet.InclusionGraph.add_edge",
        "primposet.InclusionGraph.add_equality",
    }
)
VALUE_TYPES = frozenset({"Family", "Weight", "Root", "WeylElt", "IntPoly"})

# Constructors that do a layer's work (group enumeration).
SPANNED_INITS = frozenset({"weyl.CoxeterGroup.__init__"})

# Caches whose end-of-run state is reported: (module, function, name of
# the hit-ratio metric); the size metric is <module>.<function>_size.
CACHES = (
    ("rootdata", "build_root_system", "rootdata.build_root_system_hit_ratio"),
    ("borel", "distinguished_borel", "borel.distinguished_borel_hit_ratio"),
    ("weyl", "weyl_group", "weyl.weyl_group_hit_ratio"),
    ("kl", "kl_table", "kl.table_hit_ratio"),
    ("generic", "gamma_sets", "generic.gamma_sets_hit_ratio"),
    ("weyl", "reflection_elt", "weyl.reflection_elt_hit_ratio"),
)

# metric name -> qualified name whose calls it counts
CALL_COUNTERS = {
    "weyl.bruhat_leq_calls": "weyl.CoxeterGroup.bruhat_leq",
    "weyl.coset_factor_calls": "weyl.coset_factor",
    "kl.kl_polynomial_calls": "kl.KLTable.kl_polynomial",
    "kl.left_kl_leq_calls": "kl.KLTable.left_kl_leq",
    "generic.is_generic_calls": "generic.is_generic",
    "generic.is_weakly_generic_calls": "generic.is_weakly_generic",
    "generic.is_orbit_maximal_calls": "generic.is_orbit_maximal",
    "rootdata.form_calls": "rootdata.form",
    "star.generator_calls": "star.apply_generator",
    "star.alpha_finite_calls": "star.alpha_finite",
    "borel.track_calls": "borel.track_highest_weight",
    "borel.odd_reflection_path_calls": "borel.odd_reflection_path",
    "typicality.atypicality_calls": "typicality.atypicality",
}


def _graph_size(result):
    graph = result[0] if isinstance(result, tuple) and result else result
    nodes, edges = getattr(graph, "nodes", None), getattr(graph, "edges", None)
    if isinstance(nodes, (set, frozenset)) and isinstance(edges, (set, frozenset)):
        return len(nodes), len(edges)
    return None


def _hook_primposet(tr, args, result):
    size = _graph_size(result)
    if size is not None:
        tr.add("primposet.nodes_out", size[0])
        tr.add("primposet.edges_out", size[1])


def _hook_chars(tr, args, result):
    ms = getattr(result, "weights", result)
    entries = getattr(ms, "entries", None)
    if entries is not None:
        tr.add("chars.weights_out", len(entries))


def _hook_star_orbit(tr, args, result):
    tr.add("star.orbit_vertices", len(getattr(result, "vertices", ())))
    tr.add("star.orbits_truncated", int(bool(getattr(result, "truncated", False))))


def _hook_alpha_finite(tr, args, result):
    if getattr(result, "value", None) == "undecided":
        tr.add("star.undecided", 1)


def _hook_group(tr, args, result):
    tr.add("weyl.group_order_sum", len(args[0]))


def _hook_p_table(tr, args, result):
    tr.add("kl.polys_nonzero", len(result))


def _hook_for(layer: str, qual: str):
    if qual == "star.star_orbit":
        return _hook_star_orbit
    if qual == "star.alpha_finite":
        return _hook_alpha_finite
    if qual == "weyl.CoxeterGroup.__init__":
        return _hook_group
    if qual == "kl.p_table_json":
        return _hook_p_table
    if layer == "primposet":
        return _hook_primposet
    if layer == "chars":
        return _hook_chars
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.values: dict[str, int] = {}
        self.request_id = -1
        # span columns
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_request = array.array("i")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.self_ns = [0] * len(LAYERS)
        self.layer_spans = [0] * len(LAYERS)
        # innermost open span, its layer and the time its children took
        self.cur = -1
        self.layer = -1
        self.child_ns = 0
        self._originals: dict[str, object] = {}
        # (owner, attribute, original, wrapper) of every rebinding
        self._bindings: list[tuple[object, str, object, object]] = []

    def add(self, key: str, n: int) -> None:
        self.values[key] = self.values.get(key, 0) + n

    # -- wrappers ------------------------------------------------------

    def _register(self, qual: str) -> int:
        self.names.append(qual)
        self.calls.append(0)
        return len(self.names) - 1

    def _count_only(self, fn, qual: str):
        i = self._register(qual)
        calls = self.calls

        def counted(*args, **kwargs):
            calls[i] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, fn, qual: str, layer_id: int, hook):
        i = self._register(qual)
        calls = self.calls
        span = self._span

        def wrapper(*args, **kwargs):
            calls[i] += 1
            if self.layer == layer_id:
                result = fn(*args, **kwargs)
            else:
                result = span(i, layer_id, fn, args, kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _span(self, name_id, layer_id, fn, args, kwargs):
        parent, outer_layer, outer_child = self.cur, self.layer, self.child_ns
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_request.append(self.request_id)
        self.span_start.append(0)
        self.span_end.append(0)
        self.cur, self.layer, self.child_ns = idx, layer_id, 0
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            dur = t1 - t0
            self.span_start[idx] = t0
            self.span_end[idx] = t1
            self.self_ns[layer_id] += dur - self.child_ns
            self.layer_spans[layer_id] += 1
            self.cur, self.layer = parent, outer_layer
            self.child_ns = outer_child + dur

    def _wrap(self, fn, qual: str, layer: str):
        if qual in COUNT_ONLY:
            return self._count_only(fn, qual)
        return self._spanned(fn, qual, LAYERS.index(layer), _hook_for(layer, qual))

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer of the imported `superweyl` package."""
        modules = {layer: importlib.import_module(f"superweyl.{layer}") for layer in LAYERS}
        for mod_name, name, _ in CACHES:
            self._originals[f"{mod_name}.{name}"] = getattr(modules[mod_name], name, None)
        replaced: dict[int, tuple[object, object]] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = f"{layer}.{name}"
                if inspect.isclass(obj):
                    if name not in VALUE_TYPES and not issubclass(obj, BaseException):
                        self._wrap_class(obj, qual, layer)
                elif (inspect.isfunction(obj) or hasattr(obj, "cache_info")) and qual not in UNWRAPPED:
                    replaced[id(obj)] = (obj, self._wrap(obj, qual, layer))
        for mod in [m for k, m in sys.modules.items() if k == "superweyl" or k.startswith("superweyl.")]:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bindings.append((mod, name, obj, hit[1]))
        self.set_active(True)

    def _wrap_class(self, cls, qual_cls: str, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            qual = f"{qual_cls}.{name}"
            if not inspect.isfunction(attr) or qual in UNWRAPPED:
                continue
            if name.startswith("_") and qual not in SPANNED_INITS:
                continue
            self._bindings.append((cls, name, attr, self._wrap(attr, qual, layer)))

    def set_active(self, on: bool) -> None:
        """Bind the wrappers (on) or the originals (off), so that the
        benchmark's own checks between requests are not traced."""
        for owner, name, original, wrapper in self._bindings:
            setattr(owner, name, wrapper if on else original)

    # -- results ---------------------------------------------------------

    def cache_state(self) -> dict[str, float]:
        out = {}
        for mod_name, name, ratio_metric in CACHES:
            fn = self._originals[f"{mod_name}.{name}"]
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            lookups = (info.hits + info.misses) if info else 0
            out[f"{mod_name}.{name}_size"] = info.currsize if info else 0
            out[ratio_metric] = info.hits / lookups if lookups else 0.0
        return out

    def summary(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = self.self_ns[i] / 1e9
        calls = dict(zip(self.names, self.calls))
        for metric, qual in CALL_COUNTERS.items():
            out[metric] = calls.get(qual, 0)
        out["chars.calls"] = self.layer_spans[LAYERS.index("chars")]
        for key in (
            "weyl.group_order_sum",
            "kl.polys_nonzero",
            "primposet.nodes_out",
            "primposet.edges_out",
            "star.orbit_vertices",
            "star.orbits_truncated",
            "chars.weights_out",
        ):
            out[key] = self.values.get(key, 0)
        finite = out["star.alpha_finite_calls"]
        out["star.undecided_frac"] = self.values.get("star.undecided", 0) / finite if finite else 0.0
        out.update(self.cache_state())
        return out

    def write_spans(self, path) -> None:
        """One JSON header line (span-name table, span count), then one
        line per span: name id, start ns, end ns, parent index, request id."""
        n = len(self.span_name)
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "spans": n}) + "\n")
            cols = (self.span_name, self.span_start, self.span_end, self.span_parent, self.span_request)
            for row in zip(*cols):
                fh.write("%d %d %d %d %d\n" % row)
