"""Outside-in tracer for woldlab: counts and times calls into each module.

Nothing under `src/` knows about it.  `Tracer.install` wraps every public
function of the layer modules and rebinds the wrapper under every name that
refers to the original, in every woldlab module and the package itself,
because `series`, `wold`, `operator` and `cli` import functions by name:
patching the defining module alone would miss most call sites.  Generator
functions get a generator wrapper that times each step.  Kernel and weight
methods, `Budget`, `vertex_cap` and `NeumaierSum.add` are counted only,
because they run millions of times per operation.

Timed calls form a stack of frames.  A layer's self time is the time its
frames ran minus the time of the timed frames they called; a function's
time counts only its outermost frames, so recursion is not counted twice.
Spans (name, start, end, parent span, operation) are kept in memory for
the coarse calls in SPANNED and written out by the benchmark at the end.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("tree_core", "weights", "operator", "series", "wold", "numerics", "cli")

# metric groups made of several functions
GROUPS = {
    "tree_core.window_vertices": "tree_core.window",
    "tree_core.window_depth_classes": "tree_core.window",
    "weights.is_balanced": "weights.diagnostics",
    "weights.is_norm_increasing": "weights.diagnostics",
    "weights.boundedness_estimate": "weights.diagnostics",
}

SPANNED = frozenset({
    "cli.main", "wold.wold_verdict", "wold.decomposition_report",
    "series.alpha_verdict", "series.g_vector", "operator.classify",
    "operator.wandering_orthogonality_check", "weights.is_balanced",
    "weights.is_norm_increasing", "weights.boundedness_estimate",
})

# (name, unit, better): the per-layer metrics, in report order
PER_LAYER = (
    ("tree_core.children_calls", "count", "lower"),
    ("tree_core.parent_calls", "count", "lower"),
    ("tree_core.budgets_created", "count", "lower"),
    ("tree_core.cap_reads", "count", "lower"),
    ("tree_core.window_s", "s", "lower"),
    ("weights.primal_log_weight_calls", "count", "lower"),
    ("weights.dual_log_weight_calls", "count", "lower"),
    ("weights.dual_cache_misses", "count", "lower"),
    ("weights.dual_cache_hit_ratio", "ratio", "higher"),
    ("weights.duals_built", "count", "lower"),
    ("weights.shift_norm_sq_calls", "count", "lower"),
    ("weights.shift_norm_sq_s", "s", "lower"),
    ("weights.diagnostics_s", "s", "lower"),
    ("operator.apply_shift_calls", "count", "lower"),
    ("operator.apply_shift_s", "s", "lower"),
    ("operator.defect_diagonal_s", "s", "lower"),
    ("operator.inner_calls", "count", "lower"),
    ("operator.inner_s", "s", "lower"),
    ("operator.wandering_s", "s", "lower"),
    ("series.alpha_verdicts", "count", "lower"),
    ("series.alpha_verdict_s", "s", "lower"),
    ("series.heuristic_verdicts", "count", "lower"),
    ("series.generations", "count", "lower"),
    ("series.stream_s", "s", "lower"),
    ("series.stream_us_per_step", "us", "lower"),
    ("series.duplicate_alpha_verdicts", "count", "lower"),
    ("series.plugin_attempts", "count", "lower"),
    ("series.plugin_accept_ratio", "ratio", "higher"),
    ("series.g_vector_s", "s", "lower"),
    ("wold.verdicts", "count", "lower"),
    ("wold.verdict_s", "s", "lower"),
    ("wold.self_s", "s", "lower"),
    ("wold.alpha_verdicts_per_verdict", "ratio", "lower"),
    ("wold.duals_per_verdict", "ratio", "lower"),
    ("wold.decomposition_report_s", "s", "lower"),
    ("numerics.neumaier_adds", "count", "lower"),
    ("numerics.tail_integral_calls", "count", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.stdout_bytes", "count", "lower"),
    ("cli.stdout_digest_mismatches", "count", "lower"),
)


class Tracer:
    """Counters, outermost inclusive times, layer self times and spans."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.times: defaultdict = defaultdict(float)      # group -> seconds
        self.self_times: defaultdict = defaultdict(float)  # layer -> seconds
        self.spans: list = []    # [op, name, start, end, parent span index]
        self._depth: Counter = Counter()
        self._since: dict = {}
        self._frames: list = []  # [layer, start, child seconds, groups, span]
        self._span_stack: list = []
        self._marks: list = []   # "D" inside a dual weight call, "S" inside shift_norm_sq
        self._in_stream = 0
        self._op = None
        self._alpha_keys: set = set()
        self._default_config = ""

    # -- frames -------------------------------------------------------------

    def _enter(self, layer, groups, span_name=None) -> None:
        now = time.perf_counter()
        for g in groups:
            if self._depth[g] == 0:
                self._since[g] = now
            self._depth[g] += 1
        span = None
        if span_name is not None:
            parent = self._span_stack[-1] if self._span_stack else None
            span = len(self.spans)
            self.spans.append([self._op, span_name, now, None, parent])
            self._span_stack.append(span)
        self._frames.append([layer, now, 0.0, groups, span])

    def _exit(self) -> None:
        now = time.perf_counter()
        layer, start, child, groups, span = self._frames.pop()
        dur = now - start
        self.self_times[layer] += dur - child
        if self._frames:
            self._frames[-1][2] += dur
        for g in groups:
            self._depth[g] -= 1
            if self._depth[g] == 0:
                self.times[g] += now - self._since[g]
        if span is not None:
            self.spans[span][3] = now
            self._span_stack.pop()

    def begin_op(self, index) -> None:
        """Open the root frame and span of one benchmark operation."""
        self._op = index
        self._alpha_keys = set()
        self._enter("bench", ("bench.op",), "op")

    def end_op(self) -> None:
        self._exit()

    # -- wrappers -----------------------------------------------------------

    def _timed(self, layer, qual, fn, pre=None, cleanup=None):
        groups = (qual, GROUPS[qual]) if qual in GROUPS else (qual,)
        span = qual if qual in SPANNED else None
        calls = qual + ".calls"
        counts, enter, leave = self.counts, self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if pre is not None:
                pre(args, kwargs)
            enter(layer, groups, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
                if cleanup is not None:
                    cleanup()
            return result
        return wrapper

    def _timed_generator(self, layer, qual, fn):
        groups = (qual,)
        stream = qual == "series.generation_stream"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[qual + ".calls"] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    tracer._enter(layer, groups)
                    tracer._in_stream += stream
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._in_stream -= stream
                        tracer._exit()
                    tracer.counts[qual + ".yields"] += 1
                    yield item
            finally:
                inner.close()
        return wrapper

    def _counted(self, key, fn, mark=None):
        counts, marks = self.counts, self._marks
        tracer = self

        if key == "tree_core.children":
            @functools.wraps(fn)
            def children(*args):
                counts[key] += 1
                if tracer._in_stream:
                    counts["series.stream_steps"] += 1
                return fn(*args)
            return children
        if mark is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            counts[key] += 1
            marks.append(mark)
            try:
                return fn(*args, **kwargs)
            finally:
                marks.pop()
        return marked

    # -- hooks --------------------------------------------------------------

    def _shift_norm_pre(self, args, kwargs) -> None:
        # a shift_norm_sq call directly under a dual weight call is a cache miss
        if self._marks and self._marks[-1] == "D":
            self.counts["weights.dual_cache_misses"] += 1
        self._marks.append("S")

    def _alpha_pre(self, args, kwargs) -> None:
        ws, _, v = args[:3]
        config = args[3] if len(args) > 3 else kwargs.get("config")
        key = (ws.name, repr(sorted(ws.params.items())), ws.dual_depth, repr(v),
               repr(config) if config is not None else self._default_config)
        if key in self._alpha_keys:
            self.counts["series.duplicate_alpha_verdicts"] += 1
        self._alpha_keys.add(key)
        if self._depth["wold.wold_verdict"]:
            self.counts["wold.alpha_in_verdicts"] += 1

    def _plugin(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def plugin(*args):
            counts["series.plugin_attempts"] += 1
            out = fn(*args)
            if out is not None:
                counts["series.plugin_accepts"] += 1
            return out
        return plugin

    def _dual_init(self, fn):
        tracer = self

        @functools.wraps(fn)
        def init(*args, **kwargs):
            tracer.counts["weights.duals_built"] += 1
            if tracer._depth["wold.wold_verdict"]:
                tracer.counts["wold.duals_in_verdicts"] += 1
            return fn(*args, **kwargs)
        return init

    # -- installation -------------------------------------------------------

    def install(self, wl) -> None:
        """Wrap the layers of the imported package `wl` in place."""
        mods = {layer: getattr(wl, layer) for layer in LAYERS}
        self._default_config = repr(wl.series.SeriesConfig())
        replace: dict = {}   # id(original) -> wrapper

        def swap(original, wrapper):
            replace[id(original)] = (original, wrapper)

        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                qual = f"{layer}.{name}"
                if qual == "tree_core.vertex_cap":
                    swap(obj, self._counted("tree_core.vertex_cap.calls", obj))
                elif inspect.isgeneratorfunction(obj):
                    swap(obj, self._timed_generator(layer, qual, obj))
                elif qual == "weights.shift_norm_sq":
                    swap(obj, self._timed(layer, qual, obj, pre=self._shift_norm_pre,
                                          cleanup=self._marks.pop))
                elif qual == "series.alpha_verdict":
                    swap(obj, self._timed(layer, qual, obj, pre=self._alpha_pre))
                else:
                    swap(obj, self._timed(layer, qual, obj))
        series = mods["series"]
        swap(series._heuristic_verdict,
             self._counted("series.heuristic_verdicts", series._heuristic_verdict))

        for mod in (wl, *mods.values()):
            for name, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        series.PLUGINS = tuple(self._plugin(p) for p in series.PLUGINS)

        tc, wt = mods["tree_core"], mods["weights"]
        for cls in (tc.ZPathKernel, tc.TkInfKernel, tc.TqbKernel, tc.AdjacencyKernel):
            for meth in ("children", "parent"):
                if meth in vars(cls):
                    setattr(cls, meth, self._counted(f"tree_core.{meth}", vars(cls)[meth]))
        tc.Budget.__init__ = self._counted("tree_core.Budget", tc.Budget.__init__)
        for cls in [wt.WeightSystem, *_subclasses(wt.WeightSystem)]:
            dual = cls is wt.CauchyDualWeights
            side = "dual" if dual else "primal"
            for meth in ("weight", "log_weight"):
                if meth in vars(cls):
                    setattr(cls, meth, self._counted(f"weights.{side}_{meth}", vars(cls)[meth],
                                                     mark="D" if dual else None))
        wt.CauchyDualWeights.__init__ = self._dual_init(wt.CauchyDualWeights.__init__)
        num = mods["numerics"].NeumaierSum
        num.add = self._counted("numerics.NeumaierSum.add", num.add)

    # -- reading ------------------------------------------------------------

    def snapshot(self) -> tuple:
        return Counter(self.counts), dict(self.times), dict(self.self_times)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(counts: Counter, times: dict, self_times: dict,
                  stdout_bytes: int, digest_mismatches: int) -> dict:
    """The PER_LAYER metrics from one pass's counts and times."""
    c, t = Counter(counts), (lambda g: times.get(g, 0.0))
    dual_calls = c["weights.dual_log_weight"] + c["weights.dual_weight"]
    misses = c["weights.dual_cache_misses"]
    verdicts = c["wold.wold_verdict.calls"]
    stream_s = t("series.generation_stream")
    out = {
        "tree_core.children_calls": c["tree_core.children"],
        "tree_core.parent_calls": c["tree_core.parent"],
        "tree_core.budgets_created": c["tree_core.Budget"],
        "tree_core.cap_reads": c["tree_core.vertex_cap.calls"],
        "tree_core.window_s": t("tree_core.window"),
        "weights.primal_log_weight_calls": c["weights.primal_log_weight"],
        "weights.dual_log_weight_calls": c["weights.dual_log_weight"],
        "weights.dual_cache_misses": misses,
        "weights.dual_cache_hit_ratio": _ratio(dual_calls - misses, dual_calls),
        "weights.duals_built": c["weights.duals_built"],
        "weights.shift_norm_sq_calls": c["weights.shift_norm_sq.calls"],
        "weights.shift_norm_sq_s": t("weights.shift_norm_sq"),
        "weights.diagnostics_s": t("weights.diagnostics"),
        "operator.apply_shift_calls": c["operator.apply_shift.calls"],
        "operator.apply_shift_s": t("operator.apply_shift"),
        "operator.defect_diagonal_s": t("operator.defect_diagonal"),
        "operator.inner_calls": c["operator.inner.calls"],
        "operator.inner_s": t("operator.inner"),
        "operator.wandering_s": t("operator.wandering_orthogonality_check"),
        "series.alpha_verdicts": c["series.alpha_verdict.calls"],
        "series.alpha_verdict_s": t("series.alpha_verdict"),
        "series.heuristic_verdicts": c["series.heuristic_verdicts"],
        "series.generations": c["series.generation_stream.yields"],
        "series.stream_s": stream_s,
        "series.stream_us_per_step": 1e6 * _ratio(stream_s, c["series.stream_steps"]),
        "series.duplicate_alpha_verdicts": c["series.duplicate_alpha_verdicts"],
        "series.plugin_attempts": c["series.plugin_attempts"],
        "series.plugin_accept_ratio": _ratio(c["series.plugin_accepts"],
                                             c["series.plugin_attempts"]),
        "series.g_vector_s": t("series.g_vector"),
        "wold.verdicts": verdicts,
        "wold.verdict_s": t("wold.wold_verdict"),
        "wold.self_s": self_times.get("wold", 0.0),
        "wold.alpha_verdicts_per_verdict": _ratio(c["wold.alpha_in_verdicts"], verdicts),
        "wold.duals_per_verdict": _ratio(c["wold.duals_in_verdicts"], verdicts),
        "wold.decomposition_report_s": t("wold.decomposition_report"),
        "numerics.neumaier_adds": c["numerics.NeumaierSum.add"],
        "numerics.tail_integral_calls": c["numerics.quadratic_tail_integral.calls"],
        "cli.main_s": t("cli.main"),
        "cli.self_s": self_times.get("cli", 0.0),
        "cli.stdout_bytes": stdout_bytes,
        "cli.stdout_digest_mismatches": digest_mismatches,
    }
    assert list(out) == [name for name, _, _ in PER_LAYER]
    return out
