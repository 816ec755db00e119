"""Per-layer spans and counters, recorded from outside the package.

Each layer is one module of ``moment_leibniz``.  ``Tracer.install`` replaces
every public function and method of those modules with a wrapper, at the
place its callers look it up: methods on their class (so ``a - b`` reaches
the wrapped ``MultiIndex.__sub__``), module functions in every module
namespace that holds them (so ``funcmodel.eval_poly`` is wrapped as well as
``polycalc.eval_poly``).

A wrapper always bumps its call counter.  When the call crosses into another
layer it also opens a span; a span's self time is its duration minus the
spans it caused, so the layer self times of a job add up to the time spent
inside ``cli.main``.  Calls inside one layer open no span, which keeps the
cost of hot methods such as ``MultiIndex.__hash__`` low.  Spans are folded
into per-job, per-layer totals as they close and kept in memory until the
run ends; a record per span would not fit in memory on the larger jobs.
"""

from __future__ import annotations

import importlib
import inspect
import time
from typing import Callable, Dict, List, Optional

LAYERS = ("multiindex", "polycalc", "funcmodel", "coeffsolve", "momentfam", "semigroup", "cli")

# Counted calls: (layer, qualified name) -> counter name.
CALLS = {
    ("multiindex", "MultiIndex.__init__"): "multiindex.calls.new",
    ("multiindex", "MultiIndex.__add__"): "multiindex.calls.add",
    ("multiindex", "MultiIndex.__sub__"): "multiindex.calls.sub",
    ("multiindex", "MultiIndex.__le__"): "multiindex.calls.le",
    ("multiindex", "MultiIndex.__hash__"): "multiindex.calls.hash",
    ("multiindex", "binom"): "multiindex.calls.binom",
    ("multiindex", "enumerate_below"): "multiindex.calls.enumerate",
    ("multiindex", "enumerate_strictly_between"): "multiindex.calls.enumerate",
    ("multiindex", "enumerate_height_at_most"): "multiindex.calls.enumerate",
    ("polycalc", "Polynomial.__init__"): "polycalc.calls.new",
    ("polycalc", "Polynomial.__add__"): "polycalc.calls.add",
    ("polycalc", "Polynomial.__mul__"): "polycalc.calls.mul",
    ("polycalc", "dalpha"): "polycalc.calls.dalpha",
    ("polycalc", "eval_poly"): "polycalc.calls.eval",
    ("funcmodel", "eval_expr"): "funcmodel.calls.eval_float",
    ("funcmodel", "eval_exact"): "funcmodel.calls.eval_exact",
    ("funcmodel", "TauMap.__call__"): "funcmodel.calls.tau",
    ("coeffsolve", "is_structure_valid"): "coeffsolve.subsets.calls",
    ("coeffsolve", "find_constant_certificate"): "coeffsolve.cert_search.calls",
    ("coeffsolve", "forced_zero_analysis"): "coeffsolve.forced_zero.calls",
    ("momentfam", "OperatorFamily.apply"): "momentfam.apply.calls",
}

COUNTERS = sorted(
    set(CALLS.values())
    | {
        "polycalc.mul.term_pairs",
        "polycalc.eval.terms",
        "funcmodel.nonfinite.count",
        "coeffsolve.constraint.evals",
        "coeffsolve.cert_search.found",
        "momentfam.instances",
        "semigroup.instances",
    }
)

# Dunder methods that do the layer's work; the rest (repr, frozen-dataclass
# setattr guards) are left alone.
_DUNDERS = {
    "__init__", "__post_init__", "__call__", "__add__", "__sub__", "__mul__", "__rmul__",
    "__neg__", "__le__", "__lt__", "__ge__", "__gt__", "__eq__", "__hash__", "__iter__",
    "__len__", "__getitem__", "__bool__",
}


class Tracer:
    """Layer self times and work counters for one process."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self._cells: Dict[str, List[int]] = {name: [0] for name in COUNTERS}
        self.emit_s = 0.0
        self._polynomial: Optional[type] = None  # set by install, for the term-pair count
        # [layer of the innermost open span, time its child spans took so far]
        self._state: list = [None, 0.0]

    def exclude(self, seconds: float) -> None:
        """Leave time spent outside the package out of the running layer's self time."""
        self._state[1] += seconds

    def counts(self) -> Dict[str, int]:
        return {name: cell[0] for name, cell in self._cells.items()}

    # ---- wrappers ----

    def _wrap(
        self,
        fn: Callable,
        layer: str,
        counter: Optional[List[int]] = None,
        pre: Optional[Callable] = None,
        post: Optional[Callable] = None,
    ) -> Callable:
        state, self_s, clock = self._state, self.self_s, time.perf_counter

        def wrapper(*args, **kwargs):
            if counter is not None:
                counter[0] += 1
            if pre is not None:
                pre(args)
            if state[0] is layer:
                result = fn(*args, **kwargs)
            else:
                outer, outer_child = state
                state[0], state[1] = layer, 0.0
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    self_s[layer] += elapsed - state[1]
                    state[0], state[1] = outer, outer_child + elapsed
            if post is not None:
                post(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self, qualname: str):
        cells = self._cells
        if qualname == "Polynomial.__mul__":
            pairs, poly = cells["polycalc.mul.term_pairs"], self._polynomial

            def pre(args):
                if isinstance(args[1], poly):
                    pairs[0] += len(args[0].terms) * len(args[1].terms)

            return pre, None
        if qualname == "eval_poly":
            terms = cells["polycalc.eval.terms"]

            def pre(args):
                terms[0] += len(args[0].terms)

            return pre, None
        if qualname == "check_constraint":
            evals = cells["coeffsolve.constraint.evals"]

            def post(report, args):
                evals[0] += report.counts["evaluations"]

            return None, post
        if qualname == "find_constant_certificate":
            found = cells["coeffsolve.cert_search.found"]

            def post(cert, args):
                found[0] += cert is not None

            return None, post
        if qualname == "verify_moment":
            instances = cells["momentfam.instances"]

            def post(report, args):
                points = len(args[2].sample_points)
                instances[0] += len(report.per_alpha_max_residual) * report.probe_count * points

            return None, post
        if qualname == "verify_moment_seq":
            instances = cells["semigroup.instances"]

            def post(report, args):
                instances[0] += report.counts["probes"] * report.counts["alphas"]

            return None, post
        return None, None

    def _wrapped(self, fn: Callable, layer: str, qualname: str) -> Callable:
        counter = self._cells[CALLS[(layer, qualname)]] if (layer, qualname) in CALLS else None
        pre, post = self._hooks(qualname)
        return self._wrap(fn, layer, counter, pre, post)

    # ---- installation ----

    def install(self) -> None:
        """Patch the package in place; lasts for the life of the process."""
        package = importlib.import_module("moment_leibniz")
        modules = {name: importlib.import_module(f"moment_leibniz.{name}") for name in LAYERS}
        self._polynomial = modules["polycalc"].Polynomial
        replaced: Dict[int, Callable] = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrapped(obj, layer, name)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._patch_class(obj, layer)
        self._patch_errors(modules["funcmodel"].NonFiniteValue)
        cli = modules["cli"]
        replaced[id(cli._emit)] = self._emit_timer(cli._emit)
        for module in [package, *modules.values()]:
            for name, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(module, name, wrapper)

    def _patch_class(self, cls: type, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            qualname = f"{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                setattr(cls, name, self._wrapped(attr, layer, qualname))
            elif isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrapped(attr.__func__, layer, qualname)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrapped(attr.__func__, layer, qualname)))
            elif isinstance(attr, property) and attr.fget is not None:
                setattr(
                    cls,
                    name,
                    property(self._wrapped(attr.fget, layer, qualname), attr.fset, attr.fdel, attr.__doc__),
                )

    def _patch_errors(self, error: type) -> None:
        raised = self._cells["funcmodel.nonfinite.count"]
        init = error.__init__

        def counted_init(exc, *args):
            raised[0] += 1
            init(exc, *args)

        error.__init__ = counted_init

    def _emit_timer(self, emit: Callable) -> Callable:
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return emit(*args, **kwargs)
            finally:
                self.emit_s += clock() - start

        timed.__wrapped__ = emit
        return timed
