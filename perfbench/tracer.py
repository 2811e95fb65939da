"""Per-layer tracing from outside the library.

install() replaces each traced library function with a wrapper in every
bernsteinlab module namespace that binds it (for example both
`kernels.kernel_eval` and `nearbest.kernel_eval`), so calls made inside the
library are seen too; uninstall() puts every original back.  No file of the
library is edited.

A wrapper records a span (name, start, end, parent) and counts.  Functions
handed to the library as arguments, the quadrature integrands and the
search objectives, are wrapped as well: their spans are named after the
module that defined them, so a kernel integrand counts towards `kernels`
and not towards `quadrature`, and evaluating them is what the node and
evaluation counts count.  A layer's self time is the sum over its spans of
the span's duration minus the durations of its direct children.
"""

import gzip
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

# metric names cannot start with "_", so the _search module reports as "search"
_LAYER = {"_search": "search"}

TARGETS = {
    "quadrature": (
        "integrate_finite",
        "integrate_semi_infinite",
        "integrate_finite_batch",
        "integrate_semi_infinite_batch",
        "integrate_zero_to_inf",
    ),
    "specfun": ("gamma", "zeta", "odd_zeta", "chebyshev_T", "alternating_odd_sum"),
    "kernels": (
        "C_const",
        "D_const",
        "kernel_eval",
        "kernel_values",
        "sup_norm_H",
        "sup_norm_H1",
        "delta_1_closed",
        "delta_2_closed",
    ),
    "_search": ("golden_max", "bisect_root", "refine_grid_maxima"),
    # _bary is the barycentric evaluator every chebinterp entry point ends in
    "chebinterp": ("build_nodes", "interp_eval", "scaled_interp_eval", "sup_error", "_bary"),
    "entire": ("H_alpha_integral", "H_alpha_series", "G_alpha", "beta_point"),
    # the exchange loop of best_poly builds one Chebyshev-Vandermonde system per exchange
    "remez": ("best_poly", "eval_approx", "scaling_check", "bernstein_extrapolate", "_cheb_vander"),
    "asymptotics": (
        "watson_coeffs",
        "G_asympt",
        "envelope_bounds",
        "find_alpha0",
        "monotonicity_check",
        "norm_ratio_limit",
    ),
    # minimize is scipy's Nelder-Mead as bound in nearbest; its nfev is the objective count
    "nearbest": (
        "build_cache",
        "limit_error",
        "optimize_c",
        "interp_points",
        "alternation_points",
        "p3_poly",
        "minimize",
    ),
    "cli": ("main", "emit", "run_verify", "run_table", "run_curve"),
}

_QUAD_RULES = {
    "integrate_finite": False,
    "integrate_semi_infinite": False,
    "integrate_finite_batch": True,
    "integrate_semi_infinite_batch": True,
}


def _layer(module_name) -> str:
    short = str(module_name).rpartition(".")[2]
    if not str(module_name).startswith("bernsteinlab"):
        return "bench"
    return _LAYER.get(short, short)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _call(self, nid: int, fn, args, kwargs):
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def _callback(self, f, counter: str, per_array: bool):
        """Wrap a function the library receives as an argument."""
        nid = self._id(f"{_layer(getattr(f, '__module__', None))}.callback")
        counts = self.counts

        def wrapped(x, *rest):
            counts[counter] += len(x) if per_array else 1
            return self._call(nid, f, (x, *rest), {})

        return wrapped

    # -- wrappers ------------------------------------------------------------

    def _wrapper(self, module: str, attr: str, fn):
        layer = _layer("bernsteinlab." + module)
        name = f"{layer}.{attr}"
        nid = self._id(name)
        counts = self.counts
        calls = name + ".calls"
        call = self._call

        if attr in _QUAD_RULES:
            batch = _QUAD_RULES[attr]

            def wrapper(f, *args, **kwargs):
                counts["quadrature.calls"] += 1
                out = call(nid, fn, (self._callback(f, "quadrature.nodes", True), *args), kwargs)
                counts["quadrature.rows"] += len(out[0]) if batch else 1
                return out

        elif attr in ("golden_max", "bisect_root"):
            evals = name + ".f_evals"

            def wrapper(f, *args, **kwargs):
                counts[calls] += 1
                return call(nid, fn, (self._callback(f, evals, False), *args), kwargs)

        elif attr == "limit_error":

            def wrapper(*args, **kwargs):
                counts[calls] += 1
                before = counts["kernels.kernel_eval.calls"]
                out = call(nid, fn, args, kwargs)
                if counts["kernels.kernel_eval.calls"] == before:
                    counts["nearbest.limit_error.hits"] += 1
                return out

        elif attr == "minimize":

            def wrapper(*args, **kwargs):
                counts[calls] += 1
                out = call(nid, fn, args, kwargs)
                counts["nearbest.objective_calls"] += int(out.nfev)
                return out

        elif attr in ("kernel_values", "_bary"):
            points = name + ".points"

            def wrapper(*args, **kwargs):
                counts[calls] += 1
                counts[points] += int(np.size(args[2]))
                return call(nid, fn, args, kwargs)

        else:

            def wrapper(*args, **kwargs):
                counts[calls] += 1
                return call(nid, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", attr)
        return wrapper

    def install(self) -> None:
        """Wrap every target; raise, wrapping nothing, if one is missing, since
        its counts would read 0 and its time would fall to its callers."""
        missing = [
            f"{module}.{attr}"
            for module, attrs in TARGETS.items()
            for attr in attrs
            if not callable(getattr(sys.modules.get("bernsteinlab." + module), attr, None))
        ]
        if missing:
            raise RuntimeError(f"trace targets missing from the library: {', '.join(missing)}")
        mods = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "bernsteinlab"]
        for module, attrs in TARGETS.items():
            mod = sys.modules["bernsteinlab." + module]
            for attr in attrs:
                fn = getattr(mod, attr)
                wrapper = self._wrapper(module, attr, fn)
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patches.append((m, key, fn))
                            setattr(m, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            m, key, fn = self._patches.pop()
            setattr(m, key, fn)

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        layer_of = [name.partition(".")[0] for name in self.names]
        self_s: Counter = Counter()
        total: Counter = Counter()
        quad_outer = 0.0
        for i in range(n):
            nid = self.name_of[i]
            self_s[layer_of[nid]] += dur[i] - child[i]
            total[self.names[nid]] += dur[i]
            p = self.parent[i]
            if layer_of[nid] == "quadrature" and (p < 0 or layer_of[self.name_of[p]] != "quadrature"):
                quad_outer += dur[i]

        c = self.counts

        def per(a, b, scale=1.0):
            return scale * a / b if b else 0.0

        us = 1e6
        return {
            "quadrature.calls": c["quadrature.calls"],
            "quadrature.rows_per_call": per(c["quadrature.rows"], c["quadrature.calls"]),
            "quadrature.nodes": c["quadrature.nodes"],
            "quadrature.self_s": self_s["quadrature"],
            "quadrature.us_per_row": per(quad_outer, c["quadrature.rows"], us),
            "kernels.kernel_eval.calls": c["kernels.kernel_eval.calls"],
            "kernels.kernel_eval.us_per_call": per(
                total["kernels.kernel_eval"], c["kernels.kernel_eval.calls"], us
            ),
            "kernels.kernel_values.points": c["kernels.kernel_values.points"],
            "kernels.kernel_values.us_per_point": per(
                total["kernels.kernel_values"], c["kernels.kernel_values.points"], us
            ),
            "kernels.sup_norm.s": total["kernels.sup_norm_H"] + total["kernels.sup_norm_H1"],
            "kernels.self_s": self_s["kernels"],
            "search.golden_max.calls": c["search.golden_max.calls"],
            "search.golden_max.f_evals": c["search.golden_max.f_evals"],
            "search.bisect_root.f_evals": c["search.bisect_root.f_evals"],
            "search.self_s": self_s["search"],
            "nearbest.objective_calls": c["nearbest.objective_calls"],
            "nearbest.limit_error.calls": c["nearbest.limit_error.calls"],
            "nearbest.limit_error.cache_hit_ratio": per(
                c["nearbest.limit_error.hits"], c["nearbest.limit_error.calls"]
            ),
            "nearbest.build_cache.s": total["nearbest.build_cache"],
            "nearbest.self_s": self_s["nearbest"],
            "remez.best_poly.calls": c["remez.best_poly.calls"],
            "remez.exchanges": c["remez._cheb_vander.calls"],
            "remez.us_per_exchange": per(total["remez.best_poly"], c["remez._cheb_vander.calls"], us),
            "remez.self_s": self_s["remez"],
            "chebinterp.sup_error.calls": c["chebinterp.sup_error.calls"],
            "chebinterp.points": c["chebinterp._bary.points"],
            "chebinterp.us_per_point": per(total["chebinterp._bary"], c["chebinterp._bary.points"], us),
            "chebinterp.self_s": self_s["chebinterp"],
            "entire.H_alpha_integral.us_per_call": per(
                total["entire.H_alpha_integral"], c["entire.H_alpha_integral.calls"], us
            ),
            "entire.H_alpha_series.us_per_call": per(
                total["entire.H_alpha_series"], c["entire.H_alpha_series.calls"], us
            ),
            "asymptotics.self_s": self_s["asymptotics"],
            "specfun.calls": sum(v for k, v in c.items() if k.startswith("specfun.")),
            "specfun.self_s": self_s["specfun"],
            "cli.emit.s": total["cli.emit"],
            "cli.self_s": self_s["cli"],
        }

    def write(self, path: str) -> None:
        payload = {
            "names": self.names,
            "name": list(self.name_of),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
            "counts": dict(sorted(self.counts.items())),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))
