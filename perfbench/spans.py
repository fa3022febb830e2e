"""Spans around the public functions of ``szeta``, installed from outside.

The package has no tracing of its own, so :func:`install` replaces each
traced function by a wrapper under every name that binds it: the defining
module, every module that did ``from .mod import fn``, and the package
namespace.  A wrapper records one span (name, start, end, parent id, thread)
per call and may add counts.  Spans stay in memory; :meth:`Tracer.spans`
hands them out at the end and :func:`per_layer` derives the metrics.

Threads: each thread keeps its own stack of open spans, so the spans of the
zero-scan worker pool are roots of their own thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

import numpy as np
from szeta.errors import AccuracyError

# (module that defines it, function name, metric prefix)
TRACED = [
    ("szeta.zeros", "riemann_siegel_Z", "zeros.Z"),
    ("szeta.zeros", "find_zeros", "zeros.find_zeros"),
    ("szeta.zeros", "import_zeros", "zeros.import_zeros"),
    ("szeta.zeros", "export_zeros", "zeros.export_zeros"),
    ("szeta.paircorr", "pcf_curve", "paircorr.pcf_curve"),
    ("szeta.paircorr", "pcf", "paircorr.pcf"),
    ("szeta.paircorr", "lemma6_eval", "paircorr.lemma6_eval"),
    ("szeta.paircorr", "lemma5_check", "paircorr.lemma5_check"),
    ("szeta.paircorr", "f_weighted_kernel_integral",
     "paircorr.f_weighted_kernel_integral"),
    ("szeta.paircorr", "weighted_khat_sum", "paircorr.weighted_khat_sum"),
    ("szeta.kernels", "khat_many", "kernels.khat_many"),
    ("szeta.kernels", "kpp_transform_many", "kernels.kpp_transform_many"),
    ("szeta.kernels", "khat", "kernels.khat"),
    ("szeta.kernels", "check_identity", "kernels.check_identity"),
    ("szeta.quadrature", "integrate", "quadrature.integrate"),
    ("szeta.s_of_t", "second_moment", "s_of_t.second_moment"),
    ("szeta.s_of_t", "s_mean", "s_of_t.s_mean"),
    ("szeta.s_of_t", "g_and_h_direct", "s_of_t.g_and_h_direct"),
    ("szeta.s_of_t", "s_explicit", "s_of_t.s_explicit"),
    ("szeta.s_of_t", "s_exact", "s_of_t.s_exact"),
    ("szeta.s_of_t", "make_sinh_table", "s_of_t.make_sinh_table"),
    ("szeta.primes", "build_prime_table", "primes.build_prime_table"),
    ("szeta.primes", "prime_power_double_sum",
     "primes.prime_power_double_sum"),
    ("szeta.theorem", "full_report", "theorem.full_report"),
    ("szeta.theorem", "theorem_rhs", "theorem.theorem_rhs"),
    ("szeta.theorem", "lemma_8_9_10_eval", "theorem.lemma_8_9_10_eval"),
    ("szeta.cli", "main", "cli.main"),
]

# counts the wrappers add; each reads 0 when its function is not called
COUNTED = [
    "zeros.Z.points",
    "kernels.khat_many.points",
    "kernels.kpp_transform_many.points",
    "quadrature.integrate.points",
    "quadrature.integrate.failures",
    "paircorr.pair_evals",
]

# paircorr functions that walk all ordinate pairs themselves, with the
# argument positions of (zeros, T); each evaluates one kernel per pair,
# except pcf_curve, which evaluates one per alpha-grid point
_PAIR_WALKERS = {
    "paircorr.pcf": (1, 2),
    "paircorr.pcf_curve": (0, 1),
    "paircorr.f_weighted_kernel_integral": (0, 1),
    "paircorr.lemma5_check": (0, 1),
    "paircorr.lemma6_eval": (0, 1),
    "paircorr.weighted_khat_sum": (0, 4),
}


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _pair_evals(name, args, kwargs) -> int:
    zpos, tpos = _PAIR_WALKERS[name]
    zeros = _arg(args, kwargs, zpos, "zeros")
    T = _arg(args, kwargs, tpos, "T")
    n = len(zeros.ordinates if T is None else zeros.up_to(T))
    per_pair = 1
    if name == "paircorr.pcf_curve":
        per_pair = int(round(_arg(args, kwargs, 2, "alpha_max")
                             / _arg(args, kwargs, 3, "step"))) + 1
    return n * (n - 1) // 2 * per_pair


class Tracer:
    """In-memory span and counter store shared by all wrappers."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans = []          # (id, parent, thread, name, start, end)
        self.counts = defaultdict(float)
        self.worst_err = 0.0
        self.integrand_calls = 0

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def count(self, key: str, n: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += n

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "quadrature.integrate":
                args, kwargs = tracer._counted_integrand(args, kwargs)
            elif name in _PAIR_WALKERS:
                tracer.count("paircorr.pair_evals",
                             _pair_evals(name, args, kwargs))
            elif name in ("kernels.khat_many", "kernels.kpp_transform_many"):
                tracer.count(name + ".points", np.size(args[0]))
            elif name == "zeros.Z":
                tracer.count("zeros.Z.points", np.size(args[0]))
            stack = tracer._stack()
            with tracer._lock:
                sid = len(tracer._spans)
                tracer._spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except AccuracyError:
                if name == "quadrature.integrate":
                    tracer.count("quadrature.integrate.failures")
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._spans[sid] = (sid, parent, threading.get_ident(),
                                      name, start, end)
            if name == "quadrature.integrate":
                with tracer._lock:
                    tracer.worst_err = max(tracer.worst_err,
                                           abs(float(result[1])))
            elif name == "zeros.find_zeros":
                tracer.count("zeros.ordinates_found", len(result))
            return result

        return traced

    def _counted_integrand(self, args, kwargs):
        f = args[0] if args else kwargs.pop("f")

        def counted(x):
            with self._lock:
                self.counts["quadrature.integrate.points"] += np.size(x)
                self.integrand_calls += 1
            return f(x)

        return (counted,) + tuple(args[1:]), kwargs

    def spans(self):
        return [s for s in self._spans if s is not None]


def install(tracer: Tracer) -> int:
    """Patch every binding of every traced function; returns bindings patched.

    Raises if a traced function is missing, so a rename in the package
    breaks the traced run instead of reading as a layer that costs nothing.
    """
    patched = 0
    for mod_name, fn_name, metric in TRACED:
        orig = getattr(importlib.import_module(mod_name), fn_name, None)
        if orig is None:
            raise LookupError(f"traced function {mod_name}.{fn_name} "
                              "is missing; update spans.TRACED")
        wrapper = tracer.wrap(metric, orig)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "szeta"
                                      or name.startswith("szeta.")):
                continue
            for attr, val in list(vars(module).items()):
                if val is orig:
                    setattr(module, attr, wrapper)
                    patched += 1
    return patched


def overhead_s(n_spans: int, n_integrand_calls: int,
               reps: int = 20000) -> float:
    """Tracing cost of a traced run: the measured cost of one span times the
    spans, plus that of one counted integrand call times those calls.

    A difference of traced and untraced wall times cannot resolve this cost
    on a machine whose speed drifts by more than the cost itself, so each
    per-call cost is the median of five timings of ``reps`` wrapped calls of
    a no-op, minus as many plain calls."""
    tracer = Tracer()
    noop = lambda *a: None                                    # noqa: E731
    span = tracer.wrap("overhead.noop", noop)
    counted = tracer._counted_integrand((noop,), {})[0][0]
    x = np.zeros(1)

    def per_call(fn):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(reps):
                fn(x)
            t1 = time.perf_counter()
            for _ in range(reps):
                noop(x)
            times.append(((t1 - t0) - (time.perf_counter() - t1)) / reps)
            tracer._spans.clear()
        return max(0.0, float(np.median(times)))

    return n_spans * per_call(span) + n_integrand_calls * per_call(counted)


def per_layer(spans, counts, worst_err) -> dict:
    """Busy time, self time and call counts per traced name, plus ratios."""
    children = defaultdict(float)
    for sid, parent, _, _, start, end in spans:
        if parent >= 0:
            children[parent] += end - start
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_t = defaultdict(float)
    for sid, _, _, name, start, end in spans:
        calls[name] += 1
        busy[name] += end - start
        self_t[name] += (end - start) - children[sid]

    out = {key: 0.0 for key in COUNTED}
    for _, _, prefix in TRACED:
        out[prefix + ".calls"] = calls[prefix]
        out[prefix + ".busy_s"] = busy[prefix]
        out[prefix + ".self_s"] = self_t[prefix]
    for key, val in counts.items():
        out[key] = val

    def ratio(a, b):
        return a / b if b else 0.0

    out["zeros.Z.points_per_s"] = ratio(counts["zeros.Z.points"],
                                        busy["zeros.Z"])
    out["zeros.Z.points_per_zero"] = ratio(counts["zeros.Z.points"],
                                           counts["zeros.ordinates_found"])
    # pair time: paircorr spans not nested inside another paircorr span
    by_id = {s[0]: s for s in spans}
    pair_busy = 0.0
    for sid, parent, _, name, start, end in spans:
        if not name.startswith("paircorr."):
            continue
        p = parent
        while p >= 0 and not by_id[p][3].startswith("paircorr."):
            p = by_id[p][1]
        if p < 0:
            pair_busy += end - start
    out["paircorr.pair_evals_per_s"] = ratio(counts["paircorr.pair_evals"],
                                             pair_busy)
    out["quadrature.integrate.points_per_call"] = ratio(
        counts["quadrature.integrate.points"], calls["quadrature.integrate"])
    out["quadrature.integrate.worst_err"] = worst_err
    return out
