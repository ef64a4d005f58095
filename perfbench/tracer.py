"""Spans around calls into haarlab's modules, recorded from outside the
package.

A Tracer replaces public functions at the module attribute their caller
looks up (``haarlab.cli.ks_distance``, ``haarlab.haar_expect.phi``, ...)
with wrappers that record a span: name, start, end, parent span and
thread.  Spans stay in memory until the pass ends.  Nothing inside
``src/`` changes and no ``_``-prefixed function is wrapped.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import threading
import warnings
from collections import Counter, defaultdict
from time import perf_counter
from typing import NamedTuple

# metric name -> unit, in the order they are reported
LAYER_METRICS = {
    "haar_expect.calls": "count",
    "haar_expect.s": "s",
    "haar_expect.self_s": "s",
    "haar_expect.pairs": "count",
    "haar_expect.trace_keys": "count",
    "haar_expect.zero_skips": "count",
    "haar_expect.load_csv_s": "s",
    "combinat.alpha_pairings": "count",
    "combinat.pi_epsilon_calls": "count",
    "combinat.pi_epsilon_s": "s",
    "weingarten.phi_calls": "count",
    "weingarten.phi_s": "s",
    "weingarten.tables_built": "count",
    "weingarten.build_s": "s",
    "exact.mat_mul_calls": "count",
    "exact.mat_mul_s": "s",
    "rmt.sample_calls": "count",
    "rmt.sample_s": "s",
    "rmt.evaluate_s": "s",
    "rmt.spectrum_s": "s",
    "rmt.histogram_s": "s",
    "rmt.ks_s": "s",
    "rmt.pool_busy_frac": "ratio",
    "densities.cdf_calls": "count",
    "densities.cdf_s": "s",
    "densities.law_build_s": "s",
    "densities.cdf_quad_warnings": "count",
    "cumulants.s": "s",
    "emit.bytes": "count",
    "emit.s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


class Span(NamedTuple):
    ident: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers on construction; close() puts the original
    functions back."""

    def __init__(self, threads: int):
        from haarlab import cli, haar_expect, rmt, weingarten
        self.threads = threads
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list = []
        self._keys: set = set()
        self._warn_filters = None

        self._wrap(cli, "expected_trace_product",
                   "haar_expect.expected_trace_product",
                   after=self._close_trace_keys)
        self._wrap(cli, "load_matrix_csv", "haar_expect.load_matrix_csv")
        self._wrap(haar_expect, "enumerate_alpha_pairings",
                   "combinat.enumerate_alpha_pairings",
                   before=list, after=self._count_pairings)
        self._wrap(haar_expect, "pi_epsilon", "combinat.pi_epsilon",
                   after=lambda key: self._keys.add(key))
        self._wrap(haar_expect, "phi", "weingarten.phi")
        self._wrap(haar_expect, "mat_mul", "exact.mat_mul")
        self._wrap(weingarten, "wg_exact", "weingarten.build")
        self._wrap(weingarten, "wg_pseudo", "weingarten.build")
        self._wrap(cli, "trace_observables", "rmt.trace_observables")
        self._wrap(rmt, "sample_haar_unitary", "rmt.sample_haar_unitary")
        self._wrap(rmt, "evaluate", "rmt.evaluate", outermost=True)
        self._wrap(rmt, "spectrum", "rmt.spectrum")
        self._wrap(rmt, "empirical_cumulants", "cumulants.empirical_cumulants")
        self._wrap(cli, "histogram", "rmt.histogram")
        self._wrap(cli, "ks_distance", "rmt.ks_distance")
        self._wrap(cli, "arcsine_law", "densities.law_build",
                   before=self._traced_law)
        self._wrap(cli, "kesten_mckay_law", "densities.law_build",
                   before=self._traced_law)
        for attr in ("csv_bytes", "json_bytes", "svg_histogram"):
            self._wrap(cli, attr, "emit." + attr, after=self._count_bytes)

        # quad's IntegrationWarning is counted every time it fires, not
        # only the first time per location.
        from scipy.integrate import IntegrationWarning
        self._warn_filters = warnings.filters[:]
        self._showwarning = warnings.showwarning
        warnings.simplefilter("always", IntegrationWarning)

        def showwarning(message, category, *args, **kwargs):
            if issubclass(category, IntegrationWarning):
                self.counts["densities.cdf_quad_warnings"] += 1
            self._showwarning(message, category, *args, **kwargs)

        warnings.showwarning = showwarning

    def close(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()
        if self._warn_filters is not None:
            warnings.filters[:] = self._warn_filters
            warnings.showwarning = self._showwarning
            self._warn_filters = None

    # ------------------------------------------------------------------
    # wrapping

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, fn, name: str, outermost: bool = False):
        """fn wrapped to record one span per call."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            if outermost and stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            ident = next(ids)
            parent = stack[-1][0] if stack else None
            stack.append((ident, name))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(Span(ident, name, start, end, parent,
                                  threading.get_ident()))

        return wrapper

    def _wrap(self, module, attr: str, name: str, before=None, after=None,
              outermost: bool = False) -> None:
        """Replace module.attr by a timed wrapper.  before(result) may
        replace the result inside the span; after(result) sees it once
        the span is closed."""
        fn = getattr(module, attr)
        inner = fn
        if before is not None:
            inner = functools.wraps(fn)(lambda *a, **k: before(fn(*a, **k)))
        timed = self._timed(inner, name, outermost)
        if after is not None:
            def wrapper(*args, **kwargs):
                result = timed(*args, **kwargs)
                after(result)
                return result
        else:
            wrapper = timed
        setattr(module, attr, functools.wraps(fn)(wrapper))
        self._restore.append((module, attr, fn))

    def _count_pairings(self, pairings: list) -> None:
        self.counts["combinat.alpha_pairings"] += len(pairings)
        self.counts["haar_expect.pairs"] += len(pairings) ** 2

    def _close_trace_keys(self, _value) -> None:
        self.counts["haar_expect.trace_keys"] += len(self._keys)
        self._keys.clear()

    def _count_bytes(self, data: bytes) -> None:
        self.counts["emit.bytes"] += len(data)

    def _traced_law(self, law):
        """The law with its cdf timed, so the calls ks_distance makes
        through it are spans."""
        return dataclasses.replace(law, cdf=self._timed(law.cdf,
                                                        "densities.cdf"))

    # ------------------------------------------------------------------
    # per-layer metrics

    @staticmethod
    def _by_name(spans: list) -> tuple:
        """(total seconds, calls, self seconds) per span name; self time
        is a span's duration minus that of its direct children."""
        total: dict = defaultdict(float)
        calls: Counter = Counter()
        child: dict = defaultdict(float)
        for s in spans:
            total[s.name] += s.seconds
            calls[s.name] += 1
            if s.parent is not None:
                child[s.parent] += s.seconds
        self_time: dict = defaultdict(float)
        for s in spans:
            self_time[s.name] += s.seconds - child[s.ident]
        return total, calls, self_time

    def self_by_layer(self) -> dict:
        """Self seconds per module on the main thread, for the
        stage-coverage report (pool threads overlap it in time)."""
        main = threading.main_thread().ident
        out: dict = defaultdict(float)
        spans = [s for s in self.spans if s.thread == main]
        for name, seconds in self._by_name(spans)[2].items():
            out[name.split(".")[0]] += seconds
        return dict(out)

    def layer_metrics(self, wall: float) -> dict:
        """Every LAYER_METRICS value for the pass except the overhead,
        which needs an untraced pass to compare with."""
        total, calls, self_time = self._by_name(self.spans)
        main = threading.main_thread().ident
        top = sum(s.seconds for s in self.spans
                  if s.parent is None and s.thread == main)
        busy = total["rmt.sample_haar_unitary"] + total["rmt.evaluate"]
        pool = total["rmt.trace_observables"] * self.threads
        etp = "haar_expect.expected_trace_product"
        return {
            "haar_expect.calls": calls[etp],
            "haar_expect.s": total[etp],
            "haar_expect.self_s": self_time[etp],
            "haar_expect.pairs": self.counts["haar_expect.pairs"],
            "haar_expect.trace_keys": self.counts["haar_expect.trace_keys"],
            "haar_expect.zero_skips": (self.counts["haar_expect.pairs"]
                                       - calls["weingarten.phi"]),
            "haar_expect.load_csv_s": total["haar_expect.load_matrix_csv"],
            "combinat.alpha_pairings": self.counts["combinat.alpha_pairings"],
            "combinat.pi_epsilon_calls": calls["combinat.pi_epsilon"],
            "combinat.pi_epsilon_s": total["combinat.pi_epsilon"],
            "weingarten.phi_calls": calls["weingarten.phi"],
            "weingarten.phi_s": total["weingarten.phi"],
            "weingarten.tables_built": calls["weingarten.build"],
            "weingarten.build_s": total["weingarten.build"],
            "exact.mat_mul_calls": calls["exact.mat_mul"],
            "exact.mat_mul_s": total["exact.mat_mul"],
            "rmt.sample_calls": calls["rmt.sample_haar_unitary"],
            "rmt.sample_s": total["rmt.sample_haar_unitary"],
            "rmt.evaluate_s": total["rmt.evaluate"],
            "rmt.spectrum_s": total["rmt.spectrum"],
            "rmt.histogram_s": total["rmt.histogram"],
            "rmt.ks_s": total["rmt.ks_distance"],
            "rmt.pool_busy_frac": busy / pool if pool else 0.0,
            "densities.cdf_calls": calls["densities.cdf"],
            "densities.cdf_s": total["densities.cdf"],
            "densities.law_build_s": total["densities.law_build"],
            "densities.cdf_quad_warnings":
                self.counts["densities.cdf_quad_warnings"],
            "cumulants.s": total["cumulants.empirical_cumulants"],
            "emit.bytes": self.counts["emit.bytes"],
            "emit.s": sum(t for n, t in total.items()
                          if n.startswith("emit.")),
            "trace.coverage": top / wall if wall else 0.0,
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,thread\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.ident},{s.name},{s.start!r},{s.end!r},"
                         f"{parent},{s.thread}\n")
