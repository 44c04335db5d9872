"""Wrappers around momentcert's public functions, installed from outside.

`Probe` is the result-only wrapper every run installs: it reads each
quadrature and Monte Carlo result (convergence flag and error budget) and
times nothing.  `Tracer` is the traced run's instrument: it opens a span
around each call into a layer, keeps the spans in memory with parent
links, and computes each layer's self time from them at the end.  It
reads quadrature results through the Probe rather than wrapping
`haagerup_moment` a second time.

Both patch a function in every momentcert module namespace that holds
it, because `cli` and `bounds` import names directly
(`from .oracle import mc_moment`) while `latala_logconcave_bounds`
imports `mc_moment` lazily from `oracle` at call time.  Methods are
patched on their class.
"""
from __future__ import annotations

import dataclasses
import json
import sys
import threading
from dataclasses import dataclass
from time import perf_counter


class Patcher:
    """Replaces functions everywhere they are bound; `restore` undoes it."""

    def __init__(self):
        self._undo: list[tuple] = []

    def function(self, module, name: str, make):
        orig = getattr(module, name)
        new = make(orig)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("momentcert"):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, new)
        return new

    def method(self, cls, name: str, make):
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._undo.append((cls, name, raw))
        setattr(cls, name, new)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


def _after(fn, hook):
    """fn, calling hook(args, kwargs, result) after each call."""
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


class Probe:
    """Per-job record of quadrature convergence and engine error budgets.

    `budgets` maps ("quadrature", raw value) to the reported total error
    and ("mc", norm) to (half width, raw mean, raw half width).  A traced
    run sets `listener`, which is then called as listener(args, kwargs,
    result) after every `haagerup_moment` call."""

    def __init__(self):
        self.budgets: dict = {}
        self.unconverged = 0
        self.listener = None
        self._patcher = Patcher()

    def begin_job(self) -> None:
        self.budgets = {}
        self.unconverged = 0

    def _quadrature(self, args, kwargs, res) -> None:
        self.budgets[("quadrature", float(res.value))] = res.total_error
        self.unconverged += not res.converged
        if self.listener is not None:
            self.listener(args, kwargs, res)

    def _mc(self, args, kwargs, est) -> None:
        self.budgets[("mc", float(est.point))] = (
            est.half_width, est.raw_mean, est.raw_half_width)

    def install(self) -> None:
        from momentcert import charfn, oracle

        self._patcher.function(charfn, "haagerup_moment",
                               lambda f: _after(f, self._quadrature))
        self._patcher.function(oracle, "mc_moment", lambda f: _after(f, self._mc))

    def uninstall(self) -> None:
        self._patcher.restore()


# -- spans --------------------------------------------------------------------


@dataclass
class Span:
    """One call into a layer, or a run of consecutive leaf calls with the
    same parent (`calls` > 1) whose summed duration is `busy`."""

    name: str
    parent: int
    thread: int
    start: float
    end: float = 0.0
    calls: int = 1
    busy: float = 0.0


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: its duration minus the part of it that
    its children cover.

    Children in the parent's own thread run one after another, so they
    cover the sum of their busy times.  Children in other threads (the
    Monte Carlo pool) may overlap each other, so they cover the union of
    their intervals.  The parent's thread waits while the pool runs, so
    the two groups do not overlap."""
    own: list[float] = [0.0] * len(spans)
    other: list[list] = [[] for _ in spans]
    for s in spans:
        if s.parent < 0:
            continue
        if spans[s.parent].thread == s.thread:
            own[s.parent] += s.busy
        else:
            other[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = own[i]
        end = -float("inf")
        for a, b in sorted(other[i]):
            a, b = max(a, s.start, end), min(b, s.end)
            if b > a:
                covered += b - a
                end = b
        out.append(s.busy - covered)
    return out


class Tracer:
    """Spans and counters of a traced run, keyed by layer name.  `probe`
    is the installed Probe that reports quadrature results."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._leaf_runs: dict = {}
        self._sorted_inputs: dict = {}
        self._quad_inputs: set = set()
        self._patcher = Patcher()

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list) -> int:
        if stack:
            return stack[-1]
        # A pool thread's call was caused by the main thread's open span.
        return self._main_stack[-1] if self._main_stack else -1

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            thread = threading.get_ident()
            with self._lock:
                idx = len(self.spans)
                self.spans.append(Span(name, parent, thread, perf_counter()))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                s = self.spans[idx]
                s.end = perf_counter()
                s.busy = s.end - s.start

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, name: str, start: float, end: float, counts=()) -> None:
        """Merge a call that makes no traced calls into its parent's run,
        and add each (counter, amount) of `counts`."""
        stack = self._stack()
        parent = self._parent(stack)
        thread = threading.get_ident()
        key = (parent, name, thread)
        with self._lock:
            for counter, amount in counts:
                self.counters[counter] = self.counters.get(counter, 0.0) + amount
            idx = self._leaf_runs.get(key)
            if idx is None:
                self._leaf_runs[key] = len(self.spans)
                self.spans.append(Span(name, parent, thread, start, end, 1, end - start))
            else:
                s = self.spans[idx]
                s.end = end
                s.calls += 1
                s.busy += end - start

    def leaf(self, name: str, fn):
        """Wrap a function that calls no traced function."""
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            t1 = perf_counter()
            self._leaf(name, t0, t1)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf_generator(self, name: str, fn):
        """Time a generator's steps, which run whenever the caller resumes it."""
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def steps():
                while True:
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._leaf(name, t0, perf_counter())
                        return
                    self._leaf(name, t0, perf_counter())
                    yield item

            return steps()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters read from arguments and results -------------------------

    def _on_sorted(self, args, kwargs, result):
        seq = args[0]
        self._sorted_inputs.setdefault(id(seq), seq)  # held so ids stay unique

    def _on_report(self, args, kwargs, result):
        reports = result if isinstance(result, tuple) else (result,)
        self.count("bounds.reports", len(reports))
        self.count("bounds.certifying", sum(r.certifying for r in reports))

    def _timed_product(self, product):
        """Wrap CharFunction.product so that the phi it returns times each
        evaluation as one "distmodel.charfn" leaf and counts its factors'
        calls and points.  Timing the product, not each factor's
        VariableSpec.charfn call, keeps the wrapper's cost out of the
        per-point loop: the quadrature evaluates phi at one point per call."""
        def wrapper(cls, specs):
            phi = product(cls, specs)
            fn, factors = phi.fn, len(specs)

            def timed(t):
                t0 = perf_counter()
                out = fn(t)
                t1 = perf_counter()
                self._leaf("distmodel.charfn", t0, t1,
                           (("distmodel.charfn.calls", factors),
                            ("distmodel.charfn.points", factors * getattr(out, "size", 1))))
                return out

            timed.factors = factors
            return dataclasses.replace(phi, fn=timed)

        wrapper.__wrapped__ = product
        return wrapper

    def _on_haagerup(self, args, kwargs, res):
        phi = args[0]
        p = args[1] if len(args) > 1 else kwargs["p"]
        tol = args[2] if len(args) > 2 else kwargs.get("tol", 1e-8)
        self._quad_inputs.add((phi.variance, phi.fourth_moment, phi.sixth_moment, p, tol))
        self.count("charfn.haagerup_moment.evaluations", res.evaluations)
        self.count("charfn.haagerup_moment.factor_evals",
                   res.evaluations * getattr(phi.fn, "factors", 1))
        self.count("charfn.haagerup_moment.nonconverged", not res.converged)

    def _counting(self, key, amount):
        def hook(args, kwargs, result):
            self.count(key, amount(args, kwargs, result))
        return hook

    def _refusals(self, fn, refused_type):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except refused_type:
                self.count("oracle.exact_discrete_moment.refused")
                raise

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        from momentcert import bounds, charfn, cli, combinatorics, exactmoments, oracle
        from momentcert.distmodel import VariableSpec

        pt = self._patcher

        def spanned(name, hook=None):
            def make(f):
                inner = _after(f, hook) if hook else f
                return self.span(name, inner)
            return make

        pt.function(cli, "run", spanned("cli.run", self._counting("cli.jobs", lambda *a: 1)))
        pt.method(bounds.SequenceSpec, "sorted", spanned("bounds.sorted", self._on_sorted))
        for fname in ("bound_p_2_4", "bound_even_symmetric", "bound_even_centered",
                      "bound_general_p", "latala_logconcave_bounds"):
            pt.function(bounds, fname, spanned("bounds.report", self._on_report))
        for fname in ("compute_m", "minimal_C_symmetric", "minimal_C_centered"):
            pt.function(bounds, fname, spanned("bounds.constants"))
        for fname in ("check_symmetric_tail_bounds", "check_centered_tail_bounds",
                      "check_rademacher_moment_ratio"):
            pt.function(bounds, fname, spanned("bounds.check"))

        pt.method(VariableSpec, "moments", lambda f: self.leaf("distmodel.moments", f))
        pt.method(VariableSpec, "sample_with", spanned(
            "distmodel.sample_with",
            self._counting("distmodel.sample_with.draws", lambda a, k, r: len(r))))

        pt.function(exactmoments, "sum_even_moment", spanned(
            "exactmoments.sum_even_moment",
            self._counting("exactmoments.sum_even_moment.profiles",
                           lambda a, k, r: len(a[0]))))
        pt.function(exactmoments, "rademacher_abs_moment", spanned(
            "exactmoments.rademacher_abs_moment",
            self._counting("exactmoments.rademacher_abs_moment.signs",
                           lambda a, k, r: 2 ** (len(a[0]) - 1))))
        # rademacher_even_moment only delegates to sum_even_moment.

        pt.method(charfn.CharFunction, "product", self._timed_product)
        pt.function(charfn, "haagerup_moment", spanned("charfn.haagerup_moment"))
        self.probe.listener = self._on_haagerup
        for fname in ("check_cosine_bounds", "check_main_charfn_inequality"):
            pt.function(charfn, fname, spanned("charfn.grid_check"))

        pt.function(oracle, "mc_moment", spanned(
            "oracle.mc_moment",
            self._counting("oracle.mc_moment.samples", lambda a, k, r: r.samples)))
        pt.function(oracle, "exact_discrete_moment", lambda f: self.span(
            "oracle.exact_discrete_moment", self._refusals(f, oracle.SupportExplosion)))
        pt.function(oracle, "verify_report", spanned(
            "oracle.verify_report",
            self._counting("oracle.verify_report.fail", lambda a, k, r: not r.passed)))

        pt.function(combinatorics, "enumerate_indices",
                    lambda f: self.leaf_generator("combinatorics.enumerate_indices", f))
        pt.function(combinatorics, "elementary_symmetric",
                    spanned("combinatorics.elementary_symmetric"))

    def uninstall(self) -> None:
        self._patcher.restore()
        self.probe.listener = None

    # -- results ----------------------------------------------------------

    def layer_totals(self) -> dict:
        """{layer: (calls, self seconds)} over all spans."""
        totals: dict = {}
        for s, own in zip(self.spans, self_times(self.spans)):
            calls, secs = totals.get(s.name, (0, 0.0))
            totals[s.name] = (calls + s.calls, secs + own)
        return totals

    def distinct(self) -> dict:
        return {"bounds.sorted": len(self._sorted_inputs),
                "charfn.haagerup_moment": len(self._quad_inputs)}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "parent": s.parent,
                                     "thread": s.thread, "start": s.start, "end": s.end,
                                     "calls": s.calls, "busy": s.busy}) + "\n")
