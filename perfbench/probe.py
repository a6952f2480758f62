"""Instrumentation installed from outside the program.

Every run gets a step clock: the model `run` functions are wrapped so that
the per-iteration `callback` they already accept also takes one
`perf_counter()` stamp.  A traced run additionally wraps each layer boundary
(counted products, metered mf products and SPD solves, the subsolver and its
restriction callbacks, strong Wolfe, data generation and parsing, CSV
emission, the harness callback) and records spans in memory.  All patches
are undone when the `instrument` context exits.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

perf = time.perf_counter

# layer whose closures form the subproblem each module hands to `solve`
RESTRICT_LAYER = {"optimizers": "objectives", "network": "network",
                  "matfact": "matfact", "logdet": "logdet"}
PRODUCTS = ("matvec", "rmatvec", "matmat", "rmatmat")


class CaseProbe:
    """What the wrapped run loop saw during one case."""

    def __init__(self):
        self.args = ()              # positional arguments of the model run
        self.stamps = []            # perf_counter at entry, then per step
        self.records = []           # StepRecord of each completed iteration
        self.result = None          # (state, records) when run returned


class Session:
    """Holds the probe of the case currently running."""

    def __init__(self):
        self.probe = CaseProbe()


class Tracer:
    """In-memory spans (name, start, end, parent, case) and per-case counts.

    Spans live in parallel arrays: a traced pass can record over a million
    restriction callbacks.
    """

    def __init__(self):
        self.names = []
        self.starts, self.ends = array("d"), array("d")
        self.parents, self.cases = array("q"), array("q")
        self._stack = []
        self.case = None            # spans and counts only while set
        self.counts = {}            # case -> Counter
        self.c = Counter()

    def begin_case(self, case):
        self.case = case
        self.c = self.counts.setdefault(case, Counter())

    def end_case(self):
        self.case = None

    def wrap(self, name, fn, count=None, after=None, on_error=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, cases, stack = self.parents, self.cases, self._stack

        def traced(*args, **kwargs):
            if self.case is None:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            cases.append(self.case)
            ends.append(0.0)
            starts.append(perf())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if on_error is not None:
                    self.c[on_error] += 1
                raise
            finally:
                ends[idx] = perf()
                stack.pop()
            if count is not None:
                self.c[count] += 1
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def totals(self):
        """Span time and self time per span name, and summed counts."""
        dur, self_t = Counter(), Counter()
        child = [0.0] * len(self.names)
        spans = list(zip(self.names, self.starts, self.ends, self.parents))
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            dur[name] += end - start
            self_t[name] += end - start - child[i]
        counts = Counter()
        for c in self.counts.values():
            counts.update(c)
        return dur, self_t, counts


def _payload_bytes(payload):
    if hasattr(payload, "indptr"):
        return (payload.data.nbytes + payload.indices.nbytes
                + payload.indptr.nbytes)
    return payload.nbytes


def _run_wrapper(session, tracer, module, orig):
    def run(*args, callback=None, **kwargs):
        probe = session.probe
        probe.args = args
        stamps, records = probe.stamps, probe.records
        inner = callback
        if tracer is not None and callback is not None:
            inner = tracer.wrap("harness.gnorm", callback)

        def step_clock(k, state, rec):
            if inner is not None:
                inner(k, state, rec)
            records.append(rec)
            stamps.append(perf())

        stamps.append(perf())
        probe.result = orig(*args, callback=step_clock, **kwargs)
        return probe.result

    if tracer is not None:
        return tracer.wrap(f"{module}.run", run)
    return run


def _solve_wrapper(tracer, layer, orig):
    from subsearch.subsolver import SubProblem, SubSolverOptions
    name = f"{layer}.restrict"

    def solve(sp, opts=None, theta0=None):
        hess = sp.hess
        if hess is not None:
            hess = tracer.wrap(name, hess, count="subsolver.hess_calls")
        wrapped = SubProblem(
            sp.dim, tracer.wrap(name, sp.value, count="subsolver.value_calls"),
            tracer.wrap(name, sp.grad, count="subsolver.grad_calls"), hess)
        res = orig(wrapped, opts, theta0=theta0)
        c = tracer.c
        c["subsolver.calls"] += 1
        c["subsolver.inner_iters"] += res.inner_iters
        if res.inner_iters >= (opts or SubSolverOptions()).max_iters:
            c["subsolver.cap_hits"] += 1
        return res

    return tracer.wrap("subsolver.solve", solve)


def _install_tracer(tracer, patch, mods, harness):
    from subsearch.counted import CountedMatrix
    from subsearch.logdet import SpdState
    from subsearch.matfact import MfState

    def product(args, kwargs, result):
        audit = kwargs.get("audit", len(args) > 2 and args[2])
        c = tracer.c
        c["counted.audit_products" if audit else "counted.products"] += 1
        c["counted.bytes_computed"] += (_payload_bytes(args[0].payload)
                                        + getattr(args[1], "nbytes", 0)
                                        + result.nbytes)

    def metered(counter, audit_pos):
        def after(args, kwargs, result):
            audit = kwargs.get("audit", len(args) > audit_pos
                               and args[audit_pos])
            tracer.c[counter + (".audit" if audit else "")] += 1
        return after

    def wolfe(args, kwargs, res):
        c = tracer.c
        c["linesearch.calls"] += 1
        c["linesearch.evals"] += res.evals
        c["linesearch.fails"] += not res.success
        c["linesearch.unverified"] += res.success and not res.verified

    for meth in PRODUCTS:
        patch(CountedMatrix, meth, tracer.wrap(
            f"counted.{meth}", CountedMatrix.__dict__[meth], after=product))
    patch(CountedMatrix, "dense", tracer.wrap(
        "counted.dense", CountedMatrix.dense, count="counted.dense_calls"))
    patch(MfState, "prod", tracer.wrap("matfact.prod", MfState.prod,
                                       after=metered("matfact.prods", 3)))
    patch(SpdState, "solve_system", tracer.wrap(
        "logdet.solve", SpdState.solve_system,
        after=metered("logdet.solves", 2)))
    for name, mod in mods.items():
        patch(mod, "solve", _solve_wrapper(tracer, RESTRICT_LAYER[name],
                                           mod.solve))
        if hasattr(mod, "strong_wolfe"):
            patch(mod, "strong_wolfe", tracer.wrap(
                "linesearch.strong_wolfe", mod.strong_wolfe, after=wolfe,
                on_error="linesearch.fails"))
    for fn in ("gen_logistic", "gen_quadratic", "parse_libsvm"):
        patch(harness, fn, tracer.wrap(f"data.{fn}", getattr(harness, fn)))
    patch(harness, "emit_csv",
          tracer.wrap("harness.emit_csv", harness.emit_csv))


@contextmanager
def instrument(session, tracer=None):
    """Install the step clock (always) and the span wrappers (traced)."""
    from subsearch import harness, logdet, matfact, network, optimizers

    mods = {"optimizers": optimizers, "network": network,
            "matfact": matfact, "logdet": logdet}
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        for name, mod in mods.items():
            patch(mod, "run", _run_wrapper(session, tracer, name, mod.run))
        if tracer is not None:
            _install_tracer(tracer, patch, mods, harness)
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
