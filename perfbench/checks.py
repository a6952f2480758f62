"""Correctness gates applied to every case that returned a trace.

A case fails when any gate fails:
- every StepRecord spends exactly its product budget;
- f never rises for the monotone methods;
- the last recorded f matches a from-scratch evaluation through the
  program's public audit path within 1e-10 relative.
"""

from __future__ import annotations

import numpy as np

AUDIT_RTOL = 1e-10
# same slack as the acceptance suite's monotonicity criterion
MONOTONE_SLACK = 1e-12


def budget(model: str, method: str, rec, k: int) -> int:
    """Exact products (or solves) iteration k (1-based) must spend."""
    from subsearch import matfact, network, optimizers

    if model in ("logistic", "lsq"):
        if method in optimizers.LO_SO_METHODS:
            return 2
        if method in ("gd(1/l)", "nag(1/l)"):
            return 2 + rec.inner_iters       # one product per doubling
    elif model in ("net2", "net2_reg"):
        if method in network.NET_LO_SO_METHODS:
            return 2
        if method == "gd(1/l)":
            return 2 + rec.inner_iters
    elif model == "matfact":
        refresh = matfact.MfState.__dataclass_fields__["refresh_every"]
        extra = (method in ("momentum-u", "momentum-both")
                 and k % refresh.default == 0)
        return matfact.MF_BUDGETS[method] + extra
    elif model == "logdet":
        return 1 if method == "rank1" else 2
    raise KeyError(f"no product budget for {model} {method}")


def monotone(model: str, method: str) -> bool:
    from subsearch import network, optimizers

    if model in ("logistic", "lsq"):
        return method in optimizers.MONOTONE_METHODS
    if model in ("net2", "net2_reg"):
        return method in network.NET_MONOTONE_METHODS
    return False


def audit_value(model: str, run_args, state) -> float:
    """f at the final state, recomputed through the public audit path."""
    from subsearch import matfact

    if model in ("logistic", "lsq"):
        return run_args[1].f_value(state.w, audit=True)
    if model in ("net2", "net2_reg"):
        return run_args[1].value(state.W, state.v, audit=True)
    if model == "matfact":
        return matfact.pca_value(state.U @ state.W.T, state.X)
    L = np.linalg.cholesky(state.V)
    return (float(np.sum(state.S * state.V))
            - 2.0 * float(np.sum(np.log(np.diag(L)))))


def gate(cfg, trace, run_args, state) -> list[str]:
    """Messages for every failed gate; empty when the case is correct."""
    msgs = []
    model, method = cfg.model, cfg.method
    for k, rec in enumerate(trace.records, start=1):
        want = budget(model, method, rec, k)
        if rec.products != want:
            msgs.append(f"budget: iteration {k} spent {rec.products}, "
                        f"budget {want}")
            break
    if monotone(model, method):
        f_prev = trace.f0
        for k, rec in enumerate(trace.records, start=1):
            if rec.f > f_prev + MONOTONE_SLACK * max(1.0, abs(f_prev)):
                msgs.append(f"monotone: f rose at iteration {k}: "
                            f"{f_prev:.17g} -> {rec.f:.17g}")
                break
            f_prev = rec.f
    if trace.records:
        f_rec = trace.records[-1].f
        f_true = audit_value(model, run_args, state)
        if not abs(f_rec - f_true) <= AUDIT_RTOL * abs(f_true):
            msgs.append(f"audit: recorded f {f_rec:.17g} vs "
                        f"recomputed {f_true:.17g}")
    return msgs


def budget_violations(model: str, method: str, records) -> int:
    return sum(rec.products != budget(model, method, rec, k)
               for k, rec in enumerate(records, start=1))
