"""Workload definitions: which cases run, at which shapes, on which inputs.

A case is one `harness.run_experiment(ExperimentConfig(...))` call, the path
`subsearch run` takes.  An instance is one input set (a generator seed, or
one written libsvm file) on which every case of a workload runs.  Each
workload has a fixed suite of instances, and `--seed` sets the order in
which a run visits them.  The suite is fixed because the program's cost is
heavy-tailed across inputs (single generated inputs drive an SO method to
5-45x its usual time), which a run that fits the time budget cannot average
out; a fixed suite keeps the same inputs in every run and leaves machine
noise as the spread between runs.  Suites are small so that a run makes
several passes and reports per-case medians.

The timed workloads hold only cases on which the program runs correctly on
every instance of the suite.  The cases it fails on, at the same shapes, are
the `known-failures` workload: it is not in BENCHMARK.json, every run lists
it, and `run.py --workload known-failures --seed 0 --seconds 0` reproduces
each failure with its message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Case:
    model: str
    method: str
    iters: int
    eps: float              # time-to-target: gnorm_k <= eps * gnorm0
    shape: dict = field(default_factory=dict)   # n, d, hidden, kind, lam

    @property
    def name(self) -> str:
        return f"{self.model}/{self.method}"


@dataclass(frozen=True)
class SparseInput:
    """Seeded CSR logistic problem, written as libsvm at set-up."""
    n: int
    d: int
    per_row: int            # nonzeros per row


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    instances: int              # suite size: input sets per pass
    # parts of the speed reference (run.SpeedReference) that track how the
    # host's load slows this workload, chosen by measurement: over 6-8 runs
    # in a noisy hour, of the mixes of these parts this one left run_s and
    # time_to_target_s among the steadiest
    reference: tuple[str, ...]
    sparse: SparseInput | None = None

    def order(self, seed: int) -> list[int]:
        """The suite's instances, rotated by the run's seed."""
        return [(seed + k) % self.instances for k in range(self.instances)]


KNOWN_FAILURES = "known-failures"


def instance_seed(instance: int) -> int:
    """Generator seed of one suite instance."""
    return instance + 1


def _lcp(models, methods, iters, eps, **shape):
    return tuple(Case(model, m, iters, eps, dict(shape, kind=kind))
                 for model, kind in models for m in methods)


def build(smoke: bool = False) -> dict[str, Workload]:
    """The timed workloads and `known-failures`; `smoke` shrinks shapes."""
    # 200 iterations reach the second drift audit (every 100 steps), where
    # the known margin-drift failures surface
    lcp_iters = 30 if smoke else 200
    sparse_iters = 30 if smoke else 100
    dense = dict(n=200, d=20) if smoke else dict(n=2000, d=200)
    sparse = (SparseInput(300, 60, 4) if smoke
              else SparseInput(10_000, 1_000, 5))
    net = dict(n=60, d=8, hidden=4) if smoke else dict(n=300, d=30, hidden=6)
    mf = dict(n=30, d=20, hidden=3) if smoke else dict(n=80, d=50, hidden=4)
    ld = dict(n=60, d=8) if smoke else dict(n=200, d=20)
    # net2 and matfact each pair a solver-heavy SO case with a cheap bypass
    # case, and logdet keeps its rank1 bypass (rank2 is a known failure);
    # the bypass cases run 10x the iterations so the step-time population
    # is not split evenly between two regimes an order of magnitude apart,
    # which would put its median on the boundary between them.  50 logdet
    # iterations reach the first refactor and audit.
    so_iters = 10 if smoke else 30
    logdet_iters = 10 if smoke else 50
    logistic, lsq = ("logistic", "logistic"), ("lsq", "quadratic")
    workloads = [
        Workload(
            "lcp-dense",
            _lcp((logistic,), ("gd(1/l)", "qn(ls)", "gd+m(so)"),
                 lcp_iters, 1e-2, lam="1/n", **dense)
            + _lcp((lsq,), ("gd(1/l)", "qn(ls)"),
                   lcp_iters, 1e-2, lam="1/n", **dense),
            2 if smoke else 3, ("lcg64", "prod", "stream")),
        Workload(
            "lcp-sparse",
            _lcp((logistic,), ("gd(1/l)", "gd+m(so)", "qn(ls)"),
                 sparse_iters, 1e-2, lam="1/n"),
            2, ("lcg31", "prod", "stream"), sparse=sparse),
        Workload(
            "tracked-so",
            (Case("net2", "gd+m(so+sb)", so_iters, 0.5,
                  dict(net, kind="logistic", lam="1/n")),
             Case("net2", "gd(ls)", 10 * so_iters, 0.5,
                  dict(net, kind="logistic", lam="1/n")),
             Case("matfact", "momentum-both", so_iters, 1e-2,
                  dict(mf, kind="logistic")),
             Case("matfact", "momentum-both-inexact", 10 * so_iters, 1e-2,
                  dict(mf, kind="logistic")),
             Case("logdet", "rank1", 10 * logdet_iters, 0.5,
                  dict(ld, kind="logistic"))),
            2 if smoke else 4, ("lcg64", "prod", "stream")),
        # margin drift past the program's 1e-8 audit at iteration 200 (all
        # lsq SO cases; logistic nag(so) and snag(so) on some instances),
        # and a tracked log-det that drifts from Tr(SV) - logdet(V) or
        # raises NotPositiveDefiniteError at its first refactor (rank2)
        Workload(
            KNOWN_FAILURES,
            _lcp((logistic,), ("nag(so)", "snag(so)"),
                 lcp_iters, 1e-2, lam="1/n", **dense)
            + _lcp((lsq,), ("gd+m(so)", "nag(so)", "snag(so)"),
                   lcp_iters, 1e-2, lam="1/n", **dense)
            + (Case("logdet", "rank2", logdet_iters, 0.5,
                    dict(ld, kind="logistic")),),
            2 if smoke else 5, ("lcg64", "prod", "stream")),
    ]
    return {w.name: w for w in workloads}


def write_sparse_input(spec: SparseInput, instance: int, path: Path) -> None:
    """Write one instance's CSR problem with the program's libsvm writer."""
    import scipy.sparse as sp
    from subsearch.counted import CountedMatrix
    from subsearch.data import Dataset, write_libsvm

    rng = np.random.default_rng(instance_seed(instance))
    n, d, k = spec.n, spec.d, spec.per_row
    cols = np.sort([rng.choice(d, k, replace=False) for _ in range(n)],
                   axis=1)
    X = sp.csr_matrix((rng.standard_normal(n * k), cols.ravel(),
                       np.arange(0, n * k + 1, k)), shape=(n, d))
    y = np.sign(X @ rng.standard_normal(d))
    y[y == 0] = 1.0
    y[rng.random(n) < 0.1] *= -1.0
    path.write_text(write_libsvm(Dataset(CountedMatrix(X), y, "binary")),
                    encoding="utf-8")
