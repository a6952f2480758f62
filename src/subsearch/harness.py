"""Experiment pipeline: configs, reference optima, and CSV trace emission.

A Trace is one method run on one problem: the initial point plus one
StepRecord per iteration.  LCP and network gradient norms (and the network
f0) are computed with audit products on the data's own payload, so sparse
inputs stay sparse, instrumentation never touches the per-iteration product
budget, and its cost shows in the audit counter.  matfact and logdet work on
a dense copy by design.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import logdet as _logdet
from . import matfact as _matfact
from . import network as _network
from . import optimizers as _optimizers
from .data import Dataset, gen_logistic, gen_quadratic, parse_libsvm
from .data import standardize as _standardize
from .network import NetObjective, NetState, init_params
from .objectives import LcpObjective
from .optimizers import StepRecord
from .subsolver import SubProblem, SubSolverOptions, solve

MODELS = ("logistic", "lsq", "net2", "net2_reg", "matfact", "logdet")

CSV_HEADER = ("iter,f,subopt,gnorm,products_cum,alpha1,beta1,alpha2,beta2,"
              "gamma,delta,inner_iters,elapsed_s")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    model: str
    method: str
    iters: int
    data: str | None = None          # libsvm path; None -> synthetic
    kind: str = "logistic"           # synthetic generator kind
    n: int = 200
    d: int = 20
    seed: int = 0
    hidden: int = 10                 # hidden units / factorization rank
    lam: str = "0"                   # "0", "1/n", or a finite float >= 0
    standardize: bool = False
    fstar: float | None = None
    out: str | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(
                f"unknown model {self.model!r}; choose from {MODELS}")
        if self.iters < 0:
            raise ConfigError("iters must be >= 0")
        for name in ("n", "d", "hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        resolve_lambda(self.lam, self.n)     # checks the grammar only
        self.method = canonical_method(self.method, self.model)


def methods_for_model(model: str) -> tuple[str, ...]:
    return tuple(_FAMILIES[model][1])


def canonical_method(name: str, model: str) -> str:
    """Resolve a method name, accepting underscore aliases (`gd+m_so`)."""
    methods = methods_for_model(model)
    if name in methods:
        return name
    if "_" in name:
        head, _, tail = name.partition("_")
        candidate = f"{head}({tail.replace('_', '+')})"
        if candidate in methods:
            return candidate
    raise ConfigError(
        f"unknown method {name!r} for model {model!r}; "
        f"choose from: {', '.join(sorted(methods))}")


def config_from_json(text: str, overrides: dict | None = None
                     ) -> ExperimentConfig:
    """Build a config from a JSON document; explicit overrides win."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"bad JSON config: {e}")
    if not isinstance(doc, dict):
        raise ConfigError("JSON config must be an object")
    if overrides:
        doc.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(doc) - set(ExperimentConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    try:
        return ExperimentConfig(**doc)
    except TypeError as e:
        raise ConfigError(str(e))


def resolve_lambda(lam: str | float, n: int) -> float:
    """The regularization weight for `lam`: "0", "1/n" or a finite float >= 0.

    The one owner of this grammar: configs check it on construction and the
    model families resolve it against the data's n.
    """
    if lam == "1/n":
        return 1.0 / n
    try:
        value = float(lam)
    except (TypeError, ValueError):
        raise ConfigError(f"bad lambda {lam!r}; use 0, 1/n, or a float")
    if not 0.0 <= value < np.inf:
        raise ConfigError(f"lambda must be finite and nonnegative, "
                          f"got {lam!r}")
    return value


def load_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.data is not None:
        try:
            with open(cfg.data, "r", encoding="utf-8") as fh:
                ds = parse_libsvm(fh.read())
        except OSError as e:
            raise ConfigError(f"cannot read {cfg.data}: {e}")
    elif cfg.kind == "logistic":
        ds = gen_logistic(cfg.n, cfg.d, cfg.seed)
    elif cfg.kind == "quadratic":
        ds = gen_quadratic(cfg.n, cfg.d, cfg.seed)
    else:
        raise ConfigError(f"unknown synthetic kind {cfg.kind!r}")
    if cfg.standardize:
        ds = _standardize(ds)
    return ds


@dataclass
class Trace:
    config: ExperimentConfig
    f0: float
    gnorm0: float
    records: list[StepRecord]
    gnorms: list[float]
    fstar: float | None = None

    def __len__(self):
        return len(self.records) + 1

    def rows(self):
        """Yield one CSV row (list of cells) per iteration, 0 first."""
        def num(v):
            return "" if v is None else "%.17g" % v

        sub0 = "" if self.fstar is None else num(self.f0 - self.fstar)
        yield ["0", num(self.f0), sub0, num(self.gnorm0), "0",
               "", "", "", "", "", "", "0", "0"]
        cum = 0
        for k, (rec, gn) in enumerate(zip(self.records, self.gnorms),
                                      start=1):
            cum += rec.products
            sub = "" if self.fstar is None else num(rec.f - self.fstar)
            yield [str(k), num(rec.f), sub, num(gn), str(cum),
                   num(rec.alpha1), num(rec.beta1), num(rec.alpha2),
                   num(rec.beta2), num(rec.gamma), num(rec.delta),
                   str(rec.inner_iters), num(rec.elapsed_s)]


def emit_csv(trace: Trace) -> str:
    lines = [CSV_HEADER]
    lines.extend(",".join(row) for row in trace.rows())
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[dict]:
    """Inverse of emit_csv: list of dicts, empty cells -> None."""
    lines = text.strip("\n").split("\n")
    cols = lines[0].split(",")
    if cols != CSV_HEADER.split(","):
        raise ValueError("unexpected CSV header")
    out = []
    for line in lines[1:]:
        cells = line.split(",")
        row = {}
        for name, cell in zip(cols, cells):
            if cell == "":
                row[name] = None
            elif name in ("iter", "products_cum", "inner_iters"):
                row[name] = int(cell)
            else:
                row[name] = float(cell)
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# model families: each builds its problem once from a config and supplies the
# initial f and gradient norm, a gradient-norm callback that spends no budget
# products (LCP and net use audit products), the run call, and the full-space
# reference problem on raw arrays

@dataclass
class _Family:
    f0: float
    gnorm0: float
    gnorm: Callable             # state -> float
    run: Callable               # callback -> (state, records)
    reference: SubProblem       # raw-array objective over a flat vector


_LOSS = {"logistic": "logistic", "lsq": "least_squares"}


def _lcp_family(cfg: ExperimentConfig) -> _Family:
    ds = load_dataset(cfg)
    lam = resolve_lambda(cfg.lam, ds.n)
    obj = LcpObjective(_LOSS[cfg.model], ds, lam)
    Xp = ds.X.payload

    def gnorm(w, m):
        return float(np.linalg.norm(obj.f_grad_margin(w, m, audit=True)))

    def ref_grad(w):
        g = Xp.T @ obj.g_grad(Xp @ w)
        if lam > 0:
            g = g + lam * w
        return g

    state0 = _optimizers.init_state(obj)
    return _Family(
        state0.f, gnorm(state0.w, state0.m),
        lambda st: gnorm(st.w, st.m),
        lambda cb: _optimizers.run(cfg.method, obj, cfg.iters, callback=cb),
        SubProblem(ds.d, lambda w: obj.f_value_margin(w, Xp @ w), ref_grad))


def _net_family(cfg: ExperimentConfig) -> _Family:
    ds = load_dataset(cfg)
    lam = resolve_lambda(cfg.lam, ds.n)
    if cfg.model == "net2_reg" and lam == 0.0:
        lam = 1.0 / ds.n
    obj = NetObjective(ds, cfg.hidden, lam)
    X, Xp = ds.X, ds.X.payload
    W0, v0 = init_params(ds.d, cfg.hidden, cfg.seed)
    d, r = ds.d, cfg.hidden

    def grad(W, v, mul, tmul):
        R, gv = _network.backward(obj, NetState(W, v, mul(W), 0.0))
        gW = tmul(R)
        if lam > 0:
            gW = gW + lam * W
        return gW, gv

    def gnorm(W, v):
        gW, gv = grad(W, v, lambda B: X.matmat(B, audit=True),
                      lambda B: X.rmatmat(B, audit=True))
        return float(np.sqrt(np.sum(gW * gW) + gv @ gv))

    def unpack(t):
        return W0 + t[:d * r].reshape(d, r), v0 + t[d * r:]

    def ref_value(t):
        W, v = unpack(t)
        return obj.value_tracked(W, v, Xp @ W)

    def ref_grad(t):
        gW, gv = grad(*unpack(t), lambda B: Xp @ B, lambda B: Xp.T @ B)
        return np.concatenate([gW.ravel(), gv])

    return _Family(
        obj.value(W0, v0, audit=True), gnorm(W0, v0),
        lambda st: gnorm(st.W, st.v),
        lambda cb: _network.run(cfg.method, obj, cfg.iters, seed=cfg.seed,
                                params=(W0, v0), callback=cb),
        SubProblem(d * r + r, ref_value, ref_grad))


def _matfact_family(cfg: ExperimentConfig) -> _Family:
    X = load_dataset(cfg).X.dense()
    st0 = _matfact.init_state(X, cfg.hidden, cfg.seed)
    (n, d), r = X.shape, cfg.hidden

    def grads(U, W):
        G = U @ W.T - X
        return G @ W, G.T @ U

    def gnorm(st):
        gU, gW = grads(st.U, st.W)
        return float(np.sqrt(np.sum(gU ** 2) + np.sum(gW ** 2)))

    def unpack(t):
        return (st0.U + t[:n * r].reshape(n, r),
                st0.W + t[n * r:].reshape(d, r))

    def ref_value(t):
        U, W = unpack(t)
        return _matfact.pca_value(U @ W.T, X)

    return _Family(
        st0.f, gnorm(st0), gnorm,
        lambda cb: _matfact.run(cfg.method, X, cfg.hidden, cfg.iters,
                                seed=cfg.seed, callback=cb),
        SubProblem((n + d) * r, ref_value, lambda t: np.concatenate(
            [g.ravel() for g in grads(*unpack(t))])))


def _logdet_family(cfg: ExperimentConfig) -> _Family:
    ds = load_dataset(cfg)
    Xd = ds.X.dense()
    d = ds.d
    eye = np.eye(d)
    S = (Xd.T @ Xd) / ds.n + eye

    def unpack(t):
        V = eye + t.reshape(d, d)
        return 0.5 * (V + V.T)

    def ref_value(t):
        V = unpack(t)
        try:
            L = np.linalg.cholesky(V)
        except np.linalg.LinAlgError:
            return np.inf
        return float(np.sum(S * V)) - 2.0 * float(np.sum(np.log(np.diag(L))))

    def ref_grad(t):
        g = S - np.linalg.inv(unpack(t))
        return 0.5 * (g + g.T).ravel()

    rank = 1 if cfg.method == "rank1" else 2
    return _Family(
        _logdet.f_gauss(_logdet.init_state(S)),
        float(np.linalg.norm(S - eye)),
        lambda st: float(np.linalg.norm(st.S - np.linalg.inv(st.V))),
        lambda cb: _logdet.run(S, rank, cfg.iters, callback=cb),
        SubProblem(d * d, ref_value, ref_grad))


# model -> (family builder, method names)
_FAMILIES = {
    "logistic": (_lcp_family, _optimizers.LCP_METHODS),
    "lsq": (_lcp_family, _optimizers.LCP_METHODS),
    "net2": (_net_family, _network.NET_METHODS),
    "net2_reg": (_net_family, _network.NET_METHODS),
    "matfact": (_matfact_family, _matfact.MF_SCHEMES),
    "logdet": (_logdet_family, ("rank1", "rank2")),
}


def _family(cfg: ExperimentConfig) -> _Family:
    return _FAMILIES[cfg.model][0](cfg)


def _run_trace(cfg: ExperimentConfig) -> Trace:
    family = _family(cfg)
    gnorms = []
    _, records = family.run(
        lambda k, state, rec: gnorms.append(family.gnorm(state)))
    return Trace(cfg, family.f0, family.gnorm0, records, gnorms,
                 fstar=cfg.fstar)


# ---------------------------------------------------------------------------
# reference optimum: full-space non-monotone Barzilai-Borwein, 5000 iters

_REF_OPTS = SubSolverOptions(max_iters=5000, memory=10, grad_tol=1e-14,
                             theta_cap=1e12)


def compute_reference(cfg: ExperimentConfig) -> float:
    """Minimum objective seen by 5000 full-space spectral-step iterations.

    Instrumentation-free: all linear algebra runs on raw arrays.
    """
    res = solve(_family(cfg).reference, _REF_OPTS)
    if not np.isfinite(res.value):
        raise RuntimeError("reference run diverged")
    return float(res.value)


def run_experiment(cfg: ExperimentConfig) -> Trace:
    """Run one method on one problem; write CSV to cfg.out when set."""
    trace = _run_trace(cfg)
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(emit_csv(trace))
        except OSError as e:
            raise RuntimeError(f"cannot write {cfg.out}: {e}")
    return trace


@dataclass
class _CsvConfig:
    """Minimal config stand-in for traces rebuilt from CSV files."""
    method: str
    model: str = ""
    iters: int = 0


def trace_from_csv(text: str, label: str) -> Trace:
    """Rebuild a plottable Trace from an emitted CSV document."""
    rows = parse_csv(text)
    if not rows or rows[0]["iter"] != 0:
        raise ValueError("CSV must start at iteration 0")
    records, gnorms = [], []
    for prev, row in zip(rows, rows[1:]):
        records.append(StepRecord(
            method=label, f=row["f"],
            products=(row["products_cum"] or 0) - (prev["products_cum"] or 0),
            inner_iters=row["inner_iters"] or 0,
            alpha1=row["alpha1"], beta1=row["beta1"],
            alpha2=row["alpha2"], beta2=row["beta2"],
            gamma=row["gamma"], delta=row["delta"],
            elapsed_s=row["elapsed_s"] or 0.0))
        gnorms.append(row["gnorm"])
    cfg = _CsvConfig(method=label, iters=len(records))
    return Trace(cfg, rows[0]["f"], rows[0]["gnorm"], records, gnorms)
