"""Experiment pipeline: configs, reference optima, and CSV trace emission.

A Trace is one method run on one problem: the initial point plus one
StepRecord per iteration.  Row k's gradient norm is the norm of the full
gradient that the next step already took at row k's iterate
(`StepRecord.gnorm` of record k+1), so it costs no product.  Rows whose
step took no such gradient (nag(1/l), which takes it at its extrapolated
point, and every matfact and logdet step) and the last row are audited
instead.  LCP and network audits (and the network f0) use audit products
on the data's own payload, so sparse inputs stay sparse, instrumentation
never touches the per-iteration product budget, and its cost shows in the
audit counter: one gnorm per LCP or network run, plus one per row for
nag(1/l).  matfact and logdet work on a dense copy by design.

Reference optima are closed forms for matfact and logdet; logistic, lsq
and net2 take the best value of this module's own full-space
Barzilai-Borwein run (`_spectral_reference`) over the model module's own
value and gradient, with audit products.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import logdet as _logdet
from . import matfact as _matfact
from . import network as _network
from . import optimizers as _optimizers
from .data import Dataset, gen_logistic, gen_quadratic, parse_libsvm
from .data import standardize as _standardize
from .network import NetObjective, init_params
from .objectives import LcpObjective
from .optimizers import StepRecord

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
        # JSON configs arrive untyped: true is not 1, and 10.5 is no size
        for name in ("iters", "n", "d", "seed", "hidden"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral)):
                raise ConfigError(f"{name} must be an integer, "
                                  f"got {value!r}")
        if self.fstar is not None and (isinstance(self.fstar, bool)
                                       or not isinstance(self.fstar,
                                                         numbers.Real)):
            raise ConfigError(f"fstar must be a number, got {self.fstar!r}")
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
    if isinstance(lam, bool):
        raise ConfigError(f"bad lambda {lam!r}; use 0, 1/n, or a float")
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
            with open(cfg.data, "rb") as fh:
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
# initial f and iterate, a state's iterate, the audit gradient norm of an
# iterate (no budget products; LCP and net use audit products) for the last
# row and the rows whose step records no gnorm, the run call, and the
# reference optimum

@dataclass
class _Family:
    f0: float
    x0: tuple                   # the initial iterate's arrays
    iterate: Callable           # state -> its iterate's arrays
    gnorm: Callable             # *iterate arrays -> float
    run: Callable               # callback -> (state, records)
    reference: Callable         # () -> (f*, how f* is known)


EXACT = "f* is exact (closed form)"
BEST_SEEN = "f* is the best value seen, not certified"


def _spectral_reference(dim: int, value: Callable, grad: Callable,
                        lam: float = 0.0) -> tuple[float, str]:
    """The minimum f(w_ref) that 5000 full-space Barzilai-Borwein steps see
    on an objective over a flat vector, and how it is known.

    The run starts at zero with the step 1/max(1, |g|), then takes BB1 steps
    clamped to [1e-10, 1e10], each halved up to 60 times until it passes a
    non-monotone Armijo test against the largest of the last 10 values.  It
    stops at |g| <= 1e-14 max(1, |g(0)|) and has no rounding-floor stop:
    over thousands of steps rounding-sized gains still add up.  A
    lambda-strongly convex f (the LCPs with lambda > 0) has
    f(w) - f* <= |grad f(w)|^2 / (2 lambda) at every w; elsewhere f(w_ref)
    is only the best value seen.
    """
    w = np.zeros(dim)
    f = float(value(w))
    if not np.isfinite(f):
        raise RuntimeError("reference value at zero is not finite")
    best_w, best_f = w, f
    g = grad(w)
    gnorm = float(np.linalg.norm(g))
    tol = 1e-14 * max(1.0, gnorm)
    t = 1.0 / max(1.0, gnorm)
    recent = [f]
    for _ in range(5000):
        if not gnorm > tol:             # converged, or g is not finite
            break
        f_ref, slope = max(recent), -float(g @ g)
        for _ in range(60):
            trial = w - t * g
            f_trial = float(value(trial))
            if np.isfinite(f_trial) and f_trial <= f_ref + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break                       # no halving passes the Armijo test
        g_trial = grad(trial)
        s, y = trial - w, g_trial - g
        sy = float(s @ y)
        t = min(max(float(s @ s) / sy, 1e-10), 1e10) if sy > 0 else 1.0
        w, f, g = trial, f_trial, g_trial
        gnorm = float(np.linalg.norm(g))
        recent = recent[-9:] + [f]
        if f < best_f:
            best_w, best_f = w, f
    if lam == 0:
        return best_f, BEST_SEEN
    g = grad(best_w)
    return best_f, (
        "f(w_ref) - f* <= %.3g, certified by lambda-strong convexity: "
        "|grad f(w_ref)|^2 / (2 lambda)" % (float(g @ g) / (2.0 * lam)))


_LOSS = {"logistic": "logistic", "lsq": "least_squares"}


def _lcp_family(cfg: ExperimentConfig) -> _Family:
    ds = load_dataset(cfg)
    lam = resolve_lambda(cfg.lam, ds.n)
    try:
        obj = LcpObjective(_LOSS[cfg.model], ds, lam)
    except ValueError as e:             # labels the loss cannot take
        raise ConfigError(str(e))

    def gnorm(w, m):
        return float(np.linalg.norm(obj.f_grad_margin(w, m, audit=True)))

    state0 = _optimizers.init_state(obj)
    return _Family(
        state0.f, state0.blocks, lambda st: st.blocks, gnorm,
        lambda cb: _optimizers.run(cfg.method, obj, cfg.iters, callback=cb),
        lambda: _spectral_reference(
            ds.d, lambda w: obj.f_value(w, audit=True),
            lambda w: obj.f_grad(w, audit=True), lam))


def _net_family(cfg: ExperimentConfig) -> _Family:
    ds = load_dataset(cfg)
    lam = resolve_lambda(cfg.lam, ds.n)
    if cfg.model == "net2_reg" and lam == 0.0:
        lam = 1.0 / ds.n
    obj = NetObjective(ds, cfg.hidden, lam)
    W0, v0 = init_params(ds.d, cfg.hidden, cfg.seed)
    d, r = ds.d, cfg.hidden

    def grad(W, v):
        return _network.gradient(obj, W, v, obj.X.matmat(W, audit=True),
                                 audit=True)

    def gnorm(W, v):
        gW, gv = grad(W, v)
        return float(np.sqrt(np.sum(gW * gW) + gv @ gv))

    def unpack(t):
        return W0 + t[:d * r].reshape(d, r), v0 + t[d * r:]

    def ref_grad(t):
        gW, gv = grad(*unpack(t))
        return np.concatenate([gW.ravel(), gv])

    return _Family(
        obj.value(W0, v0, audit=True), (W0, v0), lambda st: (st.W, st.v),
        gnorm,
        lambda cb: _network.run(cfg.method, obj, cfg.iters, seed=cfg.seed,
                                callback=cb),
        lambda: _spectral_reference(
            d * r + r, lambda t: obj.value(*unpack(t), audit=True),
            ref_grad))


def _matfact_family(cfg: ExperimentConfig) -> _Family:
    X = load_dataset(cfg).X.dense()
    st0 = _matfact.init_state(X, cfg.hidden, cfg.seed)

    def gnorm(U, W):
        G = _matfact.pca_grad(U @ W.T, X)
        return float(np.sqrt(np.sum((G @ W) ** 2) + np.sum((G.T @ U) ** 2)))

    def reference():
        # Eckart-Young: the best rank-r fit leaves the trailing spectrum
        tail = np.linalg.svd(X, compute_uv=False)[cfg.hidden:]
        return 0.5 * float(np.sum(tail * tail)), EXACT

    return _Family(
        st0.f, (st0.U, st0.W), lambda st: (st.U, st.W), gnorm,
        lambda cb: _matfact.run(cfg.method, X, cfg.hidden, cfg.iters,
                                seed=cfg.seed, callback=cb),
        reference)


def _logdet_family(cfg: ExperimentConfig) -> _Family:
    ds = load_dataset(cfg)
    Xd = ds.X.dense()
    eye = np.eye(ds.d)
    S = (Xd.T @ Xd) / ds.n + eye

    def reference():
        # the minimizer is V = S^-1, so f* = Tr(I) + log det S
        return ds.d + _logdet.chol_logdet(S), EXACT

    rank = 1 if cfg.method == "rank1" else 2
    return _Family(
        _logdet.f_gauss(_logdet.init_state(S)), (eye,), lambda st: (st.V,),
        lambda V: float(np.linalg.norm(S - np.linalg.inv(V))),
        lambda cb: _logdet.run(S, rank, cfg.iters, callback=cb),
        reference)


# model -> (family builder, method names)
_FAMILIES = {
    "logistic": (_lcp_family, _optimizers.TRACKED_METHODS),
    "lsq": (_lcp_family, _optimizers.TRACKED_METHODS),
    "net2": (_net_family, _network.NET_METHODS),
    "net2_reg": (_net_family, _network.NET_METHODS),
    "matfact": (_matfact_family, _matfact.MF_SCHEMES),
    "logdet": (_logdet_family, ("rank1", "rank2")),
}


def _family(cfg: ExperimentConfig) -> _Family:
    return _FAMILIES[cfg.model][0](cfg)


def _run_trace(cfg: ExperimentConfig) -> Trace:
    """Run the family; row k's gnorm is the norm of the gradient the next
    step took at row k's iterate, or an audit of that iterate where the
    step's record has none.  The last row is always an audit."""
    family = _family(cfg)
    gnorms = []                 # gnorms[k] is row k's
    start = [family.x0]         # the iterate the next step starts from

    def on_step(k, state, rec):
        gnorms.append(family.gnorm(*start[0]) if rec.gnorm is None
                      else rec.gnorm)
        # steps replace the iterate's arrays and never write into them, so
        # holding them keeps this iterate for the next row's audit
        start[0] = family.iterate(state)

    state, records = family.run(on_step)
    gnorms.append(family.gnorm(*family.iterate(state)))
    return Trace(cfg, family.f0, gnorms[0], records, gnorms[1:],
                 fstar=cfg.fstar)


def reference_certificate(cfg: ExperimentConfig) -> tuple[float, str]:
    """The reference optimum f* and one line saying how it is known.

    matfact and logdet have closed forms (`EXACT`); the other models take
    the best value of a full-space spectral run, certified within a bound
    for the LCPs with lambda > 0 and otherwise `BEST_SEEN`.  Its products
    with the data are audit products, so it never spends the budget.
    """
    return _family(cfg).reference()


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
