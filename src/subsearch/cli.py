"""Command-line entry point: `subsearch run|ref|plot|gen`.

`ref` prints f* (one %.17g number, also what --out holds) and a second line
saying how f* is known: exact in closed form (matfact, logdet), within a
certified bound on f(w_ref) - f* (the LCPs with lambda > 0), or only the
best value seen.

`run --iters N` is an upper bound: a run whose state comes back from a step
bitwise unchanged would repeat that step bitwise, so it stops there (see
`optimizers.drive`) and says so; its CSV then has k + 1 rows for k steps.

Exit codes: 0 success, 1 usage error (bad flags, unknown method, a --data,
--config or --traces file that cannot be read), 2 runtime failure (malformed
file contents, an output that cannot be written, diverged runs).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import harness
from .data import gen_logistic, gen_quadratic, write_libsvm
from .harness import ConfigError, ExperimentConfig


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _add_experiment_flags(p: _Parser):
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--data", help="libsvm file; omit for synthetic data")
    p.add_argument("--model", choices=harness.MODELS)
    p.add_argument("--method")
    p.add_argument("--iters", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--hidden", type=int,
                   help="hidden units / factorization rank")
    p.add_argument("--lambda", dest="lam",
                   help="regularization: 0, 1/n, or a finite float >= 0")
    p.add_argument("--standardize", action="store_true", default=None)
    p.add_argument("--fstar", type=float)
    p.add_argument("--kind", choices=("logistic", "quadratic"),
                   help="synthetic generator kind")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--out")


def _build_config(args) -> ExperimentConfig:
    overrides = {k: getattr(args, k, None) for k in
                 ("data", "model", "method", "iters", "seed", "hidden",
                  "lam", "standardize", "fstar", "kind", "n", "d", "out")}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise UsageError(f"cannot read config: {e}")
        cfg = harness.config_from_json(text, overrides)
    else:
        missing = [k for k in ("model", "method", "iters")
                   if overrides.get(k) is None]
        if missing:
            raise UsageError(f"missing required flags: "
                             f"{', '.join('--' + m for m in missing)}")
        fields = {k: v for k, v in overrides.items() if v is not None}
        cfg = ExperimentConfig(**fields)
    return cfg


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    trace = harness.run_experiment(cfg)
    final = trace.records[-1].f if trace.records else trace.f0
    dest = cfg.out or "(stdout only)"
    done = len(trace) - 1
    print(f"run {cfg.model}/{cfg.method}: {done} iterations, "
          f"final f = {final:.17g} -> {dest}")
    if done < cfg.iters:
        print(f"stopped at a fixed point after {done} of {cfg.iters} "
              f"iterations")
    if not cfg.out:
        sys.stdout.write(harness.emit_csv(trace))
    return 0


def _cmd_ref(args) -> int:
    cfg = _build_config(args)
    fstar, how = harness.reference_certificate(cfg)
    print("%.17g" % fstar)
    print(how)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("%.17g\n" % fstar)
    return 0


def _cmd_plot(args) -> int:
    from . import plots
    traces = []
    for path in args.traces.split(","):
        path = path.strip()
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise UsageError(f"cannot read trace: {e}")
        label = os.path.splitext(os.path.basename(path))[0]
        traces.append(harness.trace_from_csv(text, label))
    if args.style == "steps":
        plots.emit_steps_svg(traces, args.out)
    else:
        fstar = args.fstar
        if fstar is None:
            fstar = min(min([t.f0] + [r.f for r in t.records])
                        for t in traces)
        elif not math.isfinite(fstar):
            raise UsageError(f"--fstar must be finite, got {fstar!r}")
        plots.emit_subopt_svg(traces, fstar, args.out)
    print(f"plot ({args.style}) -> {args.out}")
    return 0


def _cmd_gen(args) -> int:
    if args.n < 1 or args.d < 1:
        raise UsageError("--n and --d must be >= 1")
    if args.kind == "logistic":
        ds = gen_logistic(args.n, args.d, args.seed)
    else:
        ds = gen_quadratic(args.n, args.d, args.seed)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(write_libsvm(ds))
    print(f"gen {args.kind} n={args.n} d={args.d} seed={args.seed} "
          f"-> {args.out}")
    return 0


def _make_parser() -> _Parser:
    parser = _Parser(prog="subsearch",
                     description="line/subspace step-size optimization "
                                 "benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a method and emit a CSV trace")
    _add_experiment_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_ref = sub.add_parser("ref", help="compute a reference optimum f*")
    _add_experiment_flags(p_ref)
    p_ref.set_defaults(func=_cmd_ref)

    p_plot = sub.add_parser("plot", help="render SVG figures from traces")
    p_plot.add_argument("--traces", required=True,
                        help="comma-separated CSV trace paths")
    p_plot.add_argument("--style", choices=("subopt", "steps"),
                        default="subopt")
    p_plot.add_argument("--fstar", type=float)
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=_cmd_plot)

    p_gen = sub.add_parser("gen", help="write a synthetic libsvm dataset")
    p_gen.add_argument("--kind", choices=("logistic", "quadratic"),
                       required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--d", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError) as e:
        print(str(e), file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
