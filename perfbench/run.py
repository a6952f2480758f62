#!/usr/bin/env python3
"""Outside-in benchmark of subsearch.

    python3 perfbench/run.py --workload lcp-dense --seed 1 --seconds 30 \
        --trace 0

Run from the root of a source checkout; the program is imported from
./src.  Each case is one `harness.run_experiment` call, and a pass runs
every case on every instance of the workload's suite in the order the seed
sets (see workloads.py).  The untraced run (`--trace 0`) installs only a
step clock, repeats passes for `--seconds` and prints the end-to-end
metrics, with times normalized to the host's usual speed by a reference
timed between case runs (see SpeedReference); the traced run (`--trace 1`)
makes one untraced and one traced pass over the same inputs and prints the
per-layer split.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`.  CSV traces,
spans and a summary with the failed-case list go to .bench_out/ in the
checkout.  `--smoke` runs a tiny grid for the benchmark's own test.
"""

import os

# single-threaded baseline: pin BLAS and OpenMP before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gzip
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads
from probe import PRODUCTS, CaseProbe, Session, Tracer, instrument

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5
IMPORT_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import subsearch.harness, subsearch.cli")
perf = time.perf_counter

END_TO_END = {
    "setup_s": "s", "run_s": "s", "step_ms.p50": "ms", "step_ms.p99": "ms",
    "time_to_target_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio",
}
MODULES = ("optimizers", "network", "matfact", "logdet")
PER_LAYER = {
    "counted.products": "count", "counted.audit_products": "count",
    "counted.busy_s": "s", "counted.bytes_computed": "B",
    "counted.dense_calls": "count", "counted.dense_s": "s",
    "counted.budget_violations": "count",
    "data.gen_s": "s", "data.parse_s": "s",
    "subsolver.calls": "count", "subsolver.busy_s": "s",
    "subsolver.self_s": "s", "subsolver.inner_iters": "count",
    "subsolver.cap_hits": "count", "subsolver.cap_hit_frac": "ratio",
    "subsolver.value_calls": "count", "subsolver.grad_calls": "count",
    "subsolver.hess_calls": "count",
    "objectives.restrict_s": "s", "network.restrict_s": "s",
    "matfact.restrict_s": "s", "logdet.restrict_s": "s",
    "linesearch.calls": "count", "linesearch.busy_s": "s",
    "linesearch.evals": "count", "linesearch.fails": "count",
    "linesearch.unverified": "count",
    **{f"{m}.{k}": "s" for m in MODULES for k in ("run_s", "self_s")},
    "optimizers.backtracks": "count",
    "matfact.prods": "count", "matfact.prod_s": "s",
    "logdet.solves": "count", "logdet.solve_s": "s",
    "harness.run_s": "s", "harness.self_s": "s", "harness.gnorm_s": "s",
    "harness.emit_s": "s", "trace.overhead_s": "s",
}
# counter that meters each model's per-iteration budget, and the products
# a model spends before its first iteration (network.init_state forms XW)
METER = {"logistic": "counted.products", "lsq": "counted.products",
         "net2": "counted.products", "matfact": "matfact.prods",
         "logdet": "logdet.solves"}
INIT_PRODUCTS = {"net2": 1}


def load_program():
    if not (SRC / "subsearch" / "__init__.py").is_file():
        raise SystemExit(f"error: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    from subsearch import harness
    return harness


def environment() -> str:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, blas {blas}, "
            f"OPENBLAS/OMP threads {os.environ['OPENBLAS_NUM_THREADS']}, "
            f"nproc {os.cpu_count()}")


class SpeedReference:
    """Fixed work, timed between case runs, that tracks the host's speed.

    The host's speed drifts by 20-40% over seconds to minutes (a fixed
    loop's time moves that much, and CPU time with it), far more than a
    change worth detecting.  Each case run and each set-up is timed between
    two reference samples, and its times are multiplied by `factor` of
    them: the sample's nominal time over their mean, which reports them in
    seconds at the host's usual speed.  Raw figures are printed alongside.

    Interpreter, cache and memory-bandwidth contention slow different kinds
    of work by different amounts, so a sample runs the parts its workload
    names (workloads.py): `lcg64` the data generator's 64-bit congruential
    loop, `lcg31` a small-integer loop of the same shape, `prod` products
    with a 2000x200 matrix and small vector ops, `stream` products with a
    matrix larger than the L2 cache.  The arrays stay resident all run;
    `nbytes` is subtracted from the peak RSS.
    """

    def __init__(self, parts):
        rng = np.random.default_rng(0)
        self.A = rng.standard_normal((2000, 200))
        self.v0 = rng.standard_normal(200)
        self.B = rng.standard_normal((3000, 1000))
        self.w = rng.standard_normal(1000)
        self.out = np.empty(20_000)
        self.nbytes = sum(a.nbytes for a in (self.A, self.v0, self.B, self.w,
                                              self.out))
        self.parts = [getattr(self, f"_{name}") for name in parts]
        self.nominal_s = sum(PART_S[name] for name in parts)
        self.samples = []

    def _lcg31(self):
        x = 0
        for _ in range(30_000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF

    def _lcg64(self):
        a, c, mask = 6364136223846793005, 1442695040888963407, (1 << 64) - 1
        out, s = self.out, 12345
        for i in range(len(out)):
            s = (a * s + c) & mask
            out[i] = ((s >> 11) + 0.5) / float(1 << 53)

    def _prod(self):
        A, v = self.A, self.v0
        for _ in range(10):
            u = A @ v
            v = A.T @ np.tanh(u) / 2000.0 + 1e-3 * v
            float(v @ v)

    def _stream(self):
        for _ in range(2):
            float(np.sum(self.B @ self.w))

    def sample(self) -> float:
        t = perf()
        for part in self.parts:
            part()
        self.samples.append(perf() - t)
        return self.samples[-1]

    def factor(self, before: float, after: float) -> float:
        return self.nominal_s / (0.5 * (before + after))


# each part's time, about its median on the host the benchmark was tuned on
# (2-vCPU Xeon VM, Python 3.11, numpy 2.4 on single-threaded OpenBLAS)
PART_S = {"lcg31": 0.0046, "lcg64": 0.0100, "prod": 0.00375,
          "stream": 0.00375}


def uses_solver(model: str, method: str) -> bool:
    if model == "matfact":
        return method != "momentum-both-inexact"
    if model == "logdet":
        return True
    return any(tag in method for tag in ("(so", "(lo", "(sb"))


class CaseRun:
    """One case on one input set: timing from the step clock, verdict."""

    def __init__(self, case, instance, t0, elapsed, probe, trace, error,
                 gate_msgs):
        self.case, self.instance, self.elapsed = case, instance, elapsed
        self.probe, self.trace = probe, trace
        self.steps = list(np.diff(probe.stamps)) if probe.stamps else []
        self.error = error
        self.gate_msgs = gate_msgs
        done = max(len(self.steps), 1)
        # a case that stops early is projected to its nominal length
        self.scaled = elapsed * case.iters / done if error else elapsed
        self.ttt = self.scaled
        if trace is not None and not self.failed:
            target = case.eps * trace.gnorm0
            for k, gn in enumerate(trace.gnorms):
                if gn <= target:
                    self.ttt = probe.stamps[k + 1] - t0
                    break

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.gate_msgs)

    def failure(self) -> str:
        what = self.error or "; ".join(self.gate_msgs)
        return (f"{self.case.name} (instance {self.instance}, "
                f"{len(self.steps)}/{self.case.iters} iterations): {what}")


def run_case(harness, session, case, instance, data, csv, tracer=None,
             idx=0):
    cfg = harness.ExperimentConfig(
        model=case.model, method=case.method, iters=case.iters,
        seed=workloads.instance_seed(instance),
        data=None if data is None else str(data), out=str(csv),
        **case.shape)
    session.probe = probe = CaseProbe()
    call = harness.run_experiment
    if tracer is not None:
        call = tracer.wrap("harness.run_experiment", call)
        tracer.begin_case(idx)
    trace, error = None, None
    t0 = perf()
    try:
        trace = call(cfg)
    except Exception as exc:     # a failing case is reported, not fatal
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = perf() - t0
        if tracer is not None:
            tracer.end_case()
    gate_msgs = []
    if trace is not None:
        try:
            gate_msgs = checks.gate(cfg, trace, probe.args, probe.result[0])
        except Exception as exc:
            gate_msgs = [f"audit raised {type(exc).__name__}: {exc}"]
    # drop the problem and final state so peak RSS is the program's own
    probe.args = probe.result = None
    return CaseRun(case, instance, t0, elapsed, probe, trace, error,
                   gate_msgs)


class Bench:
    """One workload on one seed: inputs, set-up and measured passes."""

    def __init__(self, harness, workload, seed, run_dir):
        self.harness, self.workload = harness, workload
        self.order = workload.order(seed)
        self.dir = run_dir
        self.session = Session()
        self.ref = SpeedReference(workload.reference)

    def data_path(self, instance):
        if self.workload.sparse is None:
            return None
        return self.dir / f"input-{instance}.libsvm"

    def setup(self, reps):
        """Median over `reps` set-ups, normalized and raw."""
        norm, raw = [], []
        for _ in range(reps):
            before = self.ref.sample()
            raw.append(self.setup_once())
            norm.append(raw[-1] * self.ref.factor(before, self.ref.sample()))
        return statistics.median(norm), statistics.median(raw)

    def setup_once(self) -> float:
        """Fresh-interpreter import, input files and a warm-up pass."""
        t = perf()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                       check=True, timeout=120, cwd=ROOT)
        warm = None
        if self.workload.sparse is not None:
            for instance in self.order:
                workloads.write_sparse_input(self.workload.sparse, instance,
                                             self.data_path(instance))
            warm = self.dir / "warm.libsvm"
            workloads.write_sparse_input(workloads.SparseInput(40, 6, 2), 0,
                                         warm)
        for case in self.workload.cases:
            shape = dict(case.shape, n=40, d=6, hidden=3)
            cfg = self.harness.ExperimentConfig(
                model=case.model, method=case.method, iters=3, seed=0,
                data=None if warm is None else str(warm), **shape)
            try:
                self.harness.run_experiment(cfg)
            except Exception:    # warm-up only loads code paths
                pass
        return perf() - t

    def run_pass(self, tag, tracer=None):
        """Every case on every instance, in the seed's order."""
        runs, ref = [], []
        with instrument(self.session, tracer):
            for instance in self.order:
                csv_dir = self.dir / tag / str(instance)
                csv_dir.mkdir(parents=True)
                for i, case in enumerate(self.workload.cases):
                    ref.append(self.ref.sample())
                    runs.append(run_case(
                        self.harness, self.session, case, instance,
                        self.data_path(instance), csv_dir / f"{i}.csv",
                        tracer, len(runs)))
        ref.append(self.ref.sample())
        for k, r in enumerate(runs):
            r.norm = self.ref.factor(ref[k], ref[k + 1])
        return runs

    def measure(self, seconds):
        """Passes until `seconds` are spent; at least one."""
        passes, took = [], []
        t0 = perf()
        while True:
            t = perf()
            passes.append(self.run_pass(f"pass{len(passes)}"))
            took.append(perf() - t)
            if perf() - t0 + 0.5 * statistics.median(took) >= seconds:
                return passes


def run_s(runs):
    return sum(r.scaled for r in runs)


def suite_median(passes, key):
    """Sum over the suite's case runs of each one's median over passes.

    Every pass runs the same case runs in the same order; a per-run median
    drops the passes a burst of machine noise slowed down.
    """
    return sum(statistics.median(key(p[i]) for p in passes)
               for i in range(len(passes[0])))


def timings(passes, weight):
    """run_s, step p50 and p99 in ms, time_to_target_s, step count.

    Each case run's times are multiplied by weight(run).  The step
    percentiles are taken over each step's median across passes, so, like
    run_s, they do not follow the slowest pass.
    """
    steps = [statistics.median(p[i].steps[k] * weight(p[i]) for p in passes)
             for i in range(len(passes[0]))
             for k in range(min(len(p[i].steps) for p in passes))]
    p50, p99 = np.percentile(steps, [50, 99]) * 1e3
    return (suite_median(passes, lambda r: r.scaled * weight(r)),
            float(p50), float(p99),
            suite_median(passes, lambda r: r.ttt * weight(r)), len(steps))


def end_to_end(passes, setup_s, ref_bytes):
    runs = [r for p in passes for r in p]
    failed = sum(r.failed for r in runs)
    run, p50, p99, ttt, n_steps = timings(passes, lambda r: r.norm)
    metrics = {
        "setup_s": setup_s,
        "run_s": run,
        "step_ms.p50": p50,
        "step_ms.p99": p99,
        "time_to_target_s": ttt,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        * 1024 - ref_bytes) / 2**20,
        # the complement of failed_frac: a ratio that is never 0 while
        # some case passes, so a bound on its median stays meaningful
        "ok_frac": 1.0 - failed / len(runs),
    }
    raw = timings(passes, lambda r: 1.0)
    per_run = (f"sum over {len(passes[0])} case runs of the median over "
               f"{len(passes)} passes")
    per_step = (f"over {n_steps} iterations, each the median over "
                f"{len(passes)} passes")
    notes = {
        "run_s": f"{per_run}; raw {raw[0]:.6g}",
        "step_ms.p50": f"{per_step}; raw {raw[1]:.6g}",
        "step_ms.p99": f"{per_step}; raw {raw[2]:.6g}",
        "time_to_target_s": f"{per_run}; raw {raw[3]:.6g}",
        "ok_frac": f"failed_frac {failed / len(runs):.4g}: {failed} "
                   f"failed of {len(runs)} attempted",
    }
    return metrics, notes


def case_lines(runs):
    """Per-case totals over all instances, so a reader sees what moved."""
    by_case = {}
    for r in runs:
        by_case.setdefault(r.case.name, []).append(r)
    for name, rs in by_case.items():
        times = [r.scaled for r in rs]
        yield (f"  {name:<32} {sum(times):9.4f} s over {len(rs)} runs "
               f"(max {max(times):.4f}), to target "
               f"{sum(r.ttt for r in rs):.4f} s, failed "
               f"{sum(r.failed for r in rs)}/{len(rs)}")


def layer_metrics(runs, tracer):
    dur, self_t, cnt = tracer.totals()
    products = sum(dur[f"counted.{m}"] for m in PRODUCTS)
    calls = cnt["subsolver.calls"]
    m = {
        "counted.products": cnt["counted.products"],
        "counted.audit_products": cnt["counted.audit_products"],
        "counted.busy_s": products,
        "counted.bytes_computed": cnt["counted.bytes_computed"],
        "counted.dense_calls": cnt["counted.dense_calls"],
        "counted.dense_s": dur["counted.dense"],
        "counted.budget_violations": sum(
            checks.budget_violations(r.case.model, r.case.method,
                                     r.probe.records) for r in runs),
        "data.gen_s": dur["data.gen_logistic"] + dur["data.gen_quadratic"],
        "data.parse_s": dur["data.parse_libsvm"],
        "subsolver.calls": calls,
        "subsolver.busy_s": dur["subsolver.solve"],
        "subsolver.self_s": self_t["subsolver.solve"],
        "subsolver.inner_iters": cnt["subsolver.inner_iters"],
        "subsolver.cap_hits": cnt["subsolver.cap_hits"],
        "subsolver.cap_hit_frac": cnt["subsolver.cap_hits"] / calls
        if calls else 0.0,
        "subsolver.value_calls": cnt["subsolver.value_calls"],
        "subsolver.grad_calls": cnt["subsolver.grad_calls"],
        "subsolver.hess_calls": cnt["subsolver.hess_calls"],
        "linesearch.calls": cnt["linesearch.calls"],
        "linesearch.busy_s": dur["linesearch.strong_wolfe"],
        "linesearch.evals": cnt["linesearch.evals"],
        "linesearch.fails": cnt["linesearch.fails"],
        "linesearch.unverified": cnt["linesearch.unverified"],
        "optimizers.backtracks": sum(
            rec.inner_iters for r in runs
            if r.case.model in ("logistic", "lsq")
            and r.case.method in ("gd(1/l)", "nag(1/l)")
            for rec in r.probe.records),
        "matfact.prods": cnt["matfact.prods"],
        "matfact.prod_s": dur["matfact.prod"],
        "logdet.solves": cnt["logdet.solves"],
        "logdet.solve_s": dur["logdet.solve"],
        "harness.run_s": dur["harness.run_experiment"],
        "harness.self_s": self_t["harness.run_experiment"],
        "harness.gnorm_s": dur["harness.gnorm"],
        "harness.emit_s": dur["harness.emit_csv"],
    }
    for layer in ("objectives", "network", "matfact", "logdet"):
        m[f"{layer}.restrict_s"] = dur[f"{layer}.restrict"]
    for mod in MODULES:
        m[f"{mod}.run_s"] = dur[f"{mod}.run"]
        m[f"{mod}.self_s"] = self_t[f"{mod}.run"]
    self_sum = sum(self_t.values())
    return m, self_sum


def csv_body(run):
    """The CSV with its elapsed_s column dropped, or the error message."""
    if run.error:
        return run.error
    with open(run.trace.config.out, encoding="utf-8") as fh:
        return [line.rsplit(",", 1)[0] for line in fh]


def trace_checks(plain, traced, tracer):
    """Wrapper completeness and no perturbation, case by case."""
    msgs = []
    for i, (p, t) in enumerate(zip(plain, traced)):
        label = f"{t.case.name} (instance {t.instance})"
        if csv_body(p) != csv_body(t):
            msgs.append(f"{label}: traced CSV differs from untraced")
        if t.error:
            continue
        c = tracer.counts[i]
        recs = t.trace.records
        meter = METER[t.case.model]
        want = (sum(r.products for r in recs)
                + INIT_PRODUCTS.get(t.case.model, 0))
        if c[meter] != want:
            msgs.append(f"{label}: traced {meter} {c[meter]} != "
                        f"records {want}")
        want = (sum(r.inner_iters for r in recs)
                if uses_solver(t.case.model, t.case.method) else 0)
        if c["subsolver.inner_iters"] != want:
            msgs.append(f"{label}: traced subsolver.inner_iters "
                        f"{c['subsolver.inner_iters']} != records {want}")
    return msgs


def write_spans(path, runs, tracer):
    labels = [f"{r.instance}:{r.case.name}" for r in runs]
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("name\tstart\tend\tparent\tcase\n")
        for name, start, end, parent, case in zip(
                tracer.names, tracer.starts, tracer.ends, tracer.parents,
                tracer.cases):
            fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t"
                     f"{labels[case]}\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grid for the benchmark's own test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    grid = workloads.build(smoke=args.smoke)
    if args.workload not in grid:
        ap.error(f"unknown workload; choose from {', '.join(grid)}")
    workload = grid[args.workload]
    harness = load_program()
    print(f"env: {environment()}")

    run_dir = OUT / f"{workload.name}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    bench = Bench(harness, workload, args.seed, run_dir)
    setup_s, setup_raw = bench.setup(SETUP_REPS)

    problems = []
    if args.trace:
        plain = bench.run_pass("plain")
        tracer = Tracer()
        traced = bench.run_pass("traced", tracer)
        metrics, self_sum = layer_metrics(traced, tracer)
        overhead = run_s(traced) - run_s(plain)
        metrics["trace.overhead_s"] = overhead
        problems = trace_checks(plain, traced, tracer)
        harness_s = metrics["harness.run_s"]
        if abs(self_sum - harness_s) > abs(overhead) + 1e-6:
            problems.append(f"layer self times sum to {self_sum:.6f} s, "
                            f"harness.run_s is {harness_s:.6f} s")
        print(f"traced: one untraced and one traced pass; per-layer "
              f"figures are totals over the traced pass; layer self times "
              f"sum to {self_sum:.4f} s, harness.run_s {harness_s:.4f} s")
        runs = plain + traced
        units, notes = PER_LAYER, {}
        write_spans(run_dir / "spans.tsv.gz", traced, tracer)
    else:
        passes = bench.measure(args.seconds)
        metrics, notes = end_to_end(passes, setup_s, bench.ref.nbytes)
        runs = [r for p in passes for r in p]
        units = END_TO_END
        notes["setup_s"] = (f"median of {SETUP_REPS} set-ups; raw "
                            f"{setup_raw:.6g}")
        print(f"speed reference ({', '.join(workload.reference)}): median "
              f"sample {statistics.median(bench.ref.samples) * 1e3:.4g} ms "
              f"over {len(bench.ref.samples)} samples, nominal "
              f"{bench.ref.nominal_s * 1e3:.4g} ms")
        print(f"per case, over {len(passes)} passes of instances "
              f"{bench.order}:")
        for line in case_lines(runs):
            print(line)

    failures = sorted({r.failure() for r in runs if r.failed})
    wrong = [r.failure() for r in runs if r.gate_msgs]
    correct = not wrong and not problems
    print(f"workload {workload.name}, seed {args.seed}: "
          f"{len(runs)} case runs of {len(workload.cases)} cases")
    for name, unit in units.items():
        note = notes.get(name, "")
        print(f"  {name:<28} {metrics[name]:>14.6g} {unit:<6} {note}")
    if workload.name != workloads.KNOWN_FAILURES:
        known = grid[workloads.KNOWN_FAILURES]
        print(f"not timed, known to fail (reproduce with --workload "
              f"{known.name}): {', '.join(c.name for c in known.cases)}")
    print(f"failed cases ({len(failures)} distinct):")
    for line in failures:
        print(f"  {line}")
    for line in problems:
        print(f"  check failed: {line}")
    print(f"correct: {str(correct).lower()}")
    (run_dir / "summary.json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "env": environment(),
        "metrics": metrics, "failures": failures, "problems": problems,
    }, indent=1), encoding="utf-8")
    for path in run_dir.glob("*.libsvm"):
        path.unlink()
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
