"""Trace-identity grid: every method of every model, one CSV per run, and
every model's reference optimum.

Write the grid of the source tree on PYTHONPATH into DIR, then compare two
grids file by file:

    PYTHONPATH=src python tests/trace_grid.py DIR
    python tests/trace_grid.py --compare A B

Each run is n=200, d=20, hidden=4, 60 iterations, seed 1, at lambda 1/n
and 0; lsq runs on the quadratic generator, every other model on the
logistic one.  A dense section (`dense2000x200__<model>__<method>...`)
runs logistic and lsq with gd(1/l), qn(ls) and gd+m(so) at n=2000, d=200,
30 iterations, where X spans several row blocks of `CountedMatrix.matvec`.
A net2 section (`net300x30__net2__<method>...`) runs gd(ls), gd+m(so),
gd+m(so+sb) and qn(ls) at the benchmark's tracked-so shape, n=300, d=30,
hidden=6, 100 iterations.
The grid runs under one BLAS thread, since a product's bits depend on the
BLAS thread count.  The CSV drops the `elapsed_s` column, so two grids of
the same code are byte-identical, and a run that raises writes the error as
the file's text.  Each model and lambda also gets `<model>__ref__lam<λ>.txt`:
`harness.reference_certificate`'s f* (`%.17g`) and its line saying how f*
is known.  logistic, lsq and net2 also get `<model>__ref_csr__lam<λ>.txt`,
the same reference read through `data=` from a libsvm file of the same
generator's dataset (written with `write_libsvm`), so their references run
on a CSR payload.  `--compare` lists the files that differ, each CSV with the
largest relative difference of f and of every other numeric column that
moved (subopt, gnorm and the step sizes alpha1 to delta; a blank cell
against a number reads inf), the relative difference of the final row's f,
whether `products_cum` and `inner_iters` match row for row on the rows both
grids hold (and the row counts, where they differ) and each grid's total
inner iterations (A -> B), any
other file with its first differing line, and the files that exist in one
grid only, as `only in A` or `only in B`; it exits 1 if there are any.  A
CSV that is a strict prefix of the other, whose dropped rows repeat its last
kept row apart from `iter` and `products_cum`, is a run that stopped at its
bitwise fixed point on one side: it is listed as `fixed-point prefix
(61 -> 28 rows)` and still counts as differing.  The name keeps pytest from
collecting this file.
"""

import math
import os
import re
import sys
import tempfile
from pathlib import Path

SHAPE = dict(n=200, d=20, hidden=4, iters=60, seed=1)
LAMBDAS = ("1/n", "0")
CSR_MODELS = ("logistic", "lsq", "net2")
DENSE_SHAPE = dict(n=2000, d=200, iters=30, seed=1)
DENSE_MODELS = ("logistic", "lsq")
DENSE_METHODS = ("gd(1/l)", "qn(ls)", "gd+m(so)")
NET_SHAPE = dict(n=300, d=30, hidden=6, iters=100, seed=1)
NET_METHODS = ("gd(ls)", "gd+m(so)", "gd+m(so+sb)", "qn(ls)")


def _name(model, method, lam, suffix=".csv"):
    return re.sub(r"[^\w.+()-]", "_", f"{model}__{method}__lam{lam}") + suffix


def _kind(model):
    return "quadratic" if model == "lsq" else "logistic"


def _config(model, method, lam, data=None, shape=SHAPE):
    from subsearch import harness

    return harness.ExperimentConfig(
        model=model, method=method, lam=lam, data=data, kind=_kind(model),
        **shape)


def _csv(model, method, lam, shape=SHAPE):
    from subsearch import harness

    try:
        text = harness.emit_csv(
            harness.run_experiment(_config(model, method, lam, shape=shape)))
    except Exception as exc:                    # noqa: BLE001
        return f"{type(exc).__name__}: {exc}\n"
    return "".join(line.rsplit(",", 1)[0] + "\n"
                   for line in text.splitlines())


def _ref(model, lam, data=None):
    """f* and how it is known, on the synthetic data or the libsvm file
    `data`; the reference does not depend on the method, so the model's
    first one stands in."""
    from subsearch import harness

    method = harness.methods_for_model(model)[0]
    try:
        fstar, how = harness.reference_certificate(
            _config(model, method, lam, data))
    except Exception as exc:                    # noqa: BLE001
        return f"{type(exc).__name__}: {exc}\n"
    return "%.17g\n%s\n" % (fstar, how)


def _write_libsvm(model, directory: Path) -> Path:
    """The model's synthetic dataset as a libsvm file in `directory`."""
    from subsearch import data

    gen = data.gen_quadratic if model == "lsq" else data.gen_logistic
    path = directory / f"{_kind(model)}.libsvm"
    path.write_text(data.write_libsvm(gen(SHAPE["n"], SHAPE["d"],
                                          SHAPE["seed"])), encoding="utf-8")
    return path


def write_grid(out: Path) -> tuple[int, int]:
    """Write every CSV and reference file; returns how many of each."""
    from subsearch import harness

    out.mkdir(parents=True, exist_ok=True)
    csvs = refs = 0
    for model in harness.MODELS:
        for lam in LAMBDAS:
            path = out / _name(model, "ref", lam, ".txt")
            path.write_text(_ref(model, lam), encoding="utf-8")
            refs += 1
            for method in harness.methods_for_model(model):
                path = out / _name(model, method, lam)
                path.write_text(_csv(model, method, lam), encoding="utf-8")
                csvs += 1
    n, d = DENSE_SHAPE["n"], DENSE_SHAPE["d"]
    for model in DENSE_MODELS:
        for lam in LAMBDAS:
            for method in DENSE_METHODS:
                path = out / _name(f"dense{n}x{d}__{model}", method, lam)
                path.write_text(_csv(model, method, lam, DENSE_SHAPE),
                                encoding="utf-8")
                csvs += 1
    n, d = NET_SHAPE["n"], NET_SHAPE["d"]
    for lam in LAMBDAS:
        for method in NET_METHODS:
            path = out / _name(f"net{n}x{d}__net2", method, lam)
            path.write_text(_csv("net2", method, lam, NET_SHAPE),
                            encoding="utf-8")
            csvs += 1
    with tempfile.TemporaryDirectory() as tmp:
        for model in CSR_MODELS:
            data = str(_write_libsvm(model, Path(tmp)))
            for lam in LAMBDAS:
                path = out / _name(model, "ref_csr", lam, ".txt")
                path.write_text(_ref(model, lam, data), encoding="utf-8")
                refs += 1
    return csvs, refs


def compare(a: Path, b: Path) -> list[str]:
    names = sorted({p.name for grid in (a, b)
                    for pattern in ("*.csv", "*.txt")
                    for p in grid.glob(pattern)})
    return [name for name in names
            if not ((a / name).is_file() and (b / name).is_file()
                    and (a / name).read_bytes() == (b / name).read_bytes())]


# the columns whose largest relative difference `--compare` reports
NUMERIC = ("f", "subopt", "gnorm", "alpha1", "beta1", "alpha2", "beta2",
           "gamma", "delta")


def _columns(path: Path):
    """A grid CSV's cells by column name, or None when the file holds no
    trace."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",") if lines else []
    if not {*NUMERIC, "products_cum", "inner_iters"} <= set(header):
        return None
    rows = [line.split(",") for line in lines[1:]]
    return {name: [r[i] for r in rows] for i, name in enumerate(header)}


def _rel(x: str, y: str) -> float:
    """The relative difference of two cells; a blank or non-finite cell
    against a different one is inf."""
    if x == y:
        return 0.0
    if not (x and y):
        return math.inf
    x, y = float(x), float(y)
    rel = abs(x - y) / max(abs(x), abs(y), 1e-300)
    return rel if math.isfinite(rel) else math.inf


def _first_difference(a: Path, b: Path) -> str:
    la = a.read_text(encoding="utf-8").splitlines()
    lb = b.read_text(encoding="utf-8").splitlines()
    for k, (x, y) in enumerate(zip(la, lb), start=1):
        if x != y:
            return f"line {k}: {x!r} vs {y!r}"
    return f"{len(la)} vs {len(lb)} lines"


def _fixed_point_prefix(a: Path, b: Path) -> bool:
    """Whether one CSV is a strict prefix of the other whose dropped rows
    repeat its last kept row apart from `iter` and `products_cum`."""
    short, long = sorted((p.read_text(encoding="utf-8").splitlines()
                          for p in (a, b)), key=len)
    if not (2 <= len(short) < len(long) and long[:len(short)] == short):
        return False
    keep = [i for i, name in enumerate(short[0].split(","))
            if name not in ("iter", "products_cum")]

    def cells(line):
        row = line.split(",")
        return [row[i] for i in keep]

    last = cells(short[-1])
    return all(cells(line) == last for line in long[len(short):])


def describe(a: Path, b: Path) -> str:
    """How two differing grid files differ: which grid alone holds the
    file; for a CSV that stopped at its fixed point on one side, the row
    counts (A -> B); for any other CSV, the largest relative difference of
    f and of every other NUMERIC column that moved, that of the final
    row's f, whether products_cum and inner_iters match on every row both
    sides hold, and each side's total inner iterations; for any other
    file, its first differing line."""
    if not (a.is_file() and b.is_file()):
        return "only in " + ("A" if a.is_file() else "B")
    if a.suffix != ".csv":
        return _first_difference(a, b)
    ca, cb = _columns(a), _columns(b)
    if ca is None or cb is None:
        return "no trace in " + " and ".join(
            str(p.parent) for p, c in ((a, ca), (b, cb)) if c is None)
    rows_a, rows_b = len(ca["f"]), len(cb["f"])
    if _fixed_point_prefix(a, b):
        return f"fixed-point prefix ({rows_a} -> {rows_b} rows)"
    moved = [(name, max(map(_rel, ca[name], cb[name]), default=0.0))
             for name in NUMERIC]
    diffs = ", ".join(f"{name} {rel:.3g}" for name, rel in moved
                      if name == "f" or rel)
    final = _rel(ca["f"][-1], cb["f"][-1]) if rows_a and rows_b else math.inf
    shared = min(rows_a, rows_b)
    rows = ("" if rows_a == rows_b
            else f", {rows_a} vs {rows_b} rows ({shared} shared)")

    def same(name):
        return ("matches" if ca[name][:shared] == cb[name][:shared]
                else "differs")

    inner_a, inner_b = (sum(map(int, c["inner_iters"])) for c in (ca, cb))
    return (f"max rel diff {diffs}, final f {final:.3g}, "
            f"products_cum {same('products_cum')}, "
            f"inner_iters {same('inner_iters')} ({inner_a} -> {inner_b})"
            f"{rows}")


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        a, b = Path(argv[1]), Path(argv[2])
        differ = compare(a, b)
        for name in differ:
            print(f"{name}: {describe(a / name, b / name)}")
        print(f"{len(differ)} file(s) differ")
        return 1 if differ else 0
    if len(argv) == 1 and not argv[0].startswith("-"):
        csvs, refs = write_grid(Path(argv[0]))
        print(f"wrote {csvs} CSVs and {refs} reference files to {argv[0]}")
        return 0
    sys.exit("usage: python tests/trace_grid.py DIR\n"
             "       python tests/trace_grid.py --compare A B")


if __name__ == "__main__":
    # before numpy loads: one BLAS thread, so two grids of the same code on
    # the same numpy/BLAS build are byte-identical
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.exit(main(sys.argv[1:]))
