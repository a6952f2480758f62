"""Trace-identity grid: every method of every model, one CSV per run, and
every model's reference optimum.

Write the grid of the source tree on PYTHONPATH into DIR, then compare two
grids file by file:

    PYTHONPATH=src python tests/trace_grid.py DIR
    python tests/trace_grid.py --compare A B

Each run is n=200, d=20, hidden=4, 60 iterations, seed 1, at lambda 1/n
and 0; lsq runs on the quadratic generator, every other model on the
logistic one.  The CSV drops the `elapsed_s` column, so two grids of the
same code are byte-identical, and a run that raises writes the error as
the file's text.  Each model and lambda also gets `<model>__ref__lam<λ>.txt`:
`harness.reference_certificate`'s f* (`%.17g`) and its line saying how f*
is known.  logistic, lsq and net2 also get `<model>__ref_csr__lam<λ>.txt`,
the same reference read through `data=` from a libsvm file of the same
generator's dataset (written with `write_libsvm`), so their references run
on a CSR payload.  `--compare` lists the files that differ, each CSV with the
largest relative difference of f, whether `products_cum` and `inner_iters`
match row for row and each grid's total inner iterations (A -> B), any
other file with its first differing line, and the files that exist in one
grid only, as `only in A` or `only in B`; it exits 1 if there are any.  The
name keeps pytest from collecting this file.
"""

import re
import sys
import tempfile
from pathlib import Path

SHAPE = dict(n=200, d=20, hidden=4, iters=60, seed=1)
LAMBDAS = ("1/n", "0")
CSR_MODELS = ("logistic", "lsq", "net2")


def _name(model, method, lam, suffix=".csv"):
    return re.sub(r"[^\w.+()-]", "_", f"{model}__{method}__lam{lam}") + suffix


def _kind(model):
    return "quadratic" if model == "lsq" else "logistic"


def _config(model, method, lam, data=None):
    from subsearch import harness

    return harness.ExperimentConfig(
        model=model, method=method, lam=lam, data=data, kind=_kind(model),
        **SHAPE)


def _csv(model, method, lam):
    from subsearch import harness

    try:
        text = harness.emit_csv(
            harness.run_experiment(_config(model, method, lam)))
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


def _columns(path: Path):
    """The f, products_cum and inner_iters columns of a grid CSV, or None
    when the file holds no trace."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",") if lines else []
    names = ("f", "products_cum", "inner_iters")
    if not set(names) <= set(header):
        return None
    rows = [line.split(",") for line in lines[1:]]
    f, cum, inner = (header.index(name) for name in names)
    return ([float(r[f]) for r in rows], [r[cum] for r in rows],
            [int(r[inner]) for r in rows])


def _first_difference(a: Path, b: Path) -> str:
    la = a.read_text(encoding="utf-8").splitlines()
    lb = b.read_text(encoding="utf-8").splitlines()
    for k, (x, y) in enumerate(zip(la, lb), start=1):
        if x != y:
            return f"line {k}: {x!r} vs {y!r}"
    return f"{len(la)} vs {len(lb)} lines"


def describe(a: Path, b: Path) -> str:
    """How two differing grid files differ: which grid alone holds the
    file; for a CSV, the largest relative f difference, whether
    products_cum and inner_iters match on every row, and each side's total
    inner iterations; for any other file, its first differing line."""
    if not (a.is_file() and b.is_file()):
        return "only in " + ("A" if a.is_file() else "B")
    if a.suffix != ".csv":
        return _first_difference(a, b)
    ca, cb = _columns(a), _columns(b)
    if ca is None or cb is None:
        return "no trace in " + " and ".join(
            str(p.parent) for p, c in ((a, ca), (b, cb)) if c is None)
    (fa, pa, ia), (fb, pb, ib) = ca, cb
    rel = max((abs(x - y) / max(abs(x), abs(y), 1e-300)
               for x, y in zip(fa, fb)), default=0.0)
    rows = "" if len(fa) == len(fb) else f", {len(fa)} vs {len(fb)} rows"

    def same(x, y):
        return "matches" if x == y else "differs"

    return (f"max rel f diff {rel:.3g}, products_cum {same(pa, pb)}, "
            f"inner_iters {same(ia, ib)} ({sum(ia)} -> {sum(ib)}){rows}")


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
    sys.exit(main(sys.argv[1:]))
