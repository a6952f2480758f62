"""Dataset parsing, standardization, and seeded synthetic generators."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .counted import CountedMatrix


class ParseError(ValueError):
    """Malformed libsvm input; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class Dataset:
    X: CountedMatrix            # n x d
    y: np.ndarray               # length n
    label_kind: str             # "binary" (labels in {-1,+1}) or "real"

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def _map_binary(labels: np.ndarray) -> tuple[np.ndarray, str]:
    distinct = np.unique(labels)
    if distinct.size == 2:
        lo, hi = distinct
        return np.where(labels == lo, -1.0, 1.0), "binary"
    return labels, "real"


def parse_libsvm(text: str | bytes) -> Dataset:
    """Parse `label idx:val ...` lines (1-based, strictly increasing indices).

    The feature dimension is the maximum index seen.  When exactly two
    distinct label values occur they are mapped to {-1,+1} (smaller -> -1).
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    # typed buffers hold 8 bytes per entry, where lists hold a Python object
    labels = array("d")
    rows, cols, vals = array("q"), array("q"), array("d")
    d = 0
    n = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            labels.append(float(tokens[0]))
        except ValueError:
            raise ParseError(lineno, f"bad label token {tokens[0]!r}")
        prev_idx = 0
        for tok in tokens[1:]:
            try:
                idx_s, val_s = tok.split(":", 1)
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(lineno, f"bad feature token {tok!r}")
            if idx <= prev_idx:
                raise ParseError(
                    lineno, f"indices must be strictly increasing, got {idx}")
            prev_idx = idx
            rows.append(n)
            cols.append(idx - 1)
            vals.append(val)
            d = max(d, idx)
        n += 1
    if n == 0:
        raise ParseError(0, "empty input")
    import scipy.sparse as sp
    X = sp.csr_matrix(
        (np.frombuffer(vals), (np.frombuffer(rows, dtype=np.int64),
                               np.frombuffer(cols, dtype=np.int64))),
        shape=(n, d))
    y, kind = _map_binary(np.frombuffer(labels))
    return Dataset(CountedMatrix(X), y, kind)


def write_libsvm(ds: Dataset) -> str:
    """Inverse of parse_libsvm; values printed with 17 significant digits."""
    import scipy.sparse as sp
    X = ds.X.payload
    if not sp.issparse(X):
        X = sp.csr_matrix(X)
    else:
        X = X.tocsr()
    lines = []
    for i in range(X.shape[0]):
        start, stop = X.indptr[i], X.indptr[i + 1]
        feats = " ".join(
            "%d:%.17g" % (j + 1, v)
            for j, v in zip(X.indices[start:stop], X.data[start:stop]))
        label = "%.17g" % ds.y[i]
        lines.append(f"{label} {feats}".rstrip())
    return "\n".join(lines) + "\n"


def standardize(ds: Dataset) -> Dataset:
    """Center columns and scale to unit population standard deviation.

    Zero-variance columns come out all-zero.  Output is dense.
    """
    if ds.n < 2:
        raise ValueError("standardize needs n >= 2")
    X = ds.X.dense()
    mu = X.mean(axis=0)
    sd = np.sqrt(np.mean((X - mu) ** 2, axis=0))
    out = np.zeros_like(X)
    nz = sd > 0
    out[:, nz] = (X[:, nz] - mu[nz]) / sd[nz]
    return Dataset(CountedMatrix(out), ds.y.copy(), ds.label_kind)


# Knuth MMIX multiplier and increment of the congruential stream
_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_MASK64 = (1 << 64) - 1
_BLOCK = 4096


def _jump_table(block: int) -> tuple[np.ndarray, np.ndarray]:
    """The first `block` steps as affine maps s_j = a_j s_0 + c_j mod 2^64."""
    a_j, c_j = [], []
    a, c = 1, 0
    for _ in range(block):
        a, c = (_LCG_A * a) & _MASK64, (_LCG_A * c + _LCG_C) & _MASK64
        a_j.append(a)
        c_j.append(c)
    return np.array(a_j, dtype=np.uint64), np.array(c_j, dtype=np.uint64)


_JUMP_A, _JUMP_C = _jump_table(_BLOCK)


def _uniforms(state: list[int], n: int) -> np.ndarray:
    """Deterministic 64-bit congruential stream mapped to (0,1).

    The state list holds one 64-bit word, advanced by n steps.  Each block
    of _BLOCK outputs is one wrapping uint64 multiply-add of the state
    before the block against the jump table, so the stream is bit-identical
    to stepping s <- a s + c one output at a time.
    """
    out = np.empty(n)
    s0 = np.uint64(state[0])
    for i in range(0, n, _BLOCK):
        r = min(_BLOCK, n - i)
        s = _JUMP_A[:r] * s0
        s += _JUMP_C[:r]
        s0 = s[-1]
        s >>= np.uint64(11)
        block = out[i:i + r]
        np.add(s, 0.5, out=block)
        block /= float(1 << 53)
    state[0] = int(s0)
    return out


def _normals(state: list[int], n: int) -> np.ndarray:
    """Box-Muller normals on the congruential stream."""
    m = (n + 1) // 2
    u1 = _uniforms(state, m)
    u2 = _uniforms(state, m)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2 * math.pi * u2),
                        r * np.sin(2 * math.pi * u2)])
    return z[:n]


def _seed_state(seed: int) -> list[int]:
    return [(seed * 0x9E3779B97F4A7C15 + 1) & _MASK64]


def _gen_features(n: int, d: int, state: list[int],
                  condition_scale: float) -> np.ndarray:
    X = _normals(state, n * d).reshape(n, d)
    if d > 1:
        scales = np.exp(np.linspace(0.0, np.log(condition_scale), d))
    else:
        scales = np.array([1.0])
    return X * scales


def gen_logistic(n: int, d: int, seed: int,
                 condition_scale: float = 10.0) -> Dataset:
    """Gaussian features with column scales spanning [1, condition_scale];
    labels are sign(X w_true) with 10% flips.  Deterministic per seed."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    state = _seed_state(seed)
    X = _gen_features(n, d, state, condition_scale)
    w_true = _normals(state, d)
    y = np.sign(X @ w_true)
    y[y == 0] = 1.0
    flips = _uniforms(state, n) < 0.1
    y[flips] *= -1.0
    return Dataset(CountedMatrix(X), y, "binary")


def gen_quadratic(n: int, d: int, seed: int,
                  condition_scale: float = 10.0,
                  noise: float = 0.1) -> Dataset:
    """Least-squares problem: same feature scheme, real-valued targets."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    state = _seed_state(seed)
    X = _gen_features(n, d, state, condition_scale)
    w_true = _normals(state, d)
    y = X @ w_true + noise * _normals(state, n)
    return Dataset(CountedMatrix(X), y, "real")
