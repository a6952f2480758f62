"""Dataset parsing, standardization, and seeded synthetic generators.

LIBSVM text is read by one of two routes.  The array route reads byte-clean
text (what write_libsvm emits, CRLF line ends and tab separators included)
with array operations over its bytes; the line route reads everything else
one line at a time and reports every error with its line number.

Consecutive calls on the same input share one build.  Two one-entry memos
keep the last input built: the generated features, keyed on the integers
(n, d, seed) and shared by gen_logistic and gen_quadratic, which draw them
alike, and the parsed CSR and labels, keyed on the text's type, length and
SHA-256 digest, so the text itself is not kept.  The last input stays
resident until a different one is built, and on a miss the old entry is
dropped before the new one is built.  A process that builds one input, as
`subsearch run` does, never hits; a sweep that runs several methods on one
input in one process builds it once.  Every call returns a new Dataset whose
new CountedMatrix counts from 0 over the shared payload, and the shared
arrays are read-only, so a writer fails loudly instead of changing a later
run's input.  Generation peaks at 1.5x the bytes of X.
"""

from __future__ import annotations

import math
import operator
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


# the one-entry memos: (_text_key(text), X, y, label_kind) of the last text
# parsed, and ((n, d, seed), X, the state word after X) of the last features
# drawn
_parsed = None
_features = None


def _clear_memos() -> None:
    """Forget the last parsed text and generated features."""
    global _parsed, _features
    _parsed = _features = None


def _map_binary(labels: np.ndarray) -> tuple[np.ndarray, str]:
    distinct = np.unique(labels)
    if distinct.size == 2:
        lo, hi = distinct
        return np.where(labels == lo, -1.0, 1.0), "binary"
    return labels, "real"


# the largest feature index the int64 index buffers hold
_MAX_INDEX = 2 ** 63 - 1

# the bytes of byte-clean input, read by the array route: all that
# write_libsvm emits, tabs and CRs; any other byte sends the whole input to
# the line route
_CANONICAL = b"0123456789+-.eE: \t\r\n"
# bytes per block of the array route (each block ends at a newline): enough
# that a block's numpy calls cost little next to its number reading, few
# enough that its arrays stay small next to the CSR
_BLOCK_BYTES = 1 << 17
# the longest index read by digit arithmetic (10^18 < 2^63) and the widest
# numeric field cast; longer ones take the line route
_MAX_DIGITS = 18
_MAX_FIELD = 32

# the widest number _decimals reads, 3 groups of 8 bytes as its merges
# assume: more than the 23 bytes of %.17g's widest fixed-point form, and
# fewer than 29, since 10^k is exact in a 64-bit significand for k <= 27
_SPAN = 24
_POW10 = np.cumprod(np.r_[1, np.full(_SPAN - 1, 10)].astype(np.longdouble))
_POW10_INT = 10 ** np.arange(20, dtype=np.uint64)
# rows of a _decimals window: bytes before a field's end, from _SPAN to 1
_PLACES = np.arange(_SPAN, 0, -1, dtype=np.uint8)[:, None]
_SIGNS = np.where(np.arange(256) == ord("-"), -1.0, 1.0)


def _decimals(buf: np.ndarray, first: np.ndarray,
              ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each field buf[first:ends] read as float64, and a mask of the fields
    whose reading has float()'s bits; the others are left to _cast.

    buf holds _SPAN bytes before every field.  A field is read when it is
    an optional sign and then digits with at most one dot among them (1.,
    .5 and -0 too), of at most _SPAN bytes and 19 significant digits
    (leading zeros do not count): its digits, the dot skipped, make an
    integer m < 10^19 < 2^64, and with k fraction digits q = m / 10^k is
    one division of two exact longdouble operands, so q is the exact
    decimal rounded once to 64 bits.  Rounding q to
    float64 then rounds the decimal as float() does, unless q lies halfway
    between two doubles (its low 11 significand bits read 0x400), where the
    decimal may lie on either side: those fields are left to _cast too.
    The sign is applied last, so -0 reads -0.0.
    """
    size = ends - first
    n = size.size
    # the last _SPAN bytes of each field, one row per place before its end
    # (a field's bytes fill its last rows), zeroed outside the field
    spans = np.ndarray((buf.size - _SPAN + 1,), f"S{_SPAN}", buf,
                       strides=(1,))
    w = spans[ends - _SPAN].view(np.uint8).reshape(n, _SPAN).T.copy()
    mask = np.less_equal(_PLACES, np.minimum(size, _SPAN).astype(np.uint8)
                         ).view(np.uint8)
    w *= mask
    w -= 48                     # digits read 0-9, a dot 254
    np.equal(w, 254, out=mask.view(bool))
    dots = mask.sum(axis=0, dtype=np.uint8)
    mask *= _PLACES
    k = mask.sum(axis=0, dtype=np.uint8) - dots   # places after the dot
    np.less(w, 10, out=mask.view(bool))
    low = mask[8:].sum(axis=0, dtype=np.uint8)    # digits in the last 16
    digits = low + mask[:8].sum(axis=0, dtype=np.uint8)
    w *= mask                   # a dot, sign or pad byte reads 0
    mask *= 9                   # the tens of a row: 10 for a digit, else 1
    mask += 1
    # pairs of rows (a, b) merge into a * tens(b) + b with tens(a) * tens(b):
    # 24 rows of digits to 12 of 2 (uint8), 6 of 4 (uint16), 3 of 8 (uint32)
    for dtype in (np.uint8, np.uint16, np.uint32):
        a = w[0::2].astype(dtype, copy=False)
        a *= mask[1::2]
        a += w[1::2]
        tens = mask[0::2].astype(dtype, copy=False)
        tens *= mask[1::2]
        w, mask = a, tens
    m = w[1].astype(np.uint64)
    m *= mask[2]
    m += w[2]                   # the last 16 rows' digits, below 10^16
    sign = buf[first]
    exact = ((size <= _SPAN) & (dots <= 1) & (digits > 0)
             & (digits + dots + ((sign == 43) | (sign == 45)) == size)
             & (w[0] < _POW10_INT[19 - low]))    # so m < 10^19
    m += w[0] * _POW10_INT[low]
    q = m.astype(np.longdouble)
    q /= _POW10.take(k, mode="clip")    # two dots can make k any byte
    exact &= (q.view(np.uint64)[0::2] & 0x7FF) != 0x400
    nums = q.astype(np.float64)
    nums *= _SIGNS[sign]
    return nums, exact


def _cast(buf: np.ndarray, first: np.ndarray,
          ends: np.ndarray) -> np.ndarray | None:
    """The fields buf[first:ends] read by one fixed-width bytes-to-float64
    cast, which reads what float() reads, to the same bits, or None when a
    field is wider than _MAX_FIELD or float() refuses one (an empty one
    too).  buf holds _MAX_FIELD bytes after every field's start."""
    size = ends - first
    w = int(size.max(initial=1))
    if w > _MAX_FIELD:
        return None
    # each field padded with zero bytes to the widest
    fields = np.lib.stride_tricks.sliding_window_view(buf, w)[first]
    fields *= np.arange(w) < size[:, None]
    try:
        return fields.view(f"S{w}").ravel().astype(np.float64)
    except ValueError:
        return None


def _extended_is_exact() -> bool:
    """Whether this platform's longdouble carries the 64-bit significand
    that _decimals needs, stored first in 16 bytes, checked on decimals
    that round, a tie and a signed zero against float()."""
    if (np.finfo(np.longdouble).nmant != 63
            or np.dtype(np.longdouble).itemsize != 16):
        return False
    text = b" 0.1 -2.5 9007199254740993 0.30000000000000004 -0 .5 "
    buf = np.zeros(_SPAN + len(text), np.uint8)
    buf[_SPAN:] = np.frombuffer(text, np.uint8)
    edges = np.flatnonzero(np.diff(buf > 32)) + 1
    nums, exact = _decimals(buf, edges[0::2], edges[1::2])
    want = np.array([float(s) for s in text.split()])
    return (exact.tolist() == [True, True, False, True, True, True]
            and nums[exact].tobytes() == want[exact].tobytes())


# a platform fact: whether _decimals reads numbers, or _cast reads them all
_EXTENDED = _extended_is_exact()


def _array_block(block: bytes) -> tuple[np.ndarray, ...] | None:
    """A byte-clean block's labels, features per row, 0-based indices and
    values, or None when a byte is not in _CANONICAL, a CR ends a line
    without a newline (str.splitlines breaks a line there), a field is too
    long for the array route, or any line is malformed.

    Token edges, lines and colons are found by array operations on the
    bytes (spaces, tabs and CRs all separate tokens), indices are read by
    digit arithmetic, and labels and values by _decimals, with _cast
    reading the fields it leaves (exponent forms, ties, more than 19
    significant digits or _SPAN bytes) and refusing the malformed ones;
    both read what float() reads, to the same bits.
    """
    if block.translate(None, _CANONICAL):
        return None
    # zero bytes (separators) around the block, so that the _SPAN bytes
    # before any token end (_SPAN >= _MAX_DIGITS, so the digits before any
    # colon too) and the _MAX_FIELD bytes from any token start lie in the
    # buffer
    buf = np.zeros(_SPAN + len(block) + _MAX_FIELD, np.uint8)
    buf[_SPAN:_SPAN + len(block)] = np.frombuffer(block, np.uint8)
    # str.splitlines breaks a line at a CR that no newline follows
    if b"\r" in block and np.any(buf[np.flatnonzero(buf == 13) + 1] != 10):
        return None
    # edges of tokens: bytes above 32 (not a space, tab, CR, newline or pad)
    edges = np.flatnonzero(np.diff(buf > 32)) + 1
    starts, ends = edges[0::2], edges[1::2]
    # a line's first token is its label, each later one a feature
    line = np.searchsorted(np.flatnonzero(buf == 10), starts)
    is_label = np.ones(starts.size, bool)
    np.not_equal(line[1:], line[:-1], out=is_label[1:])
    del line                # dead arrays go early, to lower the peak
    feat = np.flatnonzero(~is_label)
    # as many colons as features, and only digits from the k-th feature
    # token's start to the k-th colon, which so lies in that token: one colon
    # per feature, none in a label (an index of no digits reads 0, which the
    # order check refuses)
    colons = np.flatnonzero(buf == 58)
    if colons.size != feat.size:
        return None
    width = colons - starts[feat]
    if np.any(width > _MAX_DIGITS):
        return None
    # the indices, a digit place at a time from the widest: k bytes before
    # each colon, where a byte before the index counts as 0
    idx = np.zeros(feat.size, np.int64)
    for k in range(int(width.max(initial=0)), 0, -1):
        digit = buf[colons - k] - 48        # any other byte wraps to >= 10
        digit *= k <= width
        if not np.all(digit < 10):
            return None
        idx *= 10
        idx += digit
    del width
    # each numeric field: a label, or a value after its colon
    first = starts.copy()
    first[feat] = colons + 1
    del colons
    if _EXTENDED:
        nums, exact = _decimals(buf, first, ends)
    else:
        nums, exact = np.empty(first.size), np.zeros(first.size, bool)
    rest = np.flatnonzero(~exact)
    cast = _cast(buf, first[rest], ends[rest])
    if cast is None:
        return None
    nums[rest] = cast
    # each token's index, 0 for a label: every feature's must exceed the
    # token's before it
    order = np.zeros(starts.size, np.int64)
    order[feat] = idx
    if not (np.all((order[1:] > order[:-1]) | is_label[1:])
            and np.all(np.isfinite(nums))):
        return None
    cnt = np.diff(np.flatnonzero(is_label), append=starts.size) - 1
    idx -= 1
    return nums[is_label], cnt, idx, nums[feat]


def _array_blocks(text: str | bytes):
    """The array route: each block's parts from _array_block, cut at
    newlines every _BLOCK_BYTES; text that is not ASCII yields None."""
    as_str = isinstance(text, str)
    if as_str and not text.isascii():
        yield None
        return
    newline = "\n" if as_str else b"\n"
    start = 0
    while start < len(text):
        # through the first newline at or past the block size, or to the end
        stop = text.find(newline, start + _BLOCK_BYTES - 1) + 1 or len(text)
        block = text[start:stop]
        yield _array_block(block.encode("ascii") if as_str else block)
        start = stop


def _fill(blocks) -> tuple[array, ...] | None:
    """Typed buffers of the labels, features per row, indices and values of
    every block's parts, or None at the first refused block."""
    buffers = array("d"), array("q"), array("q"), array("d")
    for parts in blocks:
        if parts is None:
            return None
        for buf, part in zip(buffers, parts):
            buf.frombytes(part.tobytes())
    return buffers


def _read_lines(text: str | bytes) -> tuple[array, ...]:
    """The line route: the typed buffers of _fill, read one line of
    str.splitlines at a time, or the first malformed line's ParseError with
    its line number (invalid UTF-8 included)."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            head = text[:e.start].decode("utf-8")
            raise ParseError(len((head + ".").splitlines()),
                             "not valid UTF-8") from None
    buffers = labels, counts, cols, vals = (array("d"), array("q"),
                                            array("q"), array("d"))
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(lineno, f"bad label token {tokens[0]!r}")
        if not math.isfinite(label):
            raise ParseError(lineno, f"label {tokens[0]!r} is not finite")
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
            if idx > _MAX_INDEX:
                raise ParseError(lineno, f"feature index {idx} above 2^63 - 1")
            if not math.isfinite(val):
                raise ParseError(lineno, f"value {val_s!r} is not finite")
            cols.append(idx - 1)
            vals.append(val)
            prev_idx = idx
        labels.append(label)
        counts.append(len(tokens) - 1)
    return buffers


def parse_libsvm(text: str | bytes) -> Dataset:
    """Parse `label idx:val ...` lines (1-based, strictly increasing indices).

    Labels and values must be finite.  The feature dimension is the maximum
    index seen.  When exactly two distinct label values occur they are
    mapped to {-1,+1} (smaller -> -1).  Bytes are decoded as UTF-8.

    Byte-clean text (bytes in _CANONICAL, every CR before a newline: what
    write_libsvm emits, CRLF line ends and tab separators too) takes the
    array route, a block of about _BLOCK_BYTES at a time: numbers of the
    form [+-]digits[.digits] are read by digit arithmetic and one
    extended-precision division where this platform's longdouble has a
    64-bit significand, and the rest by a fixed-width cast.  Any other text
    (comments, other line breaks, non-ASCII, signed, grouped or 19-digit
    indices, numbers over _MAX_FIELD bytes, inf or nan), and any text with
    a block the array route refuses, malformed lines included, is read whole
    by the line route, which raises the first error as a ParseError with
    its line number (invalid UTF-8 included).  Both routes append to typed
    buffers of 8 bytes per entry, from which the CSR is built with no COO
    step, and both give the same bits.

    The read-only CSR and labels of the last str or bytes text parsed are
    kept under the text's digest, and the same text again, of the same
    type, is not read again; each call returns a new Dataset and
    CountedMatrix over them.
    """
    global _parsed
    key = _text_key(text) if type(text) in (str, bytes) else None
    if key is not None and _parsed is not None and _parsed[0] == key:
        _, X, y, kind = _parsed
    else:
        _parsed = None          # the last input goes before the next is read
        X, y, kind = _parse(text)
        for a in (X.data, X.indices, X.indptr, y):
            a.flags.writeable = False
        if key is not None:
            _parsed = key, X, y, kind
    return Dataset(CountedMatrix(X), y, kind)


def _text_key(text: str | bytes) -> tuple:
    """The text's type, length and SHA-256 digest, which stand for it in
    the parse memo; a str is hashed as UTF-8 a block at a time, so no copy
    of the whole text is made."""
    import hashlib      # here, like scipy.sparse: generated runs skip it

    h = hashlib.sha256()
    if isinstance(text, bytes):
        h.update(text)
    else:
        for i in range(0, len(text), _BLOCK_BYTES):
            h.update(text[i:i + _BLOCK_BYTES].encode("utf-8",
                                                     "surrogatepass"))
    return type(text), len(text), h.digest()


def _parse(text: str | bytes) -> tuple:
    """parse_libsvm's CSR, labels and label kind, read from the text."""
    # a refused array route yields None, and the line route reads it all
    buffers = _fill(_array_blocks(text)) or _read_lines(text)
    labels, counts, cols, vals = (np.frombuffer(buf, dtype=buf.typecode)
                                  for buf in buffers)
    n = labels.size
    if n == 0:
        raise ParseError(0, "empty input")
    import scipy.sparse as sp
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    d = int(cols.max()) + 1 if cols.size else 0
    X = sp.csr_matrix((vals, cols, indptr), shape=(n, d))
    return (X, *_map_binary(labels))


def write_libsvm(ds: Dataset) -> str:
    """Inverse of parse_libsvm; values printed with 17 significant digits."""
    import scipy.sparse as sp
    X = ds.X.payload
    if not sp.issparse(X):
        X = sp.csr_matrix(X)
    else:
        X = X.tocsr()
    # Python scalars format faster than numpy ones, to the same digits
    feats = list(map("%d:%.17g".__mod__,
                     zip((X.indices.astype(np.int64) + 1).tolist(),
                         X.data.tolist())))
    indptr = X.indptr.tolist()
    lines = [" ".join(["%.17g" % label, *feats[start:stop]])
             for label, start, stop in zip(ds.y.tolist(), indptr,
                                           indptr[1:])]
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


def _uniforms(state: list[int], n: int,
              out: np.ndarray | None = None) -> np.ndarray:
    """Deterministic 64-bit congruential stream mapped to (0,1), written
    into `out` (n float64s) when it is given.

    The state list holds one 64-bit word, advanced by n steps.  Each block
    of _BLOCK outputs is one wrapping uint64 multiply-add of the state
    before the block against the jump table, so the stream is bit-identical
    to stepping s <- a s + c one output at a time.
    """
    if out is None:
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
    """Box-Muller normals on the congruential stream.

    With two draws u1, u2 of m = (n + 1) // 2 uniforms, entries :m are
    r cos(2 pi u2) and the rest r sin(2 pi u2), r = sqrt(-2 log u1), cut to
    n.  Every ufunc runs in place: u1 is drawn into the output's first
    half, which becomes r and then r cos, the sine goes into the second
    half, and the cosine into the angle's own array, so the peak is 1.5x
    the output's bytes.
    """
    m = (n + 1) // 2
    z = np.empty(2 * m)
    r, sin = z[:m], z[m:]
    _uniforms(state, m, out=r)
    theta = _uniforms(state, m)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= 2 * math.pi
    np.sin(theta, out=sin)
    sin *= r
    np.cos(theta, out=theta)
    r *= theta
    return z[:n]


def _seed_state(seed: int) -> list[int]:
    return [(seed * 0x9E3779B97F4A7C15 + 1) & _MASK64]


# the generators' column scales span [1, _CONDITION_SCALE]; least-squares
# targets carry Gaussian noise of standard deviation _NOISE
_CONDITION_SCALE = 10.0
_NOISE = 0.1


def _gen_features(n: int, d: int, state: list[int]) -> np.ndarray:
    """n x d normals, column j scaled in place by the j-th of d scales
    spaced evenly in log from 1 to _CONDITION_SCALE."""
    X = _normals(state, n * d).reshape(n, d)
    if d > 1:
        X *= np.exp(np.linspace(0.0, np.log(_CONDITION_SCALE), d))
    return X


def _shared_features(n: int, d: int, seed: int) -> tuple[np.ndarray,
                                                           list[int]]:
    """seed's read-only n x d features and a new state list holding the
    stream's word after them, from the one-entry memo."""
    global _features
    # a non-integer n, d or seed raises here as a cold build would, and
    # never matches an integer key
    key = n, d, seed = tuple(map(operator.index, (n, d, seed)))
    if _features is None or _features[0] != key:
        _features = None        # the last X goes before the next is drawn
        state = _seed_state(seed)
        X = _gen_features(n, d, state)
        X.flags.writeable = False
        _features = key, X, state[0]
    return _features[1], [_features[2]]


def gen_logistic(n: int, d: int, seed: int) -> Dataset:
    """Gaussian features with column scales spanning [1, _CONDITION_SCALE];
    labels are sign(X w_true) with 10% flips.  Deterministic per seed."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    X, state = _shared_features(n, d, seed)
    w_true = _normals(state, d)
    y = np.sign(X @ w_true)
    y[y == 0] = 1.0
    flips = _uniforms(state, n) < 0.1
    y[flips] *= -1.0
    return Dataset(CountedMatrix(X), y, "binary")


def gen_quadratic(n: int, d: int, seed: int) -> Dataset:
    """Least-squares problem: the same features, real-valued targets."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    X, state = _shared_features(n, d, seed)
    w_true = _normals(state, d)
    y = X @ w_true + _NOISE * _normals(state, n)
    return Dataset(CountedMatrix(X), y, "real")
