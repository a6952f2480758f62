"""Dataset parsing, standardization, and synthetic generators."""

import hashlib
import itertools
import math
import re
import warnings
from array import array
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from subsearch import data
from subsearch.data import (Dataset, ParseError, gen_logistic, gen_quadratic,
                            parse_libsvm, standardize, write_libsvm)


def test_parse_basic():
    ds = parse_libsvm("+1 1:0.5 3:2\n-1 2:1\n")
    assert ds.n == 2 and ds.d == 3
    X = ds.X.dense()
    assert np.allclose(X, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
    assert list(ds.y) == [1.0, -1.0]
    assert ds.label_kind == "binary"


def test_parse_binary_mapping_smaller_to_minus_one():
    ds = parse_libsvm("0 1:1\n2 1:1\n")
    assert list(ds.y) == [-1.0, 1.0]


def test_parse_real_labels_pass_through():
    ds = parse_libsvm("0.5 1:1\n1.5 1:1\n2.5 1:1\n")
    assert ds.label_kind == "real"
    assert list(ds.y) == [0.5, 1.5, 2.5]


def test_parse_comments_and_blank_lines():
    ds = parse_libsvm("# header\n+1 1:1  # trailing\n\n-1 1:2\n")
    assert ds.n == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_libsvm("+1 1:1\nxx 1:1\n")
    assert e.value.lineno == 2
    with pytest.raises(ParseError):
        parse_libsvm("+1 2:1 1:1\n")   # non-increasing indices
    with pytest.raises(ParseError):
        parse_libsvm("")


@pytest.mark.parametrize("text, lineno", [
    ("+1 1:1\n-1 99999999999999999999:1\n", 2),     # index above 2^63 - 1
    ("+1 1:1\n-1 2:nan\n", 2),
    ("+1 1:inf\n-1 1:1\n", 1),
    ("nan 1:1\n1 1:2\n", 1),                         # was read as y = +1
    ("+1 1:1\n-inf 1:2\n", 2),
])
def test_parse_rejects_out_of_range_values_with_line_numbers(text, lineno):
    with pytest.raises(ParseError) as e:
        parse_libsvm(text)
    assert e.value.lineno == lineno


def test_round_trip():
    ds = gen_logistic(20, 5, seed=3)
    again = parse_libsvm(write_libsvm(ds))
    assert np.allclose(again.X.dense(), ds.X.dense(), atol=0)
    assert np.array_equal(again.y, ds.y)


def _loop_parse(text):
    """An independent per-line parse, written apart from parse_libsvm's
    routes: the oracle for their results and their errors."""
    import scipy.sparse as sp
    from subsearch.counted import CountedMatrix

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
            label = float(tokens[0])
        except ValueError:
            raise ParseError(lineno, f"bad label token {tokens[0]!r}")
        if not math.isfinite(label):
            raise ParseError(lineno, f"label {tokens[0]!r} is not finite")
        labels.append(label)
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
            if idx > 2 ** 63 - 1:
                raise ParseError(lineno, f"feature index {idx} above 2^63 - 1")
            if not math.isfinite(val):
                raise ParseError(lineno, f"value {val_s!r} is not finite")
            prev_idx = idx
            rows.append(n)
            cols.append(idx - 1)
            vals.append(val)
            d = max(d, idx)
        n += 1
    if n == 0:
        raise ParseError(0, "empty input")
    X = sp.csr_matrix(
        (np.frombuffer(vals), (np.frombuffer(rows, dtype=np.int64),
                               np.frombuffer(cols, dtype=np.int64))),
        shape=(n, d))
    y, kind = data._map_binary(np.frombuffer(labels))
    return Dataset(CountedMatrix(X), y, kind)


def _loop_write(ds):
    """The numpy-scalar formatter that write_libsvm replaced."""
    import scipy.sparse as sp
    X = ds.X.payload
    X = X.tocsr() if sp.issparse(X) else sp.csr_matrix(X)
    lines = []
    for i in range(X.shape[0]):
        start, stop = X.indptr[i], X.indptr[i + 1]
        feats = " ".join(
            "%d:%.17g" % (j + 1, v)
            for j, v in zip(X.indices[start:stop], X.data[start:stop]))
        label = "%.17g" % ds.y[i]
        lines.append(f"{label} {feats}".rstrip())
    return "\n".join(lines) + "\n"


# blocks of 1 and 16 bytes hold one line each, 64 bytes a few lines, and the
# last is the route's own size
ARRAY_BLOCK_SIZES = (1, 16, 64, data._BLOCK_BYTES)
BIG_INDEX = 2 ** 63 - 1


def _parse_cold(text):
    """parse_libsvm with its memo cleared first, so that its routes, and the
    patches on them, read the text instead of a memo hit answering."""
    data._clear_memos()
    return parse_libsvm(text)


def _line_route_refused():
    return mock.patch.object(data, "_read_lines",
                             side_effect=AssertionError("line route"))


def _parse_each_array_block_size(text, as_str=True):
    """parse_libsvm of the text's bytes, and of the text unless `as_str` is
    false, at every array block size: the Dataset, or the ParseError's
    message and line number."""
    out = []
    for size in ARRAY_BLOCK_SIZES:
        for given_text in (text, text.encode())[not as_str:]:
            with mock.patch.object(data, "_BLOCK_BYTES", size):
                try:
                    out.append(_parse_cold(given_text))
                except ParseError as e:
                    out.append((str(e), e.lineno))
    return out


def _same_dataset(got, want):
    P, Q = got.X.payload, want.X.payload
    assert P.shape == Q.shape
    for field in ("data", "indices", "indptr"):
        a, b = getattr(P, field), getattr(Q, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert got.y.tobytes() == want.y.tobytes()
    assert got.label_kind == want.label_kind


def _digits(i):
    """Spellings int() reads as i: plain, signed, zero-padded, grouped."""
    s = str(i)
    grouped = s[0] + "_" + s[1:] if len(s) > 1 else s
    return st.sampled_from([s, "+" + s, "00" + s, grouped])


_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map("%.17g".__mod__),
    st.sampled_from(["+1", "-1", "1", "0", "-0", "1e3", "2.5E-2", "1_0",
                     ".5", "5.", "1e-320", "+.5e+3"]))
_spaces = st.sampled_from([" ", "\t", "  ", " \t "])
_ends = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c",
                         "\x85", "\u2028"])


@st.composite
def _row(draw):
    label = draw(_numbers)
    idx = sorted(draw(st.sets(st.one_of(st.integers(1, 40),
                                        st.just(BIG_INDEX),
                                        st.integers(2 ** 31, 2 ** 40)),
                              max_size=6)))
    tokens = [label] + [draw(_digits(i)) + ":" + draw(_numbers) for i in idx]
    line = draw(st.sampled_from(["", " ", "\t"]))
    for tok in tokens:
        line += tok + draw(_spaces)
    return line + draw(st.sampled_from(["", "# note", "#1:2 x"]))


_line = st.one_of(_row(), _row(), _row(),
                  st.sampled_from(["", "   ", "\t", "# comment", " #: 1"]))


def _join(draw, lines):
    text = "".join(line + draw(_ends) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\n")


@given(st.data())
def test_block_parse_matches_line_loop_on_valid_text(draw):
    """Blank and comment lines, every line ending splitlines knows, tabs,
    label-only rows, signs, exponents, digit groups and indices up to
    2^63 - 1: the CSR's bytes and dtypes, y and label kind all equal the
    line loop's, at every array block size, as str and as bytes."""
    lines = draw.draw(st.lists(_line, max_size=12))
    text = _join(draw.draw, lines)
    try:
        want = _loop_parse(text)
    except ParseError as e:                     # no rows: empty input
        assert _parse_each_array_block_size(text) == [
            (str(e), e.lineno)] * 2 * len(ARRAY_BLOCK_SIZES)
        return
    for got in _parse_each_array_block_size(text):
        _same_dataset(got, want)


BAD_ROWS = [
    "1 5", "1 1:2:3", "1 :5", "1 5:", "1 1.5:2", "1 a:1", "1 0:1",
    "1 3:1 3:2", "1 5:1 2:1", "1 -1:1", "1 9223372036854775808:1",
    "1 99999999999999999999:1", "1 -9223372036854775809:1", "1 1:nan",
    "1 2:inf", "1 1:-Infinity", "nan 1:1", "inf", "-inf 2:1", "x 1:1",
    "1:1 2:1", "1 1:1e999", "1 2:1 1:x", "1 1:x 1:1",
    "1 1:2\x00",     # a NUL, which a NUL-padded fixed-width cast would drop
    "1\r1:1 2:1"]    # a lone CR, at which str.splitlines breaks the line


@given(st.data())
def test_block_parse_raises_the_line_loops_errors(draw):
    """Missing or extra colons, non-integer, zero, repeated or too-large
    indices, non-finite labels and values, bad labels, a lone CR, each
    placed anywhere, near block edges and in later blocks, some after
    another bad line: the first error's message and line number equal the
    line loop's, at every array block size, as str and as bytes."""
    lines = draw.draw(st.lists(_line, max_size=10))
    at = draw.draw(st.integers(0, len(lines)))
    if draw.draw(st.booleans()):
        lines.insert(draw.draw(st.integers(0, len(lines))),
                     draw.draw(st.sampled_from(BAD_ROWS)))
    ends = draw.draw(st.lists(_ends, min_size=len(lines) + 1,
                              max_size=len(lines) + 1))
    for bad in BAD_ROWS:
        text = "".join(map(str.__add__, lines[:at] + [bad] + lines[at:],
                           ends))
        with pytest.raises(ParseError) as e:
            _loop_parse(text)
        want = (str(e.value), e.value.lineno)
        assert _parse_each_array_block_size(text) == [
            want] * 2 * len(ARRAY_BLOCK_SIZES)


def _canonical(text):
    return not text.encode().translate(None, data._CANONICAL)


CANONICAL_BAD_ROWS = [row for row in BAD_ROWS if _canonical(row)] + [
    "1 1:", "1 1:.", "1 1:1e", "1 2:1.2.3", "1 1:--1", "1e 1:1", "- 1:1",
    "1 1:1 1:2", "1 1:1 2::1", "1 01:1 1:2", "1 1:1e999 2:1", "1 1:1 :",
    "1 1:-1e400", "1 1234567890123456789:1 5:1"]


_finite = st.floats(allow_nan=False, allow_infinity=False)
_canonical_numbers = st.one_of(
    _finite.map(repr), _finite.map("%.17g".__mod__),
    st.sampled_from(["1", "-1", "+1", "0", "-0", "1e3", "2.5E-2", ".5", "5.",
                     "1e-320", "+.5e+3", "007", "0." + "1" * 40]))
# 1 to 19 digits, so past 2^63 - 1 too
_canonical_index = st.integers(1, 19).flatmap(
    lambda k: st.integers(10 ** (k - 1), 10 ** k - 1))
_gaps = st.sampled_from([" ", " ", "  ", "   ", "\t", " \t"])


@st.composite
def _canonical_row(draw):
    idx = sorted(draw(st.sets(st.one_of(st.integers(1, 40), _canonical_index),
                              max_size=6)))
    tokens = [draw(_canonical_numbers)]
    tokens += ["%d:%s" % (i, draw(_canonical_numbers)) for i in idx]
    line = draw(st.sampled_from(["", " "]))
    for tok in tokens:
        line += tok + draw(_gaps)
    return line.rstrip() if draw(st.booleans()) else line


_canonical_line = st.one_of(_canonical_row(), _canonical_row(),
                            st.sampled_from(["", " ", "   ", "\t"]))


def _beyond_array_route(text):
    """A 19-digit index or a number wider than the array route casts."""
    return (re.search(r"\d{19}:", text) is not None
            or max(map(len, re.split("[ \t\r\n:]", text))) > data._MAX_FIELD)


def _canonical_text(draw, lines):
    end = draw.draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw.draw(st.sampled_from(["", end]))


@given(st.data())
def test_array_route_matches_line_loop_on_canonical_text(draw):
    """Text of write_libsvm's bytes, tabs and CRLF line ends: %.17g and repr
    values, 1- to 19-digit indices, label-only rows, extra spaces and tabs
    and blank lines, with rows across block edges, as str and as bytes: the CSR's bytes and dtypes, y and
    label kind equal the line loop's.  Text with no index above 18 digits
    and no number above 32 bytes never enters the line route."""
    text = _canonical_text(draw, draw.draw(st.lists(_canonical_line,
                                                    max_size=12)))
    assert _canonical(text)
    try:
        want = _loop_parse(text)
    except ParseError as e:     # no rows, or an index above 2^63 - 1
        assert _parse_each_array_block_size(text) == [
            (str(e), e.lineno)] * 2 * len(ARRAY_BLOCK_SIZES)
        return
    if _beyond_array_route(text):
        got = _parse_each_array_block_size(text)
    else:
        with _line_route_refused():
            got = _parse_each_array_block_size(text)
    for one in got:
        _same_dataset(one, want)


@given(st.data())
def test_array_route_raises_the_line_loops_errors(draw):
    """Every malformed row that keeps to write_libsvm's bytes (missing,
    extra or misplaced colons, bad or zero or repeated or too-large indices,
    empty, overflowing or unreadable numbers, a lone CR), placed anywhere in
    canonical text: the first error's message and line number equal the
    line loop's, at every array block size, from bytes (str takes the same
    route)."""
    lines = draw.draw(st.lists(_canonical_line, max_size=8))
    at = draw.draw(st.integers(0, len(lines)))
    for bad in CANONICAL_BAD_ROWS:
        text = _canonical_text(draw, lines[:at] + [bad] + lines[at:])
        assert _canonical(text)
        with pytest.raises(ParseError) as e:
            _loop_parse(text)
        want = (str(e.value), e.value.lineno)
        assert _parse_each_array_block_size(text, as_str=False) == [
            want] * len(ARRAY_BLOCK_SIZES)


_FLOAT_BYTES = "0123456789+-.eE"


def _cast_matches_float(strings):
    """The array route's cast, a string NUL-padded to the widest field
    read as float64, gives float()'s bits, and raises where float() does."""
    for s in strings:
        try:
            want = np.float64(float(s)).tobytes()
        except ValueError:
            want = None
        try:
            got = np.array([s.encode()], f"S{data._MAX_FIELD}").astype(
                np.float64).tobytes()
        except ValueError:
            got = None
        assert got == want, s


def test_fixed_width_cast_reads_what_float_reads_on_short_strings():
    """Every string of up to 3 bytes from [0-9+-.eE], the empty one too."""
    _cast_matches_float("".join(p) for k in range(4)
                        for p in itertools.product(_FLOAT_BYTES, repeat=k))


@given(st.lists(st.one_of(
    st.text(_FLOAT_BYTES, max_size=data._MAX_FIELD),
    _finite.map(repr), _finite.map("%.17g".__mod__),
    st.sampled_from(["4.9406564584124654e-324", "2.4703282292062328e-324",
                     "2.2250738585072011e-308", "1.7976931348623157e308",
                     "1.7976931348623159e308", "1e999", "-1e-999", "0e0",
                     "1e", "e1", "1.e5", "+.e1", "--1", "1e+-5", "9" * 32,
                     "0." + "0" * 29 + "1"])), max_size=40))
def test_fixed_width_cast_reads_what_float_reads(strings):
    """Random strings from [0-9+-.eE], %.17g and repr of any finite float,
    subnormals, rounding ties, overflow and near-misses of the grammar."""
    _cast_matches_float(strings)


def _read_decimals(strings):
    """_decimals over the strings laid out as _array_block lays out its
    fields: _SPAN zero bytes before, one space between, _MAX_FIELD after."""
    text = " ".join(strings).encode()
    first = data._SPAN + np.cumsum([0] + [len(t) + 1 for t in strings[:-1]])
    buf = np.zeros(data._SPAN + len(text) + data._MAX_FIELD, np.uint8)
    buf[data._SPAN:data._SPAN + len(text)] = np.frombuffer(text, np.uint8)
    return data._decimals(buf, first, first + list(map(len, strings)))


def _decimal_reads(s):
    """Whether _decimals reads s itself: an optional sign, then digits with
    at most one dot among them, of at most _SPAN bytes and 19 significant
    digits, whose value rounded to a 64-bit significand is not halfway
    between two doubles (its low 11 bits 0x400)."""
    m = re.fullmatch(r"[+-]?(\d*)(?:\.(\d*))?", s)
    if not m or not (m[1] or m[2]) or len(s) > data._SPAN:
        return False
    if len((m[1] + (m[2] or "")).lstrip("0")) > 19:
        return False
    x = abs(Fraction(s))
    if x == 0:
        return True
    e = x.numerator.bit_length() - x.denominator.bit_length()
    if x < Fraction(2) ** e:
        e -= 1                              # so 2^e <= x < 2^(e + 1)
    return round(x / Fraction(2) ** (e - 63)) & 0x7FF != 0x400


@st.composite
def _decimal(draw):
    """[+-]digits[.digits] with leading and trailing zeros around 0 to 21
    significant digits, the dot anywhere or nowhere, up to 26 bytes."""
    sig = draw(st.sampled_from([0, 1, 2, 9, 15, 16, 17, 18, 19, 20, 21]))
    digits = ("0" * draw(st.integers(0, 5))
              + (str(draw(st.integers(10 ** (sig - 1), 10 ** sig - 1)))
                 if sig else "")
              + "0" * draw(st.integers(0, 5)))
    dot = draw(st.none() | st.integers(0, len(digits)))
    if dot is not None:
        digits = digits[:dot] + "." + digits[dot:]
    return (draw(st.sampled_from(["", "+", "-"])) + digits)[:26]


# 2^53 + 1 and 2^54 + 2 lie halfway between two doubles; k = 27 and 28
_DECIMAL_EDGES = [
    "9007199254740993", "18014398509481986", "-9007199254740993.0",
    "0", "-0", "+0", "-0.0", "-.0", "+.5", ".5", "-.5", "1.", "-1.",
    "0." + "1" * 27, "0." + "1" * 28, "." + "9" * 27, "1" * 19, "1" * 20,
    "0.00012345678901234567", "18446744073709551615", "9999999999999999999",
    "", ".", "+", "-", "+.", "1.2.3", "1e5", "+-1", "1-", "--1", "1:2",
    "0." + "0" * 21 + "1"]


@pytest.mark.skipif(not data._EXTENDED, reason="no 64-bit longdouble")
@given(st.lists(_decimal() | st.sampled_from(_DECIMAL_EDGES), min_size=1,
                max_size=30))
def test_decimals_read_what_float_reads_or_leave_it_to_the_cast(strings):
    """Signed zeros, +.5 and 1., leading and trailing zeros, 19 to 21
    significant digits, k = 27 and 28 fraction digits, ties, empty and
    malformed fields: _decimals reads exactly the fields of its grammar
    that are no 64-bit tie, each to float()'s bits, and leaves every other
    one to the cast."""
    nums, exact = _read_decimals(strings)
    for s, num, read in zip(strings, nums, exact):
        assert read == _decimal_reads(s), s
        if read:
            assert num.tobytes() == np.float64(float(s)).tobytes(), s


def _written_datasets():
    """A generated dataset and a 10^4 x 10^3 CSR with 5 nonzeros per row."""
    import scipy.sparse as sp
    from subsearch.counted import CountedMatrix

    rng = np.random.default_rng(0)
    n, d, k = 10_000, 1_000, 5
    cols = rng.integers(0, d // k, n)[:, None] + np.arange(0, d, d // k)
    X = sp.csr_matrix((rng.standard_normal(n * k), cols.ravel(),
                       np.arange(0, n * k + 1, k)), shape=(n, d))
    sparse = Dataset(CountedMatrix(X), rng.choice([-1.0, 1.0], n), "binary")
    return gen_logistic(200, 20, seed=1), sparse


def test_written_datasets_take_the_array_route():
    """write_libsvm's text of a generated dataset and of a 10^4 x 10^3 CSR
    with 5 nonzeros per row parses without entering the line route, so a
    slip in the array route's grammar cannot quietly cost its speed; so
    does that text with CRLF line ends or with tab separators, to the line
    loop's bits.  With a lone CR, VT, FF or FS line break instead, each of
    which str.splitlines breaks a line at, it takes the line route, to the
    line loop's bits too."""
    import scipy.sparse as sp

    for ds in _written_datasets():
        text = write_libsvm(ds)
        with _line_route_refused():
            got = [_parse_cold(text), _parse_cold(text.encode())]
        Q = sp.csr_matrix(ds.X.payload)
        for again in got:
            P = again.X.payload
            assert P.shape == Q.shape
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(P, field), getattr(Q, field))
            assert again.y.tobytes() == ds.y.tobytes()
        for form in (text.replace("\n", "\r\n"), text.replace(" ", "\t")):
            want = _loop_parse(form)
            with _line_route_refused():
                for given_text in (form, form.encode()):
                    _same_dataset(_parse_cold(given_text), want)

    text = write_libsvm(gen_logistic(200, 20, seed=1))
    for brk in ("\r", "\x0b", "\x0c", "\x1c"):
        form = text.replace("\n", brk)
        want = _loop_parse(form)
        with mock.patch.object(data, "_read_lines",
                               wraps=data._read_lines) as line_route:
            for given_text in (form, form.encode()):
                _same_dataset(_parse_cold(given_text), want)
        assert line_route.call_count == 2, repr(brk)


def test_cast_alone_reads_the_written_datasets_to_the_same_bits():
    """With _decimals switched off, as on a platform without a 64-bit
    longdouble significand, the cast reads every field of both written
    datasets, from str and bytes, to the bits _decimals gives."""
    for ds in _written_datasets():
        text = write_libsvm(ds)
        want = _parse_cold(text)
        with mock.patch.object(data, "_EXTENDED", False), \
                _line_route_refused():
            for given_text in (text, text.encode()):
                _same_dataset(_parse_cold(given_text), want)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                    reason="no 64-bit longdouble")
def test_decimals_leave_few_written_fields_to_the_cast():
    """Of the 6 x 10^4 labels and values of the written 10^4 x 10^3 CSR,
    fewer than 1% reach the cast, so a slip in _decimals' grammar, or a
    self-check that fails on a platform that has the significand, cannot
    quietly cost the array route its speed."""
    ds = _written_datasets()[1]
    with mock.patch.object(data, "_cast", wraps=data._cast) as cast:
        _parse_cold(write_libsvm(ds))
    cast_fields = sum(call.args[1].size for call in cast.call_args_list)
    assert cast_fields < (ds.n + ds.X.payload.nnz) / 100


@given(st.data())
def test_write_matches_numpy_scalar_formatter(draw):
    """Dense and CSR payloads, int32 and int64 indices, label-only rows,
    explicit zeros and any finite values: the same bytes as the old
    formatter."""
    import scipy.sparse as sp
    from subsearch.counted import CountedMatrix

    n = draw.draw(st.integers(1, 6))
    d = draw.draw(st.sampled_from([1, 4, 2 ** 40]))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    cells = draw.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, min(d, 50) - 1),
                                         finite), max_size=12))
    cells = {(i, j if d < 2 ** 40 else d - 1 - j): v for i, j, v in cells}
    rows = np.array([k[0] for k in cells], dtype=np.int64)
    cols = np.array([k[1] for k in cells], dtype=np.int64)
    X = sp.csr_matrix((np.array(list(cells.values()), dtype=float),
                       (rows, cols)), shape=(n, d))
    if d < 2 ** 40 and draw.draw(st.booleans()):
        X = X.toarray()
    y = np.array(draw.draw(st.lists(finite, min_size=n, max_size=n)))
    ds = Dataset(CountedMatrix(X), y, "real")
    assert write_libsvm(ds) == _loop_write(ds)


@pytest.mark.parametrize("raw, lineno", [
    (b"\xff", 1),
    (b"+1 1:1\n-1 2:1\xff\n", 2),
    (b"+1 1:1\r\n\xff 1:1", 2),
    (b"+1 1:1\r\xfe", 2),
    (b"# \xc3\xa9t\xc3\xa9\n\n+1 1:\xc3", 3),   # cut inside a character
])
def test_invalid_utf8_names_its_line(raw, lineno):
    with pytest.raises(ParseError) as e:
        parse_libsvm(raw)
    assert e.value.lineno == lineno
    assert str(e.value) == f"line {lineno}: not valid UTF-8"


def test_parse_peak_memory_stays_near_the_csr():
    """Parsing holds one 8-byte entry per nonzero and field, not one Python
    object: the traced peak stays within 6x the bytes of the CSR it builds
    (it was 9.6x with lists), from str and from bytes, the route a --data
    file takes, each parsed with the memo cleared."""
    import tracemalloc

    import scipy.sparse as sp
    from subsearch.counted import CountedMatrix

    X = sp.random(5000, 500, density=0.01, format="csr",
                  random_state=np.random.default_rng(0))
    text = write_libsvm(Dataset(CountedMatrix(X), np.ones(5000), "real"))
    for given_text in (text, text.encode()):
        tracemalloc.start()
        try:
            P = _parse_cold(given_text).X.payload
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (P != X).nnz == 0
        assert peak <= 6 * (P.data.nbytes + P.indices.nbytes
                            + P.indptr.nbytes), type(given_text)


def test_standardize_population_sd():
    X = np.array([[1.0, 5.0], [3.0, 5.0], [5.0, 5.0]])
    ds = Dataset(__import__("subsearch.counted", fromlist=["CountedMatrix"])
                 .CountedMatrix(X), np.ones(3), "real")
    out = standardize(ds).X.dense()
    col = X[:, 0]
    sd = np.sqrt(np.mean((col - col.mean()) ** 2))   # population, not sample
    assert np.allclose(out[:, 0], (col - col.mean()) / sd, atol=1e-14)
    assert np.allclose(out[:, 1], 0.0)               # zero-variance column


def test_standardized_moments():
    ds = standardize(gen_quadratic(50, 4, seed=1))
    X = ds.X.dense()
    assert np.allclose(X.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(np.sqrt(np.mean(X ** 2, axis=0)), 1.0, atol=1e-12)


def test_generators_deterministic_per_seed():
    a = gen_logistic(30, 6, seed=7)
    b = gen_logistic(30, 6, seed=7)
    c = gen_logistic(30, 6, seed=8)
    assert np.array_equal(a.X.dense(), b.X.dense())
    assert np.array_equal(a.y, b.y)
    assert not np.array_equal(a.X.dense(), c.X.dense())


def test_generator_shapes_and_labels():
    ds = gen_logistic(40, 7, seed=0)
    assert (ds.n, ds.d) == (40, 7)
    assert set(np.unique(ds.y)) <= {-1.0, 1.0}
    dq = gen_quadratic(25, 3, seed=0)
    assert dq.label_kind == "real"


def test_generator_rejects_bad_sizes():
    with pytest.raises(ValueError):
        gen_logistic(0, 3, seed=0)
    with pytest.raises(ValueError):
        gen_quadratic(3, 0, seed=0)


# sha256 of the generator streams as the one-step-at-a-time loop below
# produced them; any change to a seeded dataset shows up here
GOLDEN_DATASETS = {
    "logistic": "3623f3c13e87ef9dfcbd6ce59ead19d1"
                "a43f824592c8b11a94114b794f585ec3",
    "quadratic": "8a6af89cd8c358fd67f932164e13e22f"
                 "457b3b46f6f77b169cd77847e3dbc72c",
}
GOLDEN_LENGTHS = (0, 1, 4095, 4096, 4097, 8195)
GOLDEN_STREAMS = {
    ("_uniforms", 0): "85503e3f05fa2ae8affe01ff24a6514b"
                      "fdf1b068c462cb45cfdf280377ed89ad",
    ("_uniforms", 1): "537850e2114639a14107f25bd95b42b7"
                      "ecbf9e608bcfe3748b2b153dde2d7b00",
    ("_uniforms", 20240917): "bd38f6e93373cf6368ba195e337e8665"
                             "b658213a2bb936667ae42d69d4c0d955",
    ("_uniforms", -3): "c4041fb7d0b425b5e52686eb4ce6a09b"
                       "80d8ef2682c35cf8637b3f64f074a37d",
    ("_normals", 0): "f0cc5da8973c4a82da8ebe989921011b"
                     "1922e813a74d6f32633e76fc010971b9",
    ("_normals", 1): "a91d01f4f531d3a3c4c850ff483c5b91"
                     "b13cdf01c850fdbd68a6b3b2e8dfb3e6",
    ("_normals", 20240917): "62a9c5cd5106fc5b0b02bba95e69cc22"
                            "be5fed5fe6d1672c55ba6f528cf1a614",
    ("_normals", -3): "03f44b02bd4c6baefa9cd55751a37b20"
                      "41bc70437dcc4618f02a78d49859656b",
}


def _scalar_uniforms(state, n):
    """The congruential stream one step at a time, in Python integers."""
    a = 6364136223846793005
    c = 1442695040888963407
    mask = (1 << 64) - 1
    out = np.empty(n)
    s = state[0]
    for i in range(n):
        s = (a * s + c) & mask
        out[i] = ((s >> 11) + 0.5) / float(1 << 53)
    state[0] = s
    return out


def test_generator_streams_match_golden_hashes():
    """A cold build, with the memo cleared, and a memo hit hash alike."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # numpy overflow warnings fail
        for kind, gen, shape in (("logistic", gen_logistic, (2000, 200, 1)),
                                 ("quadratic", gen_quadratic, (300, 30, 2))):
            data._clear_memos()
            for ds in (gen(*shape), gen(*shape)):       # cold, then a hit
                h = hashlib.sha256(ds.X.payload.tobytes())
                h.update(ds.y.tobytes())
                assert h.hexdigest() == GOLDEN_DATASETS[kind], kind
        for (name, seed), digest in GOLDEN_STREAMS.items():
            state = data._seed_state(seed)
            h = hashlib.sha256()
            for n in GOLDEN_LENGTHS:        # one state, carried across calls
                h.update(getattr(data, name)(state, n).tobytes())
                h.update(state[0].to_bytes(8, "little"))
            assert h.hexdigest() == digest, (name, seed)


def test_uniforms_match_scalar_loop_at_block_edges():
    b = data._BLOCK
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 7, -1, 2**70 + 3):
            for n in (0, 1, 2, b - 1, b, b + 1, 2 * b + 3):
                fast, slow = data._seed_state(seed), data._seed_state(seed)
                head = data._uniforms(fast, 3)      # start off a block edge
                assert np.array_equal(head, _scalar_uniforms(slow, 3))
                out = data._uniforms(fast, n)
                assert out.shape == (n,) and out.dtype == np.float64
                assert np.array_equal(out, _scalar_uniforms(slow, n))
                assert type(fast[0]) is int and fast[0] == slow[0]


def _reference_normals(state, n):
    """Box-Muller as one expression per array: the generator's formula
    with a fresh array for every intermediate."""
    m = (n + 1) // 2
    u1 = data._uniforms(state, m)
    u2 = data._uniforms(state, m)
    r = np.sqrt(-2.0 * np.log(u1))
    return np.concatenate([r * np.cos(2 * math.pi * u2),
                           r * np.sin(2 * math.pi * u2)])[:n]


def test_in_place_normals_match_the_reference_formula():
    b = data._BLOCK
    for seed in (0, 1, -3, 2**70 + 3):
        fast, slow = data._seed_state(seed), data._seed_state(seed)
        for n in (0, 1, 2, 3, b - 1, b, b + 1, 2 * b + 1):
            z = data._normals(fast, n)     # one state, carried across calls
            assert z.shape == (n,) and z.dtype == np.float64
            assert z.tobytes() == _reference_normals(slow, n).tobytes()
            assert fast == slow


@pytest.mark.parametrize("n,d", [(1, 1), (7, 3), (33, 5)])
def test_features_match_the_reference_formula_at_odd_sizes(n, d):
    fast, slow = data._seed_state(5), data._seed_state(5)
    X = data._gen_features(n, d, fast)
    scales = (np.exp(np.linspace(0.0, np.log(data._CONDITION_SCALE), d))
              if d > 1 else np.array([1.0]))
    ref = _reference_normals(slow, n * d).reshape(n, d) * scales
    assert X.shape == (n, d) and X.tobytes() == ref.tobytes()
    assert fast == slow


def test_generated_arrays_share_no_memory():
    state = data._seed_state(0)
    a, b = data._normals(state, 5), data._normals(state, 5)
    assert not np.shares_memory(a, b)
    a, b = (data._gen_features(7, 3, data._seed_state(0)) for _ in range(2))
    assert not np.shares_memory(a, b)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("gen", [gen_logistic, gen_quadratic])
def test_generator_peak_memory_stays_near_the_features(gen):
    """Box-Muller draws r into its output array and the cosine into the
    angle's, and the features are scaled in place: the traced peak of a
    build with the memo cleared stays within 1.75x the bytes of X (it was
    2x with r and the angle apart from the output, 3.5x with a fresh array
    per intermediate)."""
    import tracemalloc

    data._clear_memos()
    tracemalloc.start()
    try:
        X = gen(2000, 200, 1).X.payload
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * X.nbytes


# the memo test's inputs: generator keys, two of one shape, and texts, one
# as str and as bytes, one with real labels and one malformed
_MEMO_KEYS = [(6, 3, 1), (6, 3, 2), (5, 4, 1)]
_MEMO_TEXTS = ["+1 1:0.5 3:2\n-1 2:1\n", b"+1 1:0.5 3:2\n-1 2:1\n",
               "0.5 1:1\n1.5 2:-1\n2.5 1:1 2:3\n", b"+1 2:1 1:1\n"]
_MEMO_CALLS = st.one_of(
    st.tuples(st.sampled_from([gen_logistic, gen_quadratic]),
              st.sampled_from(_MEMO_KEYS)),
    st.tuples(st.just(parse_libsvm), st.sampled_from(_MEMO_TEXTS).map(
        lambda text: (text,))))


def _dataset_bytes(ds):
    P = ds.X.payload
    arrays = (P.data, P.indices, P.indptr) if ds.X.is_sparse else (P,)
    return ([(a.dtype, a.tobytes()) for a in arrays]
            + [P.shape, ds.y.tobytes(), ds.label_kind])


def _cold(fn, args):
    """fn(*args) with both memos cleared first: its bytes, or the
    ParseError's message."""
    data._clear_memos()
    try:
        return _dataset_bytes(fn(*args))
    except ParseError as e:
        return str(e)


@given(st.lists(_MEMO_CALLS, max_size=12))
def test_memos_return_cold_builds_with_their_own_counters(calls):
    """Any interleaving of the generators and the parser over a few inputs:
    each result equals a cold build's bytes, its CountedMatrix counts from 0
    and on its own, its shared arrays refuse writes, the two generators
    share X at one (n, d, seed), and malformed text raises every time."""
    want = {(fn, args): _cold(fn, args) for fn, args in set(calls)}
    data._clear_memos()
    seen, last_X = [], None
    for fn, args in calls:
        try:
            ds = fn(*args)
        except ParseError as e:
            assert str(e) == want[fn, args]
            continue
        assert _dataset_bytes(ds) == want[fn, args]
        X = ds.X
        assert X.counter.read() == 0 and X.audit_counter.read() == 0
        X.matvec(np.ones(ds.d))
        X.rmatvec(ds.y, audit=True)
        seen.append(X)
        assert all(old.counter.read() == 1 and old.audit_counter.read() == 1
                   for old in seen)
        P = X.payload
        shared = ((P.data, P.indices, P.indptr, ds.y) if X.is_sparse
                  else (P,))
        for a in shared:
            with pytest.raises(ValueError):
                a[...] = 0
        if fn is not parse_libsvm:
            if last_X is not None and last_X[0] == args:
                assert np.shares_memory(P, last_X[1])
            last_X = args, P


@pytest.mark.parametrize("gen", [gen_logistic, gen_quadratic])
@pytest.mark.parametrize("args", [(6, 3, 1.0), (6.0, 3, 1), (6, 3.0, 1)])
def test_a_non_integer_shape_or_seed_raises_after_a_memo_hit_too(gen, args):
    """A float n, d or seed that equals the memo's integer key is refused
    as a cold build refuses it, whatever was built before."""
    for warm in (False, True):
        data._clear_memos()
        if warm:
            gen(6, 3, 1)
        with pytest.raises(TypeError):
            gen(*args)


@pytest.mark.parametrize("as_str", [False, True])
def test_the_parse_memo_keeps_no_text_and_reads_all_of_it(as_str):
    """The memo holds no reference to the text it parsed, and two texts
    longer than a block that differ only in their last line are told apart
    (a str is digested a block at a time)."""
    import sys

    rows = data._BLOCK_BYTES // 8 + 10
    head = "+1 1:0.5 2:2\n" * rows
    texts = [head + "-1 2:1\n", head + "-1 2:3\n"]
    if not as_str:
        texts = [t.encode() for t in texts]
    data._clear_memos()
    before = sys.getrefcount(texts[0])
    first = parse_libsvm(texts[0])
    after = sys.getrefcount(texts[0])
    assert after == before
    second = parse_libsvm(texts[1])
    assert _dataset_bytes(second) == _cold(parse_libsvm, (texts[1],))
    assert _dataset_bytes(first) != _dataset_bytes(second)
