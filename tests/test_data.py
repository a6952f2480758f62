"""Dataset parsing, standardization, and synthetic generators."""

import hashlib
import warnings

import numpy as np
import pytest

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


def test_round_trip():
    ds = gen_logistic(20, 5, seed=3)
    again = parse_libsvm(write_libsvm(ds))
    assert np.allclose(again.X.dense(), ds.X.dense(), atol=0)
    assert np.array_equal(again.y, ds.y)


def test_parse_peak_memory_stays_near_the_csr():
    """Parsing holds one 8-byte entry per nonzero and field, not one Python
    object: the traced peak stays within 6x the bytes of the CSR it builds
    (it was 9.6x with lists)."""
    import tracemalloc

    import scipy.sparse as sp
    from subsearch.counted import CountedMatrix

    X = sp.random(5000, 500, density=0.01, format="csr",
                  random_state=np.random.default_rng(0))
    text = write_libsvm(Dataset(CountedMatrix(X), np.ones(5000), "real"))
    tracemalloc.start()
    try:
        P = parse_libsvm(text).X.payload
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (P != X).nnz == 0
    assert peak <= 6 * (P.data.nbytes + P.indices.nbytes + P.indptr.nbytes)


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # numpy overflow warnings fail
        for kind, ds in (("logistic", gen_logistic(2000, 200, 1)),
                         ("quadratic", gen_quadratic(300, 30, 2))):
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
