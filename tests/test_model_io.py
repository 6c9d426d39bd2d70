import ast
import base64
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import canids
from canids.errors import IoError
from canids.model_io import decode_array, decode_float, encode_array

# values whose bits a text format could lose: NaN, signed zero and
# infinities, and both ends of the subnormal range
SPECIAL = (np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
           2.2250738585072009e-308, np.finfo(np.float64).max)

# row counts around a byte of plane bits, around the 2 and 3 rows from which
# one- and two-pattern columns pack, and around the ~294 and ~300 rows from
# which columns of 256 and 257 patterns pack
ROWS = st.sampled_from([0, 1, 2, 3, 7, 8, 9, 17, 293, 294, 296, 297, 300, 305])

shapes = st.one_of(
    st.just((0,)),
    st.integers(0, 5).map(lambda k: (0, k)),
    st.tuples(st.integers(1, 6), st.integers(1, 5)),
    st.tuples(st.integers(1, 12)),
    st.tuples(ROWS),
    st.tuples(ROWS, st.integers(0, 5)),
    st.tuples(ROWS, st.integers(1, 3), st.integers(1, 3)),
)

# bit patterns that compare equal or unequal to themselves but differ in
# their bits: signed zeros, two NaN payloads, infinities and subnormals
SPECIAL_BITS = np.unique(np.concatenate([
    np.array(SPECIAL).view(np.uint64),
    np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x800FFFFFFFFFFFFF],
             dtype=np.uint64),
]))

# the pattern counts a column may draw from: one and two, around a 2-plane
# index, and around 4-, 8- and 9-plane indices
POOL_SIZES = (1, 2, 3, 4, 5, 16, 17, 256, 257)


def pattern_pool(k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct bit patterns, as many special ones as fit first."""
    pool = list(rng.permutation(SPECIAL_BITS)[:k])
    seen = set(pool)
    while len(pool) < k:
        p = rng.integers(0, 2**64, dtype=np.uint64)
        if p not in seen:
            seen.add(p)
            pool.append(p)
    return np.array(pool, dtype=np.uint64)


def pool_column(k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n bit patterns drawn from a pool of k, each of the k at least once
    when n >= k."""
    picks = np.concatenate([np.arange(k), rng.integers(0, k, n)])[:n]
    return pattern_pool(k, rng)[rng.permutation(picks)]


@st.composite
def float_arrays(draw):
    """float64 arrays of either byte order, some of them strided views,
    with some columns drawn from a pool of a few to 257 bit patterns, each
    pattern used when the column has the rows for it."""
    dtype = draw(st.sampled_from([np.dtype("<f8"), np.dtype(">f8")]))
    shape = draw(shapes)
    elements = st.one_of(st.sampled_from(SPECIAL),
                         st.floats(allow_nan=True, allow_infinity=True,
                                   allow_subnormal=True))
    a = draw(arrays(np.float64, shape, elements=elements))
    bits = column_bits(a)
    for j in range(bits.shape[1]):
        k = draw(st.sampled_from((None,) + POOL_SIZES))
        if k is not None:
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            bits[:, j] = pool_column(k, len(bits), rng)
    a = a.astype(dtype)
    if a.ndim == 2 and draw(st.booleans()):
        a = a.T  # a non-contiguous view
    elif a.ndim == 1 and a.size > 1 and draw(st.booleans()):
        a = a[::2]
    return a


def column_bits(a: np.ndarray) -> np.ndarray:
    """The bit patterns of a as a native (rows, columns) uint64 view, one
    column per entry of shape[1:]; a view of a if a is native C-order."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    return a.reshape(a.shape[0], math.prod(a.shape[1:])).view(np.uint64)


def native_bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


@settings(max_examples=300, deadline=None)
@given(float_arrays())
@example(np.array(SPECIAL))
def test_array_round_trip_is_bit_exact(a):
    back = decode_array(encode_array(a))
    assert back.shape == a.shape
    assert back.dtype == np.float64 and back.dtype.isnative
    assert back.flags.writeable and back.flags.c_contiguous
    assert back.tobytes() == native_bytes(a)


def pooled(*columns: tuple[int, int]) -> np.ndarray:
    """Columns of (k patterns, n rows) from pool_column, as float64."""
    return np.stack([pool_column(k, n, np.random.default_rng(k))
                     for k, n in columns], axis=1).view(np.float64)


@settings(max_examples=200, deadline=None)
@given(float_arrays())
@example(pooled((256, 294), (257, 294)))
@example(pooled((256, 300), (257, 300)))
@example(pooled((256, 293)))
def test_packs_exactly_the_columns_that_patterns_and_planes_shrink(a):
    """Oracle, column by column: a column of n rows and k patterns packs
    when 8k + ceil(log2 k) * ceil(n / 8) < 8n, with its patterns ascending
    and its index bit-planes least significant first."""
    bits = column_bits(a)
    n = len(bits)
    packed, counts, patterns, planes = [], [], b"", b""
    for j in range(bits.shape[1]):
        keys = sorted(set(bits[:, j].tolist()))
        b = math.ceil(math.log2(len(keys))) if keys else 0
        if 8 * len(keys) + b * math.ceil(n / 8) >= 8 * n:
            continue
        packed.append(j)
        counts.append(len(keys))
        patterns += np.array(keys, dtype="<u8").tobytes()
        index = np.array([keys.index(v) for v in bits[:, j].tolist()])
        for level in range(b):
            planes += np.packbits((index >> level) & 1).tobytes()
    obj = encode_array(a)
    if not packed:
        assert set(obj) == {"shape", "data"}
        return
    assert obj["packed"] == packed
    assert obj["counts"] == counts
    assert base64.b64decode(obj["patterns"]) == patterns
    assert base64.b64decode(obj["planes"]) == planes
    dense = [j for j in range(bits.shape[1]) if j not in packed]
    assert base64.b64decode(obj["data"]) == \
        np.ascontiguousarray(bits[:, dense]).astype("<u8").tobytes()


def test_packable_columns_encode_smaller_than_dense_bytes():
    rng = np.random.default_rng(0)
    a = np.hstack([rng.integers(0, 2, (1000, 64)) * 2.5 - 1.25,
                   rng.normal(size=(1000, 3))])
    dense = base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")
    obj = encode_array(a)
    assert obj["packed"] == list(range(64))
    assert len(json.dumps(obj)) * 10 < len(dense)
    assert decode_array(obj).tobytes() == a.tobytes()


def test_encoding_is_little_endian_c_order():
    a = np.array([[1.0, 2.0], [3.0, 4.0]]).T
    obj = encode_array(a.astype(">f8"))
    assert obj["shape"] == [2, 2]
    assert base64.b64decode(obj["data"]) == \
        np.array([1.0, 3.0, 2.0, 4.0], dtype="<f8").tobytes()


def _b64(n_bytes: int) -> str:
    return base64.b64encode(bytes(n_bytes)).decode("ascii")


# column 0 packs (two patterns, three rows), column 1 does not
PACKED = encode_array(np.array([[0.0, 1.0], [-0.0, 2.0], [0.0, 3.0]]))
assert PACKED["packed"] == [0]

# one column of three patterns in eight rows: two index planes of one byte,
# so all-ones planes make index 3 on every row
THREE = encode_array(np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 0.0, 1.0]))
assert THREE["counts"] == [3]


@pytest.mark.parametrize("obj, match", [
    ({"shape": [2]}, "'data'"),
    ({"data": ""}, "'shape'"),
    ({"shape": [1], "data": "not base64!"}, "malformed"),
    ({"shape": [1], "data": 7}, "malformed"),
    ({"shape": [3], "data": encode_array(np.ones(2))["data"]}, "needs 24"),
    ({"shape": [-1], "data": ""}, "not a list of sizes"),
    ({**PACKED, "patterns": _b64(8)}, "patterns holds 8 bytes"),
    ({**PACKED, "patterns": _b64(24)}, "patterns holds 24 bytes"),
    ({**PACKED, "planes": ""}, "planes holds 0 bytes"),
    ({**PACKED, "planes": _b64(2)}, "planes holds 2 bytes"),
    ({**PACKED, "data": _b64(16)}, "data holds 16 bytes, shape \\[3, 2\\] needs 24"),
    ({**PACKED, "packed": [2]}, "not ascending indices below 2"),
    ({**PACKED, "packed": [-1]}, "not ascending indices"),
    ({**PACKED, "packed": [0, 0]}, "not ascending indices"),
    ({**PACKED, "packed": [1, 0]}, "not ascending indices"),
    ({**PACKED, "packed": [0.0]}, "not ascending indices"),
    ({**PACKED, "packed": [True]}, "not ascending indices"),
    ({**PACKED, "packed": 0}, "malformed"),
    ({**PACKED, "patterns": "not base64!"}, "malformed"),
    ({**PACKED, "planes": "not base64!"}, "malformed"),
    ({**PACKED, "planes": 7}, "malformed"),
    ({k: v for k, v in PACKED.items() if k != "patterns"}, "'patterns'"),
    ({k: v for k, v in PACKED.items() if k != "planes"}, "'planes'"),
    ({k: v for k, v in PACKED.items() if k != "counts"}, "'counts'"),
    ({**PACKED, "counts": 2}, "malformed"),
    ({**PACKED, "counts": []}, "not one integer >= 1 per packed column"),
    ({**PACKED, "counts": [2, 2]}, "not one integer >= 1"),
    ({**PACKED, "counts": [0]}, "not one integer >= 1"),
    ({**PACKED, "counts": [-2]}, "not one integer >= 1"),
    ({**PACKED, "counts": [2.0]}, "not one integer >= 1"),
    ({**PACKED, "counts": [True]}, "not one integer >= 1"),
    ({**PACKED, "counts": ["2"]}, "not one integer >= 1"),
    ({**PACKED, "counts": [1]}, "patterns holds 16 bytes, shape \\[3, 2\\] needs 8"),
    ({**PACKED, "counts": [3]}, "patterns holds 16 bytes, shape \\[3, 2\\] needs 24"),
    ({**PACKED, "counts": [2**70]}, "patterns holds 16 bytes"),
    ({**PACKED, "counts": [1], "patterns": _b64(8)}, "planes holds 1 bytes, shape \\[3, 2\\] needs 0"),
    ({**THREE, "planes": _b64(1)}, "planes holds 1 bytes, shape \\[8\\] needs 2"),
    ({**THREE, "planes": base64.b64encode(b"\xff\xff").decode("ascii")},
     "pattern index not below its column's count"),
])
def test_bad_encoded_array_is_an_io_error(obj, match):
    with pytest.raises(IoError, match=match):
        decode_array(obj)


@pytest.mark.parametrize("value", [5, 1.5, None, ["0x1p+0"], "", "0x1.8q"])
def test_bad_hex_float_is_an_io_error(value):
    with pytest.raises(IoError, match="is not a hex float"):
        decode_float(value)


@pytest.mark.parametrize("module", ["trees", "autoencoder", "density",
                                    "neighbors"])
def test_model_layers_do_not_import_model_io(module):
    """Only detectors lays out model files: the model layers never import
    the file codec."""
    path = Path(canids.__file__).parent / f"{module}.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    assert not [name for name in imported
                if name.split(".")[-1] == "model_io"]
