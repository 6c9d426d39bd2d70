import base64
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from canids.errors import IoError
from canids.model_io import decode_array, decode_float, encode_array

# values whose bits a text format could lose: NaN, signed zero and
# infinities, and both ends of the subnormal range
SPECIAL = (np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
           2.2250738585072009e-308, np.finfo(np.float64).max)

# the row counts around a byte of choice bits, and around the 3 rows from
# which a column packs
ROWS = st.sampled_from([0, 1, 2, 3, 7, 8, 9, 17])

shapes = st.one_of(
    st.just((0,)),
    st.integers(0, 5).map(lambda k: (0, k)),
    st.tuples(st.integers(1, 6), st.integers(1, 5)),
    st.tuples(st.integers(1, 12)),
    st.tuples(ROWS),
    st.tuples(ROWS, st.integers(0, 5)),
    st.tuples(ROWS, st.integers(1, 3), st.integers(1, 3)),
)

# pairs of bit patterns for two-valued columns: floats that compare equal
# or unequal to themselves but differ in their bits, and a one-valued pair
PAIRS = np.array([
    [0x8000000000000000, 0x0000000000000000],  # -0.0, 0.0
    [0x7FF8000000000001, 0xFFF8000000000000],  # two NaN payloads
    [0x7FF0000000000000, 0xFFF0000000000000],  # inf, -inf
    [0x0000000000000001, 0x800FFFFFFFFFFFFF],  # subnormals
    [0x3FF0000000000000, 0x3FF0000000000000],  # 1.0 alone
], dtype=np.uint64)


@st.composite
def float_arrays(draw):
    """float64 arrays of either byte order, some of them strided views,
    with some columns holding one or two bit patterns."""
    dtype = draw(st.sampled_from([np.dtype("<f8"), np.dtype(">f8")]))
    shape = draw(shapes)
    elements = st.one_of(st.sampled_from(SPECIAL),
                         st.floats(allow_nan=True, allow_infinity=True,
                                   allow_subnormal=True))
    a = draw(arrays(np.float64, shape, elements=elements))
    bits = column_bits(a)
    for j in range(bits.shape[1]):
        pair = draw(st.integers(-1, len(PAIRS) - 1))
        if pair >= 0:
            choice = draw(arrays(np.bool_, len(bits)))
            bits[:, j] = PAIRS[pair][choice.astype(np.intp)]
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


@settings(max_examples=200, deadline=None)
@given(float_arrays())
def test_packs_exactly_the_columns_of_at_most_two_patterns(a):
    bits = column_bits(a)
    expect = [j for j in range(bits.shape[1])
              if len(bits) >= 3 and len(set(bits[:, j].tolist())) <= 2]
    obj = encode_array(a)
    if expect:
        assert obj["packed"] == expect
    else:
        assert set(obj) == {"shape", "data"}


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


@pytest.mark.parametrize("obj, match", [
    ({"shape": [2]}, "'data'"),
    ({"data": ""}, "'shape'"),
    ({"shape": [1], "data": "not base64!"}, "malformed"),
    ({"shape": [1], "data": 7}, "malformed"),
    ({"shape": [3], "data": encode_array(np.ones(2))["data"]}, "needs 24"),
    ({"shape": [-1], "data": ""}, "not a list of sizes"),
    ({**PACKED, "patterns": _b64(8)}, "patterns holds 8 bytes"),
    ({**PACKED, "patterns": _b64(24)}, "patterns holds 24 bytes"),
    ({**PACKED, "choice": ""}, "choice holds 0 bytes"),
    ({**PACKED, "choice": _b64(2)}, "choice holds 2 bytes"),
    ({**PACKED, "data": _b64(16)}, "data holds 16 bytes, shape \\[3, 2\\] needs 24"),
    ({**PACKED, "packed": [2]}, "not ascending indices below 2"),
    ({**PACKED, "packed": [-1]}, "not ascending indices"),
    ({**PACKED, "packed": [0, 0]}, "not ascending indices"),
    ({**PACKED, "packed": [1, 0]}, "not ascending indices"),
    ({**PACKED, "packed": [0.0]}, "not ascending indices"),
    ({**PACKED, "packed": [True]}, "not ascending indices"),
    ({**PACKED, "packed": 0}, "malformed"),
    ({**PACKED, "patterns": "not base64!"}, "malformed"),
    ({**PACKED, "choice": "not base64!"}, "malformed"),
    ({**PACKED, "choice": 7}, "malformed"),
    ({k: v for k, v in PACKED.items() if k != "patterns"}, "'patterns'"),
    ({k: v for k, v in PACKED.items() if k != "choice"}, "'choice'"),
])
def test_bad_encoded_array_is_an_io_error(obj, match):
    with pytest.raises(IoError, match=match):
        decode_array(obj)


@pytest.mark.parametrize("value", [5, 1.5, None, ["0x1p+0"], "", "0x1.8q"])
def test_bad_hex_float_is_an_io_error(value):
    with pytest.raises(IoError, match="is not a hex float"):
        decode_float(value)
