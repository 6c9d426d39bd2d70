import base64

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from canids.errors import IoError
from canids.model_io import decode_array, encode_array

# values whose bits a text format could lose: NaN, signed zero and
# infinities, and both ends of the subnormal range
SPECIAL = (np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
           2.2250738585072009e-308, np.finfo(np.float64).max)

shapes = st.one_of(
    st.just((0,)),
    st.integers(0, 5).map(lambda k: (0, k)),
    st.tuples(st.integers(1, 6), st.integers(1, 5)),
    st.tuples(st.integers(1, 12)),
)


@st.composite
def float_arrays(draw):
    """float64 arrays of either byte order, some of them strided views."""
    dtype = draw(st.sampled_from([np.dtype("<f8"), np.dtype(">f8")]))
    shape = draw(shapes)
    elements = st.one_of(st.sampled_from(SPECIAL),
                         st.floats(allow_nan=True, allow_infinity=True,
                                   allow_subnormal=True))
    a = draw(arrays(dtype, shape, elements=elements))
    if a.ndim == 2 and draw(st.booleans()):
        a = a.T  # a non-contiguous view
    elif a.ndim == 1 and a.size > 1 and draw(st.booleans()):
        a = a[::2]
    return a


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


def test_encoding_is_little_endian_c_order():
    a = np.array([[1.0, 2.0], [3.0, 4.0]]).T
    obj = encode_array(a.astype(">f8"))
    assert obj["shape"] == [2, 2]
    assert base64.b64decode(obj["data"]) == \
        np.array([1.0, 3.0, 2.0, 4.0], dtype="<f8").tobytes()


@pytest.mark.parametrize("obj, match", [
    ({"shape": [2]}, "'data'"),
    ({"data": ""}, "'shape'"),
    ({"shape": [1], "data": "not base64!"}, "malformed"),
    ({"shape": [1], "data": 7}, "malformed"),
    ({"shape": [3], "data": encode_array(np.ones(2))["data"]}, "needs 24"),
    ({"shape": [-1], "data": ""}, "not a list of sizes"),
])
def test_bad_encoded_array_is_an_io_error(obj, match):
    with pytest.raises(IoError, match=match):
        decode_array(obj)
