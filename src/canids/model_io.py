"""Versioned JSON model files with bit-exact float round-tripping.

All fitted models serialize through the same envelope:
    {"format": "canids-model", "version": 7, "kind": "<model name>",
     "payload": {...}}
Every fitted float array is stored as {"shape": [...], "data": "<base64>"}.
The array is viewed as shape[0] rows by prod(shape[1:]) columns (a 1-D
array is one column). A column of at least 3 rows whose entries take at most
two float64 bit patterns is packed: the object gains "packed" (the ascending
indices of the packed columns), "patterns" (the base64 of each packed
column's first pattern and the other one, as little-endian float64 pairs)
and "choice" (the base64 of np.packbits of each packed column's rows, 1
where a row holds the second pattern, ceil(rows / 8) bytes per column).
data is the base64 of the other columns' little-endian float64 bytes in C
order; with no packed column the object holds only shape and data.
Scalars are stored as C99 hex strings (float.hex()). Both round-trip doubles
exactly, -0.0 and NaN payloads included. Integer arrays, such as the trees'
split features, are plain JSON integer lists. The trees of every tree
model are one trees.trees_to_payload object: their node counts and their
node arrays end to end in pre-order, children implied by the order, never
nested nodes. Files of any other version are refused, and so is JSON
nested too deep to parse.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path

import numpy as np

from .errors import IoError

FORMAT_NAME = "canids-model"
FORMAT_VERSION = 7

_LE_F8 = np.dtype("<f8")
_LE_U8 = np.dtype("<u8")


def encode_float(x: float) -> str:
    return float(x).hex()


def decode_float(s: str) -> float:
    """The float a C99 hex string encodes; IoError for any other value."""
    try:
        return float.fromhex(s)
    except (TypeError, ValueError) as exc:
        raise IoError(f"{s!r} is not a hex float: {exc}") from exc


def _rows(shape: tuple[int, ...]) -> tuple[int, int]:
    """The (rows, columns) view of an array of this shape."""
    return (shape[0] if shape else 1), math.prod(shape[1:])


# packing a column stores 16 pattern bytes plus ceil(n / 8) choice bytes in
# place of 8 * n data bytes, which is smaller from this many rows on
_MIN_PACK_ROWS = 3


def encode_array(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=_LE_F8)
    n, width = _rows(a.shape)
    rows = np.ascontiguousarray(a).reshape(n, width)
    obj = {"shape": list(a.shape)}
    if n < _MIN_PACK_ROWS:
        obj["data"] = _b64(rows)
        return obj
    bits = rows.view(_LE_U8)  # bit patterns: -0.0 != 0.0, NaN payloads apart
    first = bits[0]
    differs = bits != first
    second = bits[differs.argmax(axis=0), np.arange(width)]
    pack = ((bits == second) | ~differs).all(axis=0)
    obj["data"] = _b64(rows[:, ~pack])
    if pack.any():
        obj["packed"] = np.flatnonzero(pack).tolist()
        obj["patterns"] = _b64(np.stack([first[pack], second[pack]], axis=1))
        obj["choice"] = _b64(np.packbits(differs[:, pack].T, axis=1))
    return obj


def decode_array(obj: dict) -> np.ndarray:
    """A native-endian, writeable, C-contiguous float64 copy of an encoded
    array."""
    try:
        shape = tuple(obj["shape"])
        raw = base64.b64decode(obj["data"], validate=True)
        cols, patterns, choice = [], b"", b""
        if "packed" in obj:
            cols = list(obj["packed"])
            patterns = base64.b64decode(obj["patterns"], validate=True)
            choice = base64.b64decode(obj["choice"], validate=True)
    except KeyError as exc:
        raise IoError(f"encoded array has no {exc.args[0]!r} key") from exc
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise IoError(f"encoded array is malformed: {exc}") from exc
    if not all(isinstance(d, int) and d >= 0 for d in shape):
        raise IoError(f"encoded array shape {list(shape)} is not a list of sizes")
    n, width = _rows(shape)
    if not (all(type(c) is int for c in cols)
            and all(a < b for a, b in zip(cols, cols[1:]))
            and (not cols or 0 <= cols[0] and cols[-1] < width)):
        raise IoError(f"packed columns {cols} are not ascending indices "
                      f"below {width}")
    k = len(cols)
    per_column = -(-n // 8)
    _check_size("data", raw, _LE_F8.itemsize * n * (width - k), shape)
    _check_size("patterns", patterns, 2 * _LE_U8.itemsize * k, shape)
    _check_size("choice", choice, per_column * k, shape)
    out = np.empty((n, width), dtype=np.uint64)
    dense = np.ones(width, dtype=bool)
    dense[cols] = False
    out[:, dense] = np.frombuffer(raw, dtype=_LE_U8).reshape(n, width - k)
    if cols:
        pairs = np.frombuffer(patterns, dtype=_LE_U8).reshape(k, 2)
        picks = np.unpackbits(np.frombuffer(choice, dtype=np.uint8)
                              .reshape(k, per_column), axis=1, count=n)
        out[:, cols] = np.take_along_axis(pairs, picks, axis=1).T
    return out.view(np.float64).reshape(shape)


def _b64(a: np.ndarray) -> str:
    return base64.b64encode(a.tobytes()).decode("ascii")


def _check_size(part: str, raw: bytes, need: int, shape: tuple) -> None:
    if len(raw) != need:
        raise IoError(f"encoded array {part} holds {len(raw)} bytes, shape "
                      f"{list(shape)} needs {need}")


def save_model(path: str | Path, kind: str, payload: dict) -> None:
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind,
        "payload": payload,
    }
    try:
        Path(path).write_text(json.dumps(doc), encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write model file {path}: {exc}") from exc


def load_model(path: str | Path) -> tuple[str, dict]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise IoError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IoError(f"model file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise IoError(f"model file {path} nests JSON too deeply") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise IoError(f"{path} is not a {FORMAT_NAME} file")
    if doc.get("version") != FORMAT_VERSION:
        raise IoError(f"unsupported model version {doc.get('version')}")
    for key in ("kind", "payload"):
        if key not in doc:
            raise IoError(f"model file {path} has no {key!r} key")
    if not isinstance(doc["payload"], dict):
        raise IoError(f"model file {path}: payload is not an object")
    return doc["kind"], doc["payload"]
