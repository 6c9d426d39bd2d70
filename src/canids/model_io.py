"""Versioned JSON model files with bit-exact float round-tripping.

All fitted models serialize through the same envelope:
    {"format": "canids-model", "version": 8, "kind": "<model name>",
     "payload": {...}}
written as compact JSON (no spaces after separators).
Every fitted float array is stored as {"shape": [...], "data": "<base64>"}.
The array is viewed as shape[0] rows by prod(shape[1:]) columns (a 1-D
array is one column). A column of n rows whose entries take k distinct
float64 bit patterns is packed when its k patterns and b = ceil(log2 k)
bit-planes of per-row pattern indices, 8k + b * ceil(n / 8) bytes, are fewer
than its 8n dense bytes. The object then gains "packed" (the ascending
indices of the packed columns), "counts" (each packed column's k),
"patterns" (the base64 of each packed column's k patterns, ascending as
little-endian uint64, column after column) and "planes" (the base64 of each
packed column's b planes, column after column: plane i is np.packbits of
bit i of every row's index, least significant plane first, ceil(n / 8)
bytes each; a one-pattern column has no plane). data is the base64 of the
other columns' little-endian float64 bytes in C order; with no packed
column the object holds only shape and data.
Scalars are stored as C99 hex strings (float.hex()). Both round-trip doubles
exactly, -0.0 and NaN payloads included. Integer arrays are plain JSON
integer lists. This module knows no model type: detectors lays out and
checks each model's payload. Files of any other version (1-7 included) are
refused, and so is JSON nested too deep to parse.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
from pathlib import Path

import numpy as np

from .errors import IoError

FORMAT_NAME = "canids-model"
FORMAT_VERSION = 8

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


def _planes(counts):
    """b = ceil(log2 k) for each pattern count k >= 1 (exact below 2**53)."""
    return np.frexp(np.asarray(counts, dtype=np.float64) - 1)[1]


def encode_array(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=_LE_F8)
    n, width = _rows(a.shape)
    rows = np.ascontiguousarray(a).reshape(n, width)
    obj = {"shape": list(a.shape)}
    if n < 2:  # a lone row's pattern takes its 8 bytes, so nothing packs
        obj["data"] = _b64(rows)
        return obj
    bits = rows.view(_LE_U8)  # bit patterns: -0.0 != 0.0, NaN payloads apart
    # the columns of at most two patterns, found without sorting
    first = bits[0]
    differs = bits != first
    second = bits[differs.argmax(axis=0), np.arange(width)]
    two = ((bits == second) | ~differs).all(axis=0)
    counts = 1 + (second != first)
    # the other columns' patterns, counted from one sort
    rest = np.flatnonzero(~two)
    ranked = np.sort(bits[:, rest], axis=0)
    new = ranked[1:] != ranked[:-1]
    counts[rest] = 1 + new.sum(axis=0)
    per_column = -(-n // 8)
    pack = 8 * counts + _planes(counts) * per_column < 8 * n
    obj["data"] = _b64(rows[:, ~pack])
    if not pack.any():
        return obj
    cols = np.flatnonzero(pack)
    k = counts[cols]
    b = _planes(k)
    offsets, starts = np.cumsum(k) - k, np.cumsum(b) - b
    patterns = np.empty(k.sum(), dtype=_LE_U8)
    planes = np.empty((b.sum(), per_column), dtype=np.uint8)
    # a one- or two-pattern column: its lower pattern, then its higher one
    # and the one plane that marks the rows holding it
    small = two[cols]
    pair = small & (k == 2)
    patterns[offsets[small]] = np.minimum(first, second)[cols[small]]
    patterns[offsets[pair] + 1] = np.maximum(first, second)[cols[pair]]
    marks = differs[:, cols[pair]] ^ (first > second)[cols[pair]]
    planes[starts[pair]] = np.packbits(marks.T, axis=1)
    # any other: its sorted distinct patterns and the planes of each row's
    # index among them
    for i in np.flatnonzero(~small):
        j = np.searchsorted(rest, cols[i])
        keys = ranked[np.concatenate(([True], new[:, j])), j]
        patterns[offsets[i]:offsets[i] + k[i]] = keys
        index = np.searchsorted(keys, bits[:, cols[i]])
        planes[starts[i]:starts[i] + b[i]] = np.packbits(
            (index & (1 << np.arange(b[i]))[:, None]) != 0, axis=1)
    obj["packed"] = cols.tolist()
    obj["counts"] = k.tolist()
    obj["patterns"] = _b64(patterns)
    obj["planes"] = _b64(planes)
    return obj


def decode_array(obj: dict) -> np.ndarray:
    """A native-endian, writeable, C-contiguous float64 copy of an encoded
    array."""
    try:
        shape = tuple(obj["shape"])
        raw = base64.b64decode(obj["data"], validate=True)
        cols, counts, patterns, planes = [], [], b"", b""
        if "packed" in obj:
            cols = list(obj["packed"])
            counts = list(obj["counts"])
            patterns = base64.b64decode(obj["patterns"], validate=True)
            planes = base64.b64decode(obj["planes"], validate=True)
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
    if not (len(counts) == len(cols)
            and all(type(k) is int and k >= 1 for k in counts)):
        raise IoError(f"pattern counts {counts} are not one integer >= 1 "
                      f"per packed column")
    _check_size("data", raw, _LE_F8.itemsize * n * (width - len(cols)), shape)
    _check_size("patterns", patterns, _LE_U8.itemsize * sum(counts), shape)
    _check_size("planes", planes, -(-n // 8) * int(_planes(counts).sum()),
                shape)
    dense = np.frombuffer(raw, dtype=_LE_U8).reshape(n, width - len(cols))
    if not cols:
        return np.array(dense, dtype=np.uint64).view(np.float64).reshape(shape)
    packed = _unpack(np.array(counts), patterns, planes, n)
    # the columns in order, from runs of dense and of packed ones
    is_packed = np.zeros(width, dtype=bool)
    is_packed[cols] = True
    runs, used = [], [0, 0]
    for p, run in itertools.groupby(is_packed.tolist()):
        size = sum(1 for _ in run)
        runs.append((dense, packed)[p][:, used[p]:used[p] + size])
        used[p] += size
    out = np.concatenate(runs, axis=1, dtype=np.uint64)
    return out.view(np.float64).reshape(shape)


def _unpack(counts: np.ndarray, patterns: bytes, planes: bytes,
            n: int) -> np.ndarray:
    """The (n, columns) bit patterns of the packed columns: each row's index,
    read from its column's planes, picks one of that column's patterns.
    IoError for an index not below its column's count."""
    b = _planes(counts)
    starts = np.cumsum(b) - b
    bits = np.unpackbits(
        np.frombuffer(planes, dtype=np.uint8).reshape(b.sum(), -(-n // 8)),
        axis=1, count=n)
    index = np.zeros((len(counts), n), np.min_scalar_type(counts.max() - 1))
    for level in range(b.max()):
        has = np.flatnonzero(b > level)
        index[has] |= bits[starts[has] + level].astype(index.dtype) << level
    ragged = counts & (counts - 1) != 0  # not every b-bit index is a pattern
    if (index[ragged] >= counts[ragged, None]).any():
        raise IoError("encoded array holds a pattern index not below its "
                      "column's count")
    offsets = np.cumsum(counts) - counts
    return np.frombuffer(patterns, dtype=_LE_U8)[
        np.add(index.T, offsets, dtype=np.intp, order="C")]


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
        Path(path).write_text(json.dumps(doc, separators=(",", ":")),
                              encoding="utf-8")
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
