"""Versioned JSON model files with bit-exact float round-tripping.

All fitted models serialize through the same envelope:
    {"format": "canids-model", "version": 4, "kind": "<model name>",
     "payload": {...}}
Every fitted array is stored as {"shape": [...], "data": "<base64>"}, where
data is the base64 of the array's little-endian float64 bytes in C order.
Scalars are stored as C99 hex strings (float.hex()). Both round-trip doubles
exactly. Files of any other version are refused.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path

import numpy as np

from .errors import IoError

FORMAT_NAME = "canids-model"
FORMAT_VERSION = 4

_LE_F8 = np.dtype("<f8")


def encode_float(x: float) -> str:
    return float(x).hex()


def decode_float(s: str) -> float:
    return float.fromhex(s)


def encode_array(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=_LE_F8)
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def decode_array(obj: dict) -> np.ndarray:
    """A native-endian, writeable float64 copy of an encoded array."""
    try:
        shape = tuple(obj["shape"])
        raw = base64.b64decode(obj["data"], validate=True)
    except KeyError as exc:
        raise IoError(f"encoded array has no {exc.args[0]!r} key") from exc
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise IoError(f"encoded array is malformed: {exc}") from exc
    if not all(isinstance(d, int) and d >= 0 for d in shape):
        raise IoError(f"encoded array shape {list(shape)} is not a list of sizes")
    need = _LE_F8.itemsize * math.prod(shape)
    if len(raw) != need:
        raise IoError(f"encoded array holds {len(raw)} bytes, shape "
                      f"{list(shape)} needs {need}")
    return np.frombuffer(raw, dtype=_LE_F8).astype(np.float64).reshape(shape)


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
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise IoError(f"{path} is not a {FORMAT_NAME} file")
    if doc.get("version") != FORMAT_VERSION:
        raise IoError(f"unsupported model version {doc.get('version')}")
    for key in ("kind", "payload"):
        if key not in doc:
            raise IoError(f"model file {path} has no {key!r} key")
    return doc["kind"], doc["payload"]
