"""Versioned JSON model files with bit-exact float round-tripping.

All fitted models serialize through the same envelope:
    {"format": "canids-model", "version": 2, "kind": "<model name>",
     "payload": {...}}
Floats inside fitted state are stored as C99 hex strings (float.hex()),
which round-trip doubles exactly. Files of any other version are refused.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import IoError

FORMAT_NAME = "canids-model"
FORMAT_VERSION = 2


def encode_float(x: float) -> str:
    return float(x).hex()


def decode_float(s: str) -> float:
    return float.fromhex(s)


def encode_array(a: np.ndarray) -> dict:
    return {
        "shape": list(a.shape),
        "data": [float(v).hex() for v in np.asarray(a, dtype=np.float64).ravel()],
    }


def decode_array(obj: dict) -> np.ndarray:
    flat = np.array([float.fromhex(s) for s in obj["data"]], dtype=np.float64)
    return flat.reshape(obj["shape"])


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
    if doc.get("format") != FORMAT_NAME:
        raise IoError(f"{path} is not a {FORMAT_NAME} file")
    if doc.get("version") != FORMAT_VERSION:
        raise IoError(f"unsupported model version {doc.get('version')}")
    return doc["kind"], doc["payload"]
