"""CAN traffic log parsing, validation, and cleaning.

The supported wire format is the challenge CSV layout
``Timestamp,Arbitration_ID,DLC,Data,Class`` where Data holds DLC
space-separated two-digit hex bytes and the Class column is optional.
Hex arbitration IDs are converted to decimal integers at parse time.

The reader takes lines in fixed blocks and scans each block as bytes with
numpy: lines of the canonical shape (what render_line writes, unless a
timestamp needs a three-digit exponent) become columns without a Python
step per line. Every other line goes to _fields, which alone decides
whether a line is valid and why not, so a block scan changes no result.
A UTF-8 byte order mark before the first line is dropped.

A RecordBatch holds frames as numpy columns and checks every record
invariant when it is built; CanRecord is the row view of one frame.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BadHex,
    DlcMismatch,
    MalformedLine,
    NonFiniteTimestamp,
    ParseError,
)

MAX_ARBITRATION_ID = 1 << 29  # extended 29-bit identifier space
MAX_DLC = 8

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")

# Class strings accepted case-insensitively; "attack" is an alias for anomaly.
_LABEL_ALIASES = {
    "normal": "Normal",
    "anomaly": "Anomaly",
    "attack": "Anomaly",
}


class Label(enum.Enum):
    NORMAL = "Normal"
    ANOMALY = "Anomaly"
    UNLABELED = "Unlabeled"


class CanRecord(NamedTuple):
    """One CAN frame: the row view of a RecordBatch, and the field tuple
    RecordBatch.of builds columns from. A valid record has
    len(data_bytes) == dlc."""

    timestamp: float
    arbitration_id: int
    dlc: int
    data_bytes: tuple[int, ...]
    label: Label = Label.UNLABELED


@dataclass(frozen=True)
class ParseFailure:
    """A line that could not be parsed, kept for cleaning statistics."""

    line_no: int
    reason: str
    line: str


# label column code of each Label; code -1 indexes the last entry of _LABELS
_LABEL_CODE = {Label.NORMAL: 0, Label.ANOMALY: 1, Label.UNLABELED: -1}
_LABELS = (Label.NORMAL, Label.ANOMALY, Label.UNLABELED)

_COLUMNS = {"timestamp": np.float64, "arbitration_id": np.int64,
            "dlc": np.uint8, "payload": np.uint8, "label": np.int8}


def _refuse(bad: np.ndarray, error: type[ParseError], what: str) -> None:
    """Raise error naming the first row flagged in bad."""
    if bad.any():
        raise error(f"record {int(np.argmax(bad))}: {what}")


@dataclass(frozen=True, eq=False)
class RecordBatch:
    """The frames of one source as numpy columns, in file order.

    timestamp f8; arbitration_id i8; dlc u1; payload (n, 8) u1, the data
    bytes right-aligned with zeros above the DLC (the byte image that
    features.extract unpacks); label i1: -1 unlabeled, 0 normal, 1 anomaly.
    Construction checks every record invariant and raises the ParseError
    of the first failing check, so a batch holds valid frames only.
    Nothing in this module re-sorts. parse_failures carries lines rejected
    by the lenient reader so that clean() can account for them.
    """

    timestamp: np.ndarray
    arbitration_id: np.ndarray
    dlc: np.ndarray
    payload: np.ndarray
    label: np.ndarray
    source_name: str = ""
    parse_failures: tuple[ParseFailure, ...] = ()

    def __post_init__(self):
        n = len(self.timestamp)
        for name, dtype in _COLUMNS.items():
            col = getattr(self, name)
            shape = (n, MAX_DLC) if name == "payload" else (n,)
            if col.dtype != dtype or col.shape != shape:
                raise TypeError(f"column {name} must be {np.dtype(dtype)} "
                                f"of shape {shape}")
        ts, ids, dlc = self.timestamp, self.arbitration_id, self.dlc
        _refuse(~np.isfinite(ts) | (ts < 0), NonFiniteTimestamp,
                "timestamp is NaN, infinite or negative")
        _refuse((ids < 0) | (ids >= MAX_ARBITRATION_ID), MalformedLine,
                "arbitration id outside 29-bit range")
        _refuse(dlc > MAX_DLC, DlcMismatch, f"dlc outside [0, {MAX_DLC}]")
        above = np.arange(MAX_DLC) < MAX_DLC - dlc[:, None]
        _refuse((above & (self.payload != 0)).any(axis=1), DlcMismatch,
                "payload byte above the dlc")
        _refuse((self.label < -1) | (self.label > 1), MalformedLine,
                "label code not -1, 0 or 1")

    @classmethod
    def of(cls, rows: Iterable[tuple], source_name: str = "",
           parse_failures: tuple[ParseFailure, ...] = ()) -> RecordBatch:
        """Batch of (timestamp, arbitration_id, dlc, data_bytes, label) rows,
        such as CanRecords. Raises DlcMismatch if a row's DLC lies outside
        [0, 8] or differs from its byte count, BadHex if a byte lies
        outside [0, 255], and whatever the batch's own checks raise."""
        rows = list(rows)
        ts, ids, dlcs, data, labels = ([row[k] for row in rows] for k in range(5))
        dlc = np.array(dlcs, dtype=np.int64)
        _refuse((dlc < 0) | (dlc > MAX_DLC), DlcMismatch,
                f"dlc outside [0, {MAX_DLC}]")
        _refuse(np.fromiter(map(len, data), np.int64, len(rows)) != dlc,
                DlcMismatch, "data byte count differs from the dlc")
        try:
            image = b"".join(bytes(MAX_DLC - len(d)) + bytes(d) for d in data)
        except ValueError as exc:
            raise BadHex(f"data byte: {exc}") from None
        return cls(np.array(ts, dtype=np.float64),
                   np.array(ids, dtype=np.int64), dlc.astype(np.uint8),
                   np.frombuffer(image, np.uint8).reshape(-1, MAX_DLC),
                   np.array([_LABEL_CODE[lab] for lab in labels], np.int8),
                   source_name, tuple(parse_failures))

    @classmethod
    def concat(cls, parts: Iterable[RecordBatch],
               source_name: str = "") -> RecordBatch:
        """The frames of parts, in order, as one batch."""
        parts = list(parts)
        return cls(*(np.concatenate([getattr(p, name) for p in parts])
                     for name in _COLUMNS), source_name)

    def __len__(self) -> int:
        return self.timestamp.size

    def take(self, rows) -> RecordBatch:
        """The batch of the given rows (an index array or mask), in that
        order."""
        return replace(self, **{name: getattr(self, name)[rows]
                                for name in _COLUMNS})

    @functools.cached_property
    def records(self) -> tuple[CanRecord, ...]:
        """The frames as CanRecords, built on first use."""
        dlcs = self.dlc.tolist()
        data = [tuple(image[MAX_DLC - d:])
                for image, d in zip(self.payload.tolist(), dlcs)]
        labels = [_LABELS[code] for code in self.label.tolist()]
        return tuple(map(CanRecord, self.timestamp.tolist(),
                         self.arbitration_id.tolist(), dlcs, data, labels))


@dataclass
class CleaningStats:
    """Counts of records removed by clean(), keyed by reason."""

    removed: dict[str, int] = field(default_factory=dict)
    kept: int = 0

    @property
    def total_removed(self) -> int:
        return sum(self.removed.values())


def hex_to_decimal(text: str) -> int:
    """Exact base-16 value of a non-empty hex string."""
    if not text:
        raise BadHex("empty hex field")
    if any(c not in _HEX_DIGITS for c in text):
        raise BadHex(f"non-hex digit in {text!r}")
    return int(text, 16)


def _parse_data_field(data: str, dlc: int) -> tuple[int, ...]:
    if data == "":
        tokens: list[str] = []
    else:
        tokens = data.split(" ")
    out = []
    for tok in tokens:
        if len(tok) != 2 or any(c not in _HEX_DIGITS for c in tok):
            raise BadHex(f"bad data byte token {tok!r}")
        out.append(int(tok, 16))
    if len(out) != dlc:
        raise DlcMismatch(f"{len(out)} data bytes but dlc {dlc}")
    return tuple(out)


def _parse_label(text: str) -> Label:
    canonical = _LABEL_ALIASES.get(text.strip().lower())
    if canonical is None:
        raise MalformedLine(f"unknown class label {text!r}")
    return Label(canonical)


def _fields(line: str) -> tuple:
    """The validated (timestamp, id, dlc, data_bytes, label) of one line."""
    parts = line.rstrip("\r\n").split(",")
    if len(parts) == 4:
        ts_s, id_s, dlc_s, data_s = parts
        label = Label.UNLABELED
    elif len(parts) == 5:
        ts_s, id_s, dlc_s, data_s, label_s = parts
        label = _parse_label(label_s)
    else:
        raise MalformedLine(f"expected 4 or 5 columns, got {len(parts)}")

    try:
        timestamp = float(ts_s)
    except ValueError:
        raise NonFiniteTimestamp(f"unparseable timestamp {ts_s!r}") from None
    if not math.isfinite(timestamp) or timestamp < 0:
        raise NonFiniteTimestamp(f"bad timestamp {ts_s!r}")

    arbitration_id = hex_to_decimal(id_s.strip())
    if arbitration_id >= MAX_ARBITRATION_ID:
        raise MalformedLine(f"arbitration id {id_s!r} outside 29-bit range")

    try:
        dlc = int(dlc_s)
    except ValueError:
        raise MalformedLine(f"unparseable dlc {dlc_s!r}") from None
    if not (0 <= dlc <= MAX_DLC):
        raise DlcMismatch(f"dlc {dlc} outside [0, {MAX_DLC}]")

    return timestamp, arbitration_id, dlc, _parse_data_field(data_s, dlc), label


def parse_line(line: str) -> CanRecord:
    """Parse one log line into a fully validated CanRecord.

    The Class column may be absent, in which case the record is Unlabeled.
    Raises MalformedLine, BadHex, DlcMismatch, or NonFiniteTimestamp.
    """
    return CanRecord(*_fields(line))


def render_line(record: CanRecord) -> str:
    """Canonical CSV rendering; parse_line(render_line(r)) == r.

    Timestamps use repr so the float round-trips exactly; IDs are
    zero-padded uppercase hex; Unlabeled records render as 4 columns.
    """
    data = " ".join(f"{b:02X}" for b in record.data_bytes)
    base = f"{record.timestamp!r},{record.arbitration_id:04X},{record.dlc},{data}"
    if record.label is Label.UNLABELED:
        return base
    return f"{base},{record.label.value}"


def _looks_like_header(line: str) -> bool:
    """A header row: its first field begins with a letter and is not a
    number such as nan or inf. A corrupt timestamp such as 0.5x is not."""
    first = line.split(",", 1)[0].strip()
    if not first[:1].isalpha():
        return False
    try:
        float(first)
        return False
    except ValueError:
        return True


# Lines per block of the bulk reader; bounds its working memory.
_BLOCK_LINES = 65_536

# Widest timestamp field the block scan takes; longer ones go to _fields.
_TS_WIDTH = 24

# Zero bytes around a block's text, so that no field window leaves it.
_PAD = max(_TS_WIDTH, 3 * MAX_DLC)

# 256-entry byte tables of the canonical line shape: _HEX_VALUE holds the
# value of an upper-case hex digit and 16 for any other byte; _NON_DIGIT is
# 0 for a decimal digit, 1 for '.' and 2 for any other byte.
_HEX_VALUE = np.full(256, 16, np.uint8)
_HEX_VALUE[np.frombuffer(b"0123456789ABCDEF", np.uint8)] = np.arange(16)
_NON_DIGIT = np.full(256, 2, np.uint8)
_NON_DIGIT[np.frombuffer(b"0123456789", np.uint8)] = 0
_NON_DIGIT[ord(".")] = 1
_NORMAL = np.frombuffer(Label.NORMAL.value.encode(), np.uint8)
_ANOMALY = np.frombuffer(Label.ANOMALY.value.encode(), np.uint8)


def _scan_block(lines: list[str]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Scan lines (without line ends) as bytes with numpy.

    Returns the mask of the lines of canonical shape and the five batch
    columns of all lines, which hold each masked line's frame. The
    canonical shape is digits[.digits][e(+|-)dd],hex{1..8},[0-8],
    (hh( hh)*)?[,Normal|,Anomaly] with upper-case hex, a timestamp of at
    most _TS_WIDTH bytes, a byte count equal to the DLC and an ID below
    2**29; every such line is valid.
    """
    n = len(lines)
    cols = {"timestamp": np.zeros(n), "arbitration_id": np.zeros(n, np.int64),
            "dlc": np.zeros(n, np.uint8),
            "payload": np.zeros((n, MAX_DLC), np.uint8),
            "label": np.full(n, -1, np.int8)}
    text = "\n".join(lines).encode("utf-8", "surrogatepass") + b"\n"
    buf = np.frombuffer(bytes(_PAD) + text + bytes(_PAD), np.uint8)
    end = np.flatnonzero(buf == ord("\n"))
    if len(end) != n:  # a line holds a newline of its own, or there is none
        return np.zeros(n, bool), cols
    start = np.concatenate(([_PAD], end[:-1] + 1))
    comma = np.flatnonzero(buf == ord(","))
    first = np.searchsorted(comma, np.append(start, len(buf)))
    count, first = np.diff(first), first[:-1]
    comma = np.append(comma, np.full(4, end[-1] + 1))
    c1, c2, c3, c4 = (comma[first + k] for k in range(4))

    def window(stop: np.ndarray, width: int) -> np.ndarray:
        """The width bytes before each stop, one row per line."""
        return sliding_window_view(buf, width)[stop - width]

    def digit(pos: np.ndarray) -> np.ndarray:
        return _NON_DIGIT[buf[pos]] == 0

    # timestamp: a mantissa digits[.digits], then e(+|-)dd or nothing
    ts_width = c1 - start
    exponent = ((buf[c1 - 4] == ord("e")) & digit(c1 - 2) & digit(c1 - 1)
                & ((buf[c1 - 3] == ord("+")) | (buf[c1 - 3] == ord("-"))))
    mantissa = ts_width - 4 * exponent
    ts_win = sliding_window_view(buf, _TS_WIDTH)[start]
    non_digits = (_NON_DIGIT[ts_win]
                  * (np.arange(_TS_WIDTH) < mantissa[:, None])).sum(1)
    ok = (((count == 3) | (count == 4)) & (ts_width <= _TS_WIDTH)
          & digit(start) & digit(start + mantissa - 1) & (non_digits <= 1))

    # arbitration ID: 1 to 8 hex digits, right-aligned in an 8-byte window
    id_width = c2 - c1 - 1
    in_id = np.arange(8) >= 8 - id_width[:, None]
    id_digits = _HEX_VALUE[window(c2, 8)]
    ok &= (id_width >= 1) & (id_width <= 8) & ~((id_digits > 15) & in_id).any(1)
    id_digits *= in_id
    ids = ((id_digits[:, 0::2] << 4) | id_digits[:, 1::2]).view(">u4")[:, 0]
    ok &= ids < MAX_ARBITRATION_ID

    # DLC: one digit 0-8, and the data field 3 * dlc - 1 bytes long
    dlc = buf[c2 + 1] - np.uint8(ord("0"))
    ok &= (c3 == c2 + 2) & (dlc <= MAX_DLC)
    dlc = np.where(ok, dlc, 0).astype(np.int64)
    labelled = count == 4
    data_end = np.where(labelled, c4, end)
    ok &= data_end - c3 - 1 == np.maximum(3 * dlc - 1, 0)

    # data: the 8 payload slots as (separator, high, low) byte triples,
    # right-aligned like the payload image
    triples = window(data_end, 3 * MAX_DLC).reshape(n, MAX_DLC, 3)
    nibbles = _HEX_VALUE[triples[:, :, 1:]]
    slot = np.arange(MAX_DLC) - (MAX_DLC - dlc[:, None])
    ok &= ~((((nibbles[:, :, 0] | nibbles[:, :, 1]) > 15) & (slot >= 0))
            | ((triples[:, :, 0] != ord(" ")) & (slot > 0))).any(1)
    payload = ((nibbles[:, :, 0] << 4) | nibbles[:, :, 1]) * (slot >= 0)

    # label: nothing, ",Normal" or ",Anomaly"
    normal, anomaly = ((c4 == end - 1 - len(name))
                       & (window(end, len(name)) == name).all(1)
                       for name in (_NORMAL, _ANOMALY))
    ok &= ~labelled | normal | anomaly

    rows = np.flatnonzero(ok)
    digits = ts_win[rows] * (np.arange(_TS_WIDTH) < ts_width[rows, None])
    try:
        cols["timestamp"][rows] = digits.view(f"S{_TS_WIDTH}")[:, 0].astype(
            np.float64)
    except ValueError:  # every line of the block goes to _fields instead
        return np.zeros(n, bool), cols
    cols["arbitration_id"] = ids.astype(np.int64)
    cols["dlc"] = dlc.astype(np.uint8)
    cols["payload"] = payload
    cols["label"] = np.where(labelled, anomaly, -1).astype(np.int8)
    return ok, cols


def _load_block(lines: list[str], line_no: int, header_at: int | None,
                failures: list[ParseFailure]) -> RecordBatch:
    """The frames of lines (without line ends), which start at line
    line_no, in order; lines[header_at] is skipped if it looks like a
    header, and parse failures are appended to failures."""
    ok, cols = _scan_block(lines)
    rows, at = [], []
    for i in np.flatnonzero(~ok).tolist():
        line = lines[i]
        if not line.strip() or (i == header_at and _looks_like_header(line)):
            continue
        try:
            rows.append(_fields(line))
        except ParseError as exc:
            failures.append(ParseFailure(line_no + i, _failure_reason(exc),
                                         line))
        else:
            at.append(i)
    found = RecordBatch.of(rows)
    for name in _COLUMNS:
        cols[name][at] = getattr(found, name)
    ok[at] = True
    return RecordBatch(**{name: cols[name][ok] for name in _COLUMNS})


def load_lines(lines: Iterable[str], source_name: str = "") -> RecordBatch:
    """Lenient reader: bad lines become ParseFailure entries, not exceptions.

    Lines are taken in blocks of _BLOCK_LINES. Each block is scanned as
    bytes with numpy, and its lines of canonical shape (see _scan_block)
    become batch columns directly. Every other line goes to _fields, the
    one judge of validity and failure reason, and its frame is merged back
    in file order. Blank lines are ignored, and the first other line is
    skipped if it is a header row (see _looks_like_header).
    """
    lines = iter(lines)
    parts: list[RecordBatch] = []
    failures: list[ParseFailure] = []
    line_no = 1
    text_seen = False
    while raw := list(islice(lines, _BLOCK_LINES)):
        block = list(map(str.rstrip, raw, repeat("\r\n")))
        header_at = None
        if not text_seen:
            header_at = next((i for i, line in enumerate(block)
                              if line.strip()), None)
            text_seen = header_at is not None
        parts.append(_load_block(block, line_no, header_at, failures))
        line_no += len(block)
    batch = RecordBatch.concat(parts or [RecordBatch.of(())], source_name)
    return replace(batch, parse_failures=tuple(failures))


def load_log(path: str | Path) -> RecordBatch:
    """The frames of the challenge CSV at path, read by load_lines. A
    UTF-8 byte order mark at the start of the file is dropped."""
    path = Path(path)
    with path.open("r", encoding="utf-8-sig") as fh:
        return load_lines(fh, source_name=str(path))


def write_log(path: str | Path, batch: RecordBatch, header: bool = True) -> None:
    """Write batch as the challenge CSV, each frame rendered from the
    columns as render_line renders it."""
    n = len(batch)
    # the payload as "HH HH ... HH " groups of 3 * MAX_DLC characters; a
    # frame's data is the last 3 * dlc - 1 characters before its group ends
    hexes = batch.payload.tobytes().hex(" ").upper()
    stop = 3 * MAX_DLC * np.arange(1, n + 1) - 1
    first = stop - (3 * batch.dlc.astype(np.int64) - 1)
    data = [hexes[a:b] for a, b in zip(first.tolist(), stop.tolist())]
    suffix = [f",{label.value}" for label in _LABELS[:-1]] + [""]
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write("Timestamp,Arbitration_ID,DLC,Data,Class\n")
        fh.writelines(map("{!r},{:04X},{},{}{}\n".format,
                          batch.timestamp.tolist(),
                          batch.arbitration_id.tolist(), batch.dlc.tolist(),
                          data, map(suffix.__getitem__, batch.label.tolist())))


def _failure_reason(exc: ParseError) -> str:
    return {
        MalformedLine: "malformed_line",
        BadHex: "bad_hex",
        DlcMismatch: "dlc_mismatch",
        NonFiniteTimestamp: "bad_timestamp",
    }.get(type(exc), "malformed_line")


def clean(batch: RecordBatch) -> tuple[RecordBatch, CleaningStats]:
    """Count and drop the parse failures the lenient reader recorded.

    A batch holds valid records only, so every record survives, in order.
    The result carries no parse failures, which makes clean idempotent:
    cleaning a cleaned batch removes nothing.
    """
    removed = Counter(failure.reason for failure in batch.parse_failures)
    return (replace(batch, parse_failures=()),
            CleaningStats(dict(removed), kept=len(batch)))
