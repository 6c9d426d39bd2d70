"""CAN traffic log parsing, validation, and cleaning.

The supported wire format is the challenge CSV layout
``Timestamp,Arbitration_ID,DLC,Data,Class`` where Data holds DLC
space-separated two-digit hex bytes and the Class column is optional.
Hex arbitration IDs are converted to decimal integers at parse time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

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


class LogFormat(enum.Enum):
    """Input log dialects. Only the challenge CSV is implemented; a
    candump-style text format is reserved so new corpora can slot in."""

    CHALLENGE_CSV = "challenge-csv"
    CANDUMP = "candump"


@dataclass(frozen=True)
class CanRecord:
    """One CAN frame.

    data_bytes is None only for records built leniently from rows with a
    missing Data field; clean() drops those. Valid records always satisfy
    len(data_bytes) == dlc.
    """

    timestamp: float
    arbitration_id: int
    dlc: int
    data_bytes: tuple[int, ...] | None
    label: Label = Label.UNLABELED

    def validate(self) -> None:
        """Raise the specific ParseError this record violates, if any."""
        if not math.isfinite(self.timestamp) or self.timestamp < 0:
            raise NonFiniteTimestamp(f"bad timestamp {self.timestamp!r}")
        if not (0 <= self.arbitration_id < MAX_ARBITRATION_ID):
            raise MalformedLine(
                f"arbitration id {self.arbitration_id:#x} outside 29-bit range"
            )
        if not (0 <= self.dlc <= MAX_DLC):
            raise DlcMismatch(f"dlc {self.dlc} outside [0, {MAX_DLC}]")
        if self.data_bytes is None:
            raise MalformedLine("missing data field")
        if len(self.data_bytes) != self.dlc:
            raise DlcMismatch(
                f"{len(self.data_bytes)} data bytes but dlc {self.dlc}"
            )
        if any(not (0 <= b <= 0xFF) for b in self.data_bytes):
            raise BadHex("data byte outside [0, 255]")


@dataclass(frozen=True)
class ParseFailure:
    """A line that could not be parsed, kept for cleaning statistics."""

    line_no: int
    reason: str
    line: str


@dataclass(frozen=True)
class RecordBatch:
    """An ordered sequence of records from one source.

    Order always preserves file order; nothing in this module re-sorts.
    parse_failures carries lines rejected by the lenient reader so that
    clean() can account for them.
    """

    records: tuple[CanRecord, ...]
    source_name: str = ""
    parse_failures: tuple[ParseFailure, ...] = ()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[CanRecord]:
        return iter(self.records)


@dataclass
class CleaningStats:
    """Counts of records removed by clean(), keyed by reason."""

    removed: dict[str, int] = field(default_factory=dict)
    kept: int = 0

    def bump(self, reason: str) -> None:
        self.removed[reason] = self.removed.get(reason, 0) + 1

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


def parse_line(line: str, fmt: LogFormat = LogFormat.CHALLENGE_CSV) -> CanRecord:
    """Parse one log line into a fully validated CanRecord.

    The Class column may be absent, in which case the record is Unlabeled.
    Raises MalformedLine, BadHex, DlcMismatch, or NonFiniteTimestamp.
    """
    if fmt is not LogFormat.CHALLENGE_CSV:
        raise MalformedLine(f"log format {fmt.value!r} not implemented")
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

    data_bytes = _parse_data_field(data_s, dlc)
    return CanRecord(timestamp, arbitration_id, dlc, data_bytes, label)


def render_line(record: CanRecord) -> str:
    """Canonical CSV rendering; parse_line(render_line(r)) == r.

    Timestamps use repr so the float round-trips exactly; IDs are
    zero-padded uppercase hex; Unlabeled records render as 4 columns.
    """
    data = " ".join(f"{b:02X}" for b in (record.data_bytes or ()))
    base = f"{record.timestamp!r},{record.arbitration_id:04X},{record.dlc},{data}"
    if record.label is Label.UNLABELED:
        return base
    return f"{base},{record.label.value}"


def _looks_like_header(line: str) -> bool:
    first = line.split(",", 1)[0]
    try:
        float(first)
        return False
    except ValueError:
        return True


def load_lines(
    lines: Iterable[str],
    fmt: LogFormat = LogFormat.CHALLENGE_CSV,
    source_name: str = "",
) -> RecordBatch:
    """Lenient reader: bad lines become ParseFailure entries, not exceptions.

    A header row (non-numeric first field) is skipped when present. Blank
    lines are ignored.
    """
    records: list[CanRecord] = []
    failures: list[ParseFailure] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        if line_no == 1 and _looks_like_header(line):
            continue
        try:
            records.append(parse_line(line, fmt))
        except ParseError as exc:
            failures.append(ParseFailure(line_no, _failure_reason(exc), line))
    return RecordBatch(tuple(records), source_name, tuple(failures))


def load_log(path: str | Path, fmt: LogFormat = LogFormat.CHALLENGE_CSV) -> RecordBatch:
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        return load_lines(fh, fmt, source_name=str(path))


def write_log(path: str | Path, batch: RecordBatch, header: bool = True) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write("Timestamp,Arbitration_ID,DLC,Data,Class\n")
        for rec in batch.records:
            fh.write(render_line(rec) + "\n")


def _failure_reason(exc: ParseError) -> str:
    return {
        MalformedLine: "malformed_line",
        BadHex: "bad_hex",
        DlcMismatch: "dlc_mismatch",
        NonFiniteTimestamp: "bad_timestamp",
    }.get(type(exc), "malformed_line")


def _record_problem(rec: CanRecord) -> str | None:
    """Reason a record should be cleaned away, or None if it is valid."""
    if rec.data_bytes is None:
        return "missing_field"
    try:
        rec.validate()
    except NonFiniteTimestamp:
        return "bad_timestamp"
    except DlcMismatch:
        return "dlc_mismatch"
    except BadHex:
        return "bad_hex"
    except ParseError:
        return "malformed_line"
    return None


def clean(batch: RecordBatch) -> tuple[RecordBatch, CleaningStats]:
    """Drop records that failed parsing or violate the record invariants.

    Survivor order is preserved and the result carries no parse failures,
    which makes clean idempotent: cleaning a cleaned batch removes nothing.
    """
    stats = CleaningStats()
    for failure in batch.parse_failures:
        stats.bump(failure.reason)
    survivors = []
    for rec in batch.records:
        problem = _record_problem(rec)
        if problem is None:
            survivors.append(rec)
        else:
            stats.bump(problem)
    stats.kept = len(survivors)
    cleaned = RecordBatch(tuple(survivors), batch.source_name, ())
    return cleaned, stats
