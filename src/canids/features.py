"""67-dimensional feature extraction from the columns of a RecordBatch.

Column layout, fixed everywhere:
    0..63   payload bits (8-byte image, present bytes right-aligned,
            MSB first within each byte, absent high-order bytes zero)
    64      DLC
    65      decimal arbitration ID
    66      inter-arrival interval within the same arbitration ID (s)

The first record of every arbitration ID has no predecessor and is dropped
rather than given a fake interval, so extract() emits
len(batch) - len(unique ids) rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .canlog import RecordBatch
from .errors import EmptyMatrix, IoError, NegativeInterval, WrongWidth

N_PAYLOAD_BITS = 64
COL_DLC = 64
COL_CAN_ID = 65
COL_INTERVAL = 66
N_FEATURES = 67

FEATURE_NAMES = tuple(
    [f"bit{i:02d}" for i in range(N_PAYLOAD_BITS)] + ["dlc", "can_id", "interval"]
)

SUBSETS = {
    "all67": tuple(range(N_FEATURES)),
    "first66": tuple(range(N_FEATURES - 1)),
    "last3": (COL_DLC, COL_CAN_ID, COL_INTERVAL),
}


@dataclass(frozen=True)
class FeatureMatrix:
    """Immutable numeric matrix plus optional 0/1 labels.

    column_ids retains each column's index in the full 67-wide layout so
    subset matrices stay self-describing. row_index maps each row back to
    its position in the source batch (useful for audits; -1 if unknown).
    """

    values: np.ndarray
    labels: np.ndarray | None = None
    column_ids: tuple[int, ...] = tuple(range(N_FEATURES))
    row_index: np.ndarray | None = None

    def __post_init__(self):
        if self.values.ndim != 2:
            raise WrongWidth("feature values must be a 2-D array")
        if self.values.shape[1] != len(self.column_ids):
            raise WrongWidth(
                f"{self.values.shape[1]} columns but {len(self.column_ids)} ids"
            )
        if self.labels is not None and len(self.labels) != len(self.values):
            raise WrongWidth("labels length differs from row count")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def column_names(self) -> tuple[str, ...]:
        return tuple(FEATURE_NAMES[i] for i in self.column_ids)


def compute_intervals(
    batch: RecordBatch, assume_sorted: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Per-record inter-arrival interval and the drop mask.

    Records are grouped by arbitration ID and ordered by timestamp within
    each group (stable, so file order breaks timestamp ties); the interval
    of a record is its timestamp minus its predecessor's in the group. The
    first record of each ID lands in the drop mask.

    With assume_sorted=True the file order within each ID is trusted as the
    time order; a timestamp regression then raises NegativeInterval, which
    flags corrupt input.

    Returns (intervals, drop) both aligned to batch order; dropped records
    carry interval NaN.
    """
    n = len(batch)
    intervals = np.full(n, np.nan)
    drop = np.zeros(n, dtype=bool)
    if n == 0:
        return intervals, drop
    ids, times = batch.arbitration_id, batch.timestamp
    if assume_sorted:
        order = np.lexsort((np.arange(n), ids))
    else:
        order = np.lexsort((np.arange(n), times, ids))
    sorted_ids = ids[order]
    sorted_times = times[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_ids[1:] != sorted_ids[:-1]
    diffs = np.empty(n)
    diffs[0] = np.nan
    diffs[1:] = sorted_times[1:] - sorted_times[:-1]
    diffs[new_group] = np.nan
    within = ~new_group
    if np.any(diffs[within] < 0):
        bad = order[within][diffs[within] < 0][0]
        raise NegativeInterval(
            f"timestamp regression at record {bad} (id "
            f"{ids[bad]:#x})"
        )
    intervals[order] = diffs
    drop[order[new_group]] = True
    return intervals, drop


def extract(batch: RecordBatch, assume_sorted: bool = False) -> FeatureMatrix:
    """Feature matrix in the fixed 67-column order, one row per record that
    has a same-ID predecessor. Labels are copied when every kept record is
    labeled; if any is Unlabeled, labels=None."""
    intervals, drop = compute_intervals(batch, assume_sorted)
    kept_idx = np.flatnonzero(~drop)
    values = np.empty((kept_idx.size, N_FEATURES))
    values[:, :N_PAYLOAD_BITS] = np.unpackbits(batch.payload[kept_idx], axis=1)
    values[:, COL_DLC] = batch.dlc[kept_idx]
    values[:, COL_CAN_ID] = batch.arbitration_id[kept_idx]
    values[:, COL_INTERVAL] = intervals[kept_idx]
    labels = batch.label[kept_idx]
    return FeatureMatrix(values, None if np.any(labels < 0) else labels,
                         tuple(range(N_FEATURES)), kept_idx)


def select_subset(m: FeatureMatrix, subset: str) -> FeatureMatrix:
    """Column subset by name: all67 (identity), first66, or last3."""
    if subset not in SUBSETS:
        raise KeyError(f"unknown subset {subset!r}; choose from {sorted(SUBSETS)}")
    if m.n_cols != N_FEATURES or m.column_ids != tuple(range(N_FEATURES)):
        raise WrongWidth(f"subset selection needs the full {N_FEATURES}-column matrix")
    cols = SUBSETS[subset]
    return FeatureMatrix(
        m.values[:, list(cols)].copy(), m.labels, cols, m.row_index
    )


@dataclass(frozen=True)
class Standardizer:
    """Column-wise z-score transform fitted on training rows.

    Population convention (divide by n); zero-variance columns store
    mean 0 / std 1 so they pass through unchanged.
    """

    mean: np.ndarray
    std: np.ndarray

    def apply(self, m: FeatureMatrix) -> FeatureMatrix:
        if m.n_cols != self.mean.size:
            raise WrongWidth(
                f"matrix has {m.n_cols} columns, standardizer {self.mean.size}"
            )
        return FeatureMatrix(
            (m.values - self.mean) / self.std, m.labels, m.column_ids, m.row_index
        )

    def transform(self, values: np.ndarray) -> np.ndarray:
        if values.shape[-1] != self.mean.size:
            raise WrongWidth("value width differs from standardizer width")
        return (values - self.mean) / self.std


def fit_standardizer(m: FeatureMatrix) -> Standardizer:
    if m.n_rows == 0:
        raise EmptyMatrix("cannot fit a standardizer on zero rows")
    mean = m.values.mean(axis=0)
    std = m.values.std(axis=0)
    # zero-variance columns pass through unchanged: mean 0, std 1
    mean = np.where(std > 0, mean, 0.0)
    std = np.where(std > 0, std, 1.0)
    return Standardizer(mean, std)


# --- feature CSV I/O ---------------------------------------------------------

def _column_text(col: np.ndarray, text) -> list[str]:
    """text(v) for each entry v of col, calling text once per distinct bit
    pattern, so -0.0 and 0.0 stay apart."""
    bits = col.view(f"u{col.itemsize}")
    keys = np.sort(bits)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    strings = [text(v) for v in keys.view(col.dtype).tolist()]
    return np.array(strings, dtype=object)[np.searchsorted(keys, bits)].tolist()


def write_features(path, m: FeatureMatrix) -> None:
    """Numeric CSV with a header naming each column, written in bulk.

    Each value is written as repr(float(v)), so it reads back bit-exactly
    and the bytes depend on the values alone; a trailing `label` column of
    integers is added when labels are present. repr runs once per distinct
    value of a column, not once per value."""
    names = list(m.column_names())
    values = np.asarray(m.values, dtype=np.float64)
    cols = [_column_text(values[:, j], repr) for j in range(m.n_cols)]
    if m.labels is not None:
        names.append("label")
        cols.append(_column_text(np.asarray(m.labels), lambda v: str(int(v))))
    if cols:
        # the newline rides on the last column, so each row is one join
        cols[-1] = [s + "\n" for s in cols[-1]]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(map(",".join, zip(*cols)))


def read_features(path) -> FeatureMatrix:
    """Feature CSV as write_features writes it, parsed in bulk by np.loadtxt;
    values come back bit-identical to those written.

    A header naming an unknown column raises WrongWidth. A malformed file
    raises IoError naming it and the line: a blank line, a row whose field
    count differs from the header's, a value that is not a float, a label
    that is not the integer 0 or 1, or bytes that are not UTF-8."""
    lineno = 1

    def body(fh):
        # loadtxt skips blank lines; refuse them instead. loadtxt pulls one
        # line per row it parses, so lineno names the failing line.
        nonlocal lineno
        for lineno, line in enumerate(fh, 2):
            if line.isspace():
                raise IoError(f"{path}: line {lineno} is blank")
            yield line

    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            has_label = header[-1] == "label"
            feat_names = header[:-1] if has_label else header
            name_to_id = {name: i for i, name in enumerate(FEATURE_NAMES)}
            try:
                column_ids = tuple(name_to_id[name] for name in feat_names)
            except KeyError as exc:
                raise WrongWidth(
                    f"{path}: unknown feature column {exc}") from None
            # one record per row: the header fixes the field count, and the
            # label parses as an integer, so "1.0" is refused
            fields = [("values", np.float64, (len(column_ids),))]
            if has_label:
                fields.append(("label", np.int8))
            lines = body(fh)
            first = next(lines, None)  # loadtxt warns on an empty body
            table = np.zeros(0, fields) if first is None else np.loadtxt(
                itertools.chain([first], lines), dtype=fields, delimiter=",",
                comments=None, ndmin=1)
    except UnicodeDecodeError as exc:  # decoded by blocks: no line number
        raise IoError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise IoError(f"{path}: line {lineno}: {exc}") from None
    values = np.ascontiguousarray(table["values"])
    labels = table["label"].copy() if has_label else None
    if labels is not None:
        bad = np.flatnonzero((labels != 0) & (labels != 1))
        if bad.size:
            raise IoError(f"{path}: line {bad[0] + 2}: label {labels[bad[0]]} "
                          "is not 0 or 1")
    return FeatureMatrix(values, labels, column_ids)
