"""67-dimensional feature extraction from cleaned CAN record batches.

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

from dataclasses import dataclass

import numpy as np

from .canlog import Label, RecordBatch
from .errors import DlcMismatch, EmptyMatrix, NegativeInterval, WrongWidth

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


def expand_data_field(data_bytes, dlc: int) -> np.ndarray:
    """64-bit payload image of one frame.

    Present bytes occupy the low-order (rightmost) byte positions; absent
    high-order positions are zero-filled; each byte unpacks MSB first.
    """
    if dlc < 0 or dlc > 8 or len(data_bytes) != dlc:
        raise DlcMismatch(f"{len(data_bytes)} bytes for dlc {dlc}")
    image = np.zeros(8, dtype=np.uint8)
    if dlc:
        image[8 - dlc:] = list(data_bytes)
    return np.unpackbits(image).astype(np.float64)


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
    n = len(batch.records)
    intervals = np.full(n, np.nan)
    drop = np.zeros(n, dtype=bool)
    if n == 0:
        return intervals, drop
    ids = np.array([r.arbitration_id for r in batch.records], dtype=np.int64)
    times = np.array([r.timestamp for r in batch.records], dtype=np.float64)
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
    has a same-ID predecessor. Labels are copied when the whole batch is
    labeled; a batch containing any Unlabeled record yields labels=None."""
    intervals, drop = compute_intervals(batch, assume_sorted)
    keep = ~drop
    kept_idx = np.flatnonzero(keep)
    n = kept_idx.size
    values = np.zeros((n, N_FEATURES))
    if n:
        dlcs = np.array([batch.records[i].dlc for i in kept_idx], dtype=np.int64)
        byte_image = np.zeros((n, 8), dtype=np.uint8)
        for row, i in enumerate(kept_idx):
            rec = batch.records[i]
            if rec.dlc:
                byte_image[row, 8 - rec.dlc:] = rec.data_bytes
        values[:, :N_PAYLOAD_BITS] = np.unpackbits(byte_image, axis=1)
        values[:, COL_DLC] = dlcs
        values[:, COL_CAN_ID] = [batch.records[i].arbitration_id for i in kept_idx]
        values[:, COL_INTERVAL] = intervals[kept_idx]
    labels: np.ndarray | None = None
    kept_labels = [batch.records[i].label for i in kept_idx]
    if all(lab is not Label.UNLABELED for lab in kept_labels):
        labels = np.array(
            [1 if lab is Label.ANOMALY else 0 for lab in kept_labels],
            dtype=np.int8,
        )
    return FeatureMatrix(values, labels, tuple(range(N_FEATURES)), kept_idx)


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

def write_features(path, m: FeatureMatrix) -> None:
    """Numeric CSV with a header naming each column. Floats are written with
    repr so values round-trip exactly; a trailing `label` column is added
    when labels are present."""
    names = list(m.column_names())
    if m.labels is not None:
        names.append("label")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(m.n_rows):
            row = [repr(float(v)) for v in m.values[i]]
            if m.labels is not None:
                row.append(str(int(m.labels[i])))
            fh.write(",".join(row) + "\n")


def read_features(path) -> FeatureMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        has_label = header and header[-1] == "label"
        feat_names = header[:-1] if has_label else header
        name_to_id = {name: i for i, name in enumerate(FEATURE_NAMES)}
        try:
            column_ids = tuple(name_to_id[name] for name in feat_names)
        except KeyError as exc:
            raise WrongWidth(f"unknown feature column {exc}") from None
        rows, labels = [], []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if has_label:
                labels.append(int(parts[-1]))
                parts = parts[:-1]
            rows.append([float(p) for p in parts])
    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(column_ids))
    lab = np.array(labels, dtype=np.int8) if has_label else None
    return FeatureMatrix(values, lab, column_ids)
