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

import io
import itertools
import re
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .canlog import RecordBatch
from .errors import IoError, NegativeInterval, WrongWidth

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


def distinct_rows(keys: list[np.ndarray], n: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Groups n rows by their values in keys, one array of n per key:
    index[i] is row i's group and rows[j] the first row of group j, with
    groups numbered in the order of their first rows. With no key, all n
    rows are one group."""
    # stable: a group's first row leads it
    order = np.lexsort(keys) if keys else np.arange(n)
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for k in keys:
        k = k[order]
        new[1:] |= k[1:] != k[:-1]
    firsts = order[new]
    is_first = np.zeros(n, dtype=bool)
    is_first[firsts] = True
    number = np.cumsum(is_first) - 1  # a first row's group, in row order
    index = np.empty(n, dtype=np.int64)
    index[order] = number[firsts][np.cumsum(new) - 1]
    return index, np.flatnonzero(is_first)


@dataclass(frozen=True)
class Standardizer:
    """Column-wise z-score transform fitted on training rows.

    Population convention (divide by n); zero-variance columns store
    mean 0 / std 1 so they pass through unchanged.
    """

    mean: np.ndarray
    std: np.ndarray

    def apply(self, m: FeatureMatrix) -> FeatureMatrix:
        return FeatureMatrix(self.transform(m.values), m.labels, m.column_ids,
                             m.row_index)

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std


def fit_standardizer(m: FeatureMatrix) -> Standardizer:
    mean = m.values.mean(axis=0)
    std = m.values.std(axis=0)
    # zero-variance columns pass through unchanged: mean 0, std 1
    mean = np.where(std > 0, mean, 0.0)
    std = np.where(std > 0, std, 1.0)
    return Standardizer(mean, std)


# --- feature CSV I/O ---------------------------------------------------------
#
# Both directions move rows as numpy byte blocks of at most _BLOCK_ROWS rows.
# The writer renders a block as one row image of two kinds of part: a run of
# value columns that hold only 0.0 and 1.0 becomes 4-byte words, and every
# other column is looked up in a text table of its distinct values. The
# reader scans a block of lines as bytes and sends any block holding a line
# of another shape to np.loadtxt, the one judge of the grammar.

# Rows per block of write_features and read_features; bounds the
# temporaries of both.
_BLOCK_ROWS = 8192

# Widest value field the reader's block scan parses; longer ones are judged.
_FIELD_WIDTH = 24

# "0.0," and "1.0," as native uint32 words, and the bits of 1.0.
_ZERO_WORD, _ONE_WORD = np.frombuffer(b"0.0,1.0,", np.uint32)
_ONE_BITS = np.float64(1.0).view(np.uint64)

# 256-entry byte classes of the block scan: 0 for [0-9.e+-], 1 for a
# comma, 2 for any other byte.
_BYTE_CLASS = np.full(256, 2, np.uint8)
_BYTE_CLASS[np.frombuffer(b"0123456789.e+-", np.uint8)] = 0
_BYTE_CLASS[ord(",")] = 1


def _word_run(values: np.ndarray):
    """The part for value columns that hold only +0.0 and 1.0: the word
    "0.0," or "1.0," per value."""
    step = _ONE_WORD - _ZERO_WORD  # faster than np.where between the two

    def fill(a, b, image, mask):
        image[...] = ((values[a:b] == 1.0) * step + _ZERO_WORD).view(np.uint8)
    return 4 * values.shape[1], False, fill


def _text_column(col: np.ndarray, text, sep: str):
    """The part for col, from a table of text(v) + sep. The table has a row
    per distinct bit pattern, so text runs once per pattern and -0.0 and 0.0
    stay apart. If texts differ in width, the part is varied: it also marks
    each row's bytes in the mask."""
    bits = col.view(f"u{col.itemsize}")
    keys = np.sort(bits)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    strings = [text(v) + sep for v in keys.view(col.dtype).tolist()]
    lengths = np.fromiter(map(len, strings), np.intp, len(strings))
    table = np.array(strings, dtype=bytes).view(np.uint8).reshape(len(strings), -1)
    width = table.shape[1]
    varied = lengths.min() != lengths.max()

    def fill(a, b, image, mask):
        codes = np.searchsorted(keys, bits[a:b])
        image[...] = table[codes]
        if varied:
            mask[...] = lengths[codes, None] > np.arange(width)
    return width, varied, fill


def _parts(values: np.ndarray, labels: np.ndarray | None) -> list:
    """The (width, varied, fill) parts that render each row of values (and
    labels): word runs of the columns whose bit patterns are all +0.0 or
    1.0, found by comparisons over row blocks, and a text column for every
    other one. The last column ends the line, so it is never in a run."""
    bits = values.view(np.uint64)
    in_run = np.ones(values.shape[1], dtype=bool)
    for a in range(0, len(bits), _BLOCK_ROWS):
        blk = bits[a:a + _BLOCK_ROWS]
        in_run &= ((blk == 0) | (blk == _ONE_BITS)).all(axis=0)
    if labels is None and in_run.size:
        in_run[-1] = False
    seps = [","] * (values.shape[1] - (labels is None)) + ["\n"]
    parts = []
    for run, group in itertools.groupby(range(in_run.size), in_run.__getitem__):
        js = list(group)
        if run:
            parts.append(_word_run(values[:, js[0]:js[-1] + 1]))
        else:
            parts += [_text_column(values[:, j], repr, seps[j]) for j in js]
    if labels is not None:
        parts.append(_text_column(labels, lambda v: str(int(v)), "\n"))
    return parts


def _render(parts: list, image: np.ndarray, mask: np.ndarray,
            a: int, b: int) -> np.ndarray:
    """The text of rows a..b as bytes: each part fills its columns of the
    row image in place, and a varied part its columns of the mask, which
    drops the padding of variable-width text. The other mask columns stay
    True."""
    image, mask = image[:b - a], mask[:b - a]
    start = 0
    for width, _, fill in parts:
        fill(a, b, image[:, start:start + width], mask[:, start:start + width])
        start += width
    if any(varied for _, varied, _ in parts):
        return image[mask]
    return image


def write_features(path, m: FeatureMatrix) -> None:
    """Numeric CSV with a header naming each column, written in blocks.

    Each value is written as repr(float(v)), so it reads back bit-exactly
    and the bytes depend on the values alone; a trailing `label` column of
    integers is added when labels are present. repr runs once per distinct
    value of a column, not once per value: each block of _BLOCK_ROWS rows
    is rendered from 0/1 word runs and per-column text tables into one
    byte image, allocated once with its mask."""
    names = list(m.column_names())
    values = np.asarray(m.values, dtype=np.float64)
    labels = None if m.labels is None else np.asarray(m.labels)
    if labels is not None:
        names.append("label")
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode("utf-8"))
        if not names or m.n_rows == 0:
            return
        parts = _parts(values, labels)
        shape = (min(_BLOCK_ROWS, m.n_rows), sum(w for w, _, _ in parts))
        image, mask = np.empty(shape, np.uint8), np.ones(shape, bool)
        for a in range(0, m.n_rows, _BLOCK_ROWS):
            fh.write(_render(parts, image, mask, a,
                             min(a + _BLOCK_ROWS, m.n_rows)))


def _text_lines(data: bytes, encoding: str = "utf-8") -> list[str]:
    """data decoded and split into lines as a text-mode file reads it:
    \\n, \\r\\n and a lone \\r each end a line, and read as \\n."""
    return io.StringIO(data.decode(encoding), newline=None).readlines()


def _scan_block(blk: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                values: np.ndarray, labels: np.ndarray | None) -> bool:
    """Parse the lines blk[starts:ends] (zero bytes follow the last) into
    values and labels, if every line is of canonical shape; else False.

    A canonical line has the header's field count; each field is 0.0 or
    1.0, or 1 to _FIELD_WIDTH bytes of [0-9.e+-] that parse as a float,
    and the label is 0 or 1. Leading fields that are 0.0 or 1.0 on every
    line are compared as 4-byte words, and the other values are parsed in
    one astype(float64) of fixed-width byte strings, which parses as
    float() does and so as np.loadtxt does on these bytes."""
    rows, n_feat = values.shape
    n_fields = n_feat + (labels is not None)
    k = 0
    if n_fields > 1:
        words = sliding_window_view(blk, 4 * (n_fields - 1))[starts].view(
            np.uint32)
        one = words == _ONE_WORD
        every = (one | (words == _ZERO_WORD)).all(axis=0)
        k = n_fields - 1 if every.all() else int(np.argmin(every))
        values[:, :k] = one[:, :k]

    # the other fields, from the k-th on, as comma-separated byte runs
    tail_start = starts + 4 * k
    tail_len = ends - tail_start
    n_tail = n_fields - k
    width = int(tail_len.max())
    if not 0 < width <= n_tail * (_FIELD_WIDTH + 1):
        return False
    inside = np.arange(width) < tail_len[:, None]
    kind = _BYTE_CLASS[sliding_window_view(blk, width)[tail_start]]
    comma = (kind == 1) & inside
    if ((kind > 1) & inside).any() or (comma.sum(axis=1) != n_tail - 1).any():
        return False
    cut = np.nonzero(comma)[1].reshape(rows, n_tail - 1)
    first = np.hstack([np.zeros((rows, 1), np.intp), cut + 1])
    size = np.hstack([cut, tail_len[:, None]]) - first
    first += tail_start[:, None]

    n_val = n_feat - k
    if labels is not None:
        label = blk[first[:, -1]]
        if ((size[:, -1] != 1) | ((label != ord("0")) & (label != ord("1")))).any():
            return False
        labels[:] = label == ord("1")
    if n_val:
        size = size[:, :n_val]
        if ((size < 1) | (size > _FIELD_WIDTH)).any():
            return False
        text = (sliding_window_view(blk, _FIELD_WIDTH)[first[:, :n_val]]
                * (np.arange(_FIELD_WIDTH) < size[..., None]))
        try:
            values[:, k:] = text.view(f"S{_FIELD_WIDTH}")[..., 0].astype(
                np.float64)
        except ValueError:
            return False
    return True


def _judge(path, lines: list[str], lineno: int, row: int, fields) -> np.ndarray:
    """np.loadtxt's table of lines, the first of which is line lineno of
    the file and holds data row row; a malformed line raises IoError
    naming it."""

    def body():
        # loadtxt skips blank lines; refuse them instead. loadtxt pulls one
        # line per row it parses, so lineno names the failing line.
        nonlocal lineno
        for lineno, line in enumerate(lines, lineno):
            if line.isspace():
                raise IoError(f"{path}: line {lineno} is blank")
            yield line

    try:
        return np.loadtxt(body(), dtype=fields, delimiter=",",
                          comments=None, ndmin=1)
    except ValueError as exc:
        # loadtxt counts rows from the first of lines; count from the file's
        message = re.sub(r"at row (\d+)",
                         lambda mo: f"at row {int(mo.group(1)) + row}",
                         str(exc), count=1)
        raise IoError(f"{path}: line {lineno}: {message}") from None


def _line_ends(fh) -> tuple[np.ndarray, int]:
    """The file offsets of the line ends from fh's position to the end of
    the file, and the number of lines there as _text_lines splits them.

    A line ends at its \\n, or at the end of the file if it has none. The
    file is read _BLOCK_ROWS * 64 bytes at a time; the offsets take 8 bytes
    per line."""
    found, at, lone_cr, last = [np.zeros(0, np.intp)], fh.tell(), 0, b""
    while chunk := fh.read(64 * _BLOCK_ROWS):
        found.append(np.flatnonzero(np.frombuffer(chunk, np.uint8)
                                    == ord("\n")) + at)
        if b"\r" in chunk:  # a lone \r ends a line too
            lone_cr += chunk.count(b"\r") - chunk.count(b"\r\n")
        lone_cr -= last == b"\r" and chunk[:1] == b"\n"  # \r\n across chunks
        at += len(chunk)
        last = chunk[-1:]
    if last not in (b"", b"\n"):
        found.append(np.array([at]))
    ends = np.concatenate(found)
    return ends, ends.size + lone_cr - (last == b"\r")


def read_features(path) -> FeatureMatrix:
    """Feature CSV as write_features writes it; values come back
    bit-identical to those written.

    The header may start with a UTF-8 byte order mark, and lines may end
    in \\r\\n. The body is read as bytes, _BLOCK_ROWS lines at a time, into
    a matrix sized by a first pass that counts the lines. A block whose
    lines are all of canonical shape (see _scan_block) becomes columns
    directly; any other block goes whole to np.loadtxt, which alone
    decides what is valid and why not.

    A header naming an unknown column raises WrongWidth. A malformed file
    raises IoError naming it and the line: a blank line, a row whose field
    count differs from the header's, a value that is not a float, a label
    that is not the integer 0 or 1, or bytes that are not UTF-8."""
    with open(path, "rb") as fh:
        try:
            header, *extra = _text_lines(fh.readline(), "utf-8-sig") or [""]
        except UnicodeDecodeError as exc:
            raise IoError(f"{path}: {exc}") from None
        header = header.rstrip("\n").split(",")
        has_label = header[-1] == "label"
        feat_names = header[:-1] if has_label else header
        name_to_id = {name: i for i, name in enumerate(FEATURE_NAMES)}
        try:
            column_ids = tuple(name_to_id[name] for name in feat_names)
        except KeyError as exc:
            raise WrongWidth(f"{path}: unknown feature column {exc}") from None
        # one record per row: the header fixes the field count, and the
        # label parses as an integer, so "1.0" is refused
        fields = [("values", np.float64, (len(column_ids),))]
        if has_label:
            fields.append(("label", np.int8))

        start = fh.tell()
        ends, n_rows = _line_ends(fh)  # every line is a row
        fh.seek(start)
        n_rows += len(extra)
        values = np.empty((n_rows, len(column_ids)))
        labels = np.empty(n_rows, np.int8) if has_label else None
        row, lineno = 0, 2

        def judge(lines):
            nonlocal row, lineno
            table = _judge(path, lines, lineno, row, fields)
            values[row:row + table.size] = table["values"]
            if has_label:
                labels[row:row + table.size] = table["label"]
            row += table.size
            lineno += table.size

        if extra:  # the header line held a lone \r
            judge(extra)
        # zero bytes after a block, so that no window of _scan_block leaves it
        pad = len(header) * (_FIELD_WIDTH + 5)
        for a in range(0, ends.size, _BLOCK_ROWS):
            stops = ends[a:a + _BLOCK_ROWS] - start
            blk = np.zeros(stops[-1] + 1 + pad, np.uint8)
            size = fh.readinto(blk[:stops[-1] + 1])
            n = stops.size
            if _scan_block(blk, np.concatenate(([0], stops[:-1] + 1)), stops,
                           values[row:row + n],
                           None if labels is None else labels[row:row + n]):
                row += n
                lineno += n
            else:
                try:
                    judge(_text_lines(blk[:size].tobytes()))
                except UnicodeDecodeError as exc:  # no line number
                    raise IoError(f"{path}: {exc}") from None
            start += size
    if labels is not None:
        bad = np.flatnonzero((labels != 0) & (labels != 1))
        if bad.size:
            raise IoError(f"{path}: line {bad[0] + 2}: label {labels[bad[0]]} "
                          "is not 0 or 1")
    return FeatureMatrix(values, labels, column_ids)
