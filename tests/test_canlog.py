import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canids import canlog
from canids.canlog import (
    CanRecord,
    Label,
    ParseFailure,
    RecordBatch,
    _failure_reason,
    _looks_like_header,
    clean,
    hex_to_decimal,
    load_lines,
    load_log,
    parse_line,
    render_line,
)
from canids.errors import (
    BadHex,
    DlcMismatch,
    MalformedLine,
    NonFiniteTimestamp,
    ParseError,
)


def test_parse_basic_line():
    rec = parse_line("0.000100,01F0,2,FF 00,Normal")
    assert rec == CanRecord(0.0001, 496, 2, (0xFF, 0x00), Label.NORMAL)


def test_parse_empty_payload():
    rec = parse_line("1.5,043F,0,,Anomaly")
    assert rec == CanRecord(1.5, 1087, 0, (), Label.ANOMALY)


def test_parse_dlc_mismatch():
    with pytest.raises(DlcMismatch):
        parse_line("1.5,043F,3,FF 00,Normal")


def test_parse_missing_class_is_unlabeled():
    rec = parse_line("1.5,043F,1,AB")
    assert rec.label is Label.UNLABELED


@pytest.mark.parametrize("text,expected", [
    ("normal", Label.NORMAL),
    ("NORMAL", Label.NORMAL),
    ("Attack", Label.ANOMALY),
    ("anomaly", Label.ANOMALY),
])
def test_labels_case_insensitive(text, expected):
    assert parse_line(f"0.1,100,0,,{text}").label is expected


def test_unknown_label_rejected():
    with pytest.raises(MalformedLine):
        parse_line("0.1,100,0,,benign")


def test_wrong_column_count():
    with pytest.raises(MalformedLine):
        parse_line("0.1,100,0")
    with pytest.raises(MalformedLine):
        parse_line("0.1,100,0,,Normal,extra")


def test_bad_hex_id():
    with pytest.raises(BadHex):
        parse_line("0.1,G00,0,,Normal")


def test_bad_data_tokens():
    with pytest.raises(BadHex):
        parse_line("0.1,100,1,XY,Normal")
    with pytest.raises(BadHex):
        parse_line("0.1,100,1,FFF,Normal")


def test_timestamp_validation():
    with pytest.raises(NonFiniteTimestamp):
        parse_line("nan,100,0,,Normal")
    with pytest.raises(NonFiniteTimestamp):
        parse_line("inf,100,0,,Normal")
    with pytest.raises(NonFiniteTimestamp):
        parse_line("-0.5,100,0,,Normal")
    with pytest.raises(NonFiniteTimestamp):
        parse_line("abc,100,0,,Normal")


def test_id_range():
    assert parse_line("0.1,1FFFFFFF,0,,Normal").arbitration_id == (1 << 29) - 1
    with pytest.raises(MalformedLine):
        parse_line("0.1,20000000,0,,Normal")


def test_dlc_range():
    with pytest.raises(DlcMismatch):
        parse_line("0.1,100,9,00 11 22 33 44 55 66 77 88,Normal")


def test_hex_to_decimal_examples():
    assert hex_to_decimal("0") == 0
    assert hex_to_decimal("043F") == 1087
    assert hex_to_decimal("7FF") == 2047
    with pytest.raises(BadHex):
        hex_to_decimal("")
    with pytest.raises(BadHex):
        hex_to_decimal("0x1F")


def test_hex_to_decimal_against_accumulation_oracle():
    # independent digit-by-digit accumulation
    digits = "0123456789abcdef"

    def oracle(text):
        value = 0
        for ch in text.lower():
            value = value * 16 + digits.index(ch)
        return value

    rng = random.Random(1234)
    for _ in range(10_000):
        n = rng.randint(1, 12)
        s = "".join(rng.choice("0123456789abcdefABCDEF") for _ in range(n))
        assert hex_to_decimal(s) == oracle(s)


def _random_record(rng: random.Random) -> CanRecord:
    dlc = rng.randint(0, 8)
    return CanRecord(
        timestamp=rng.uniform(0, 1e4),
        arbitration_id=rng.randint(0, (1 << 29) - 1),
        dlc=dlc,
        data_bytes=tuple(rng.randint(0, 255) for _ in range(dlc)),
        label=rng.choice([Label.NORMAL, Label.ANOMALY, Label.UNLABELED]),
    )


def test_render_parse_round_trip():
    rng = random.Random(7)
    for _ in range(500):
        rec = _random_record(rng)
        assert parse_line(render_line(rec)) == rec


def test_load_lines_render_round_trip():
    rng = random.Random(11)
    records = tuple(_random_record(rng) for _ in range(300))
    records += (CanRecord(0.0, 0, 0, ()), CanRecord(5e-324, 1, 8, (0,) * 8))
    assert load_lines(map(render_line, records)).records == records


def test_batch_columns_hold_the_byte_image():
    batch = RecordBatch.of([
        CanRecord(0.5, 0x1F0, 2, (0xAB, 0x01), Label.NORMAL),
        CanRecord(1.5, 7, 0, (), Label.ANOMALY),
        CanRecord(2.5, 7, 8, tuple(range(8))),
    ], source_name="s")
    assert len(batch) == 3 and batch.source_name == "s"
    assert batch.timestamp.tolist() == [0.5, 1.5, 2.5]
    assert batch.arbitration_id.tolist() == [0x1F0, 7, 7]
    assert batch.dlc.tolist() == [2, 0, 8]
    assert batch.payload.tolist() == [[0] * 6 + [0xAB, 0x01], [0] * 8,
                                      list(range(8))]
    assert batch.label.tolist() == [0, 1, -1]
    assert batch.take(np.array([2, 0])).records == (batch.records[2],
                                                    batch.records[0])


def test_clean_valid_batch_is_identity():
    rng = random.Random(3)
    records = tuple(_random_record(rng) for _ in range(50))
    batch = RecordBatch.of(records)
    cleaned, stats = clean(batch)
    assert cleaned.records == records
    assert stats.removed == {}


def test_clean_idempotent():
    batch = load_lines([
        "0.1,00A,1,AA,Normal",
        "nan,00A,1,BB,Normal",
        "0.3,00A,2,CC,Normal",  # dlc mismatch
    ])
    cleaned, stats = clean(batch)
    assert stats.total_removed == 2
    again, stats2 = clean(cleaned)
    assert again.records == cleaned.records
    assert stats2.removed == {}


def test_clean_counts_parse_failures():
    lines = [
        "Timestamp,Arbitration_ID,DLC,Data,Class",
        "0.1,100,1,AA,Normal",
        "0.2,XYZ,1,AA,Normal",
        "0.3,100,2,AA,Normal",
    ]
    batch = load_lines(lines)
    assert len(batch.records) == 1
    assert len(batch.parse_failures) == 2
    _, stats = clean(batch)
    assert stats.removed == {"bad_hex": 1, "dlc_mismatch": 1}


def test_load_lines_header_detection():
    with_header = load_lines(["Timestamp,ID,DLC,Data", "0.1,100,0,"])
    without = load_lines(["0.1,100,0,"])
    assert len(with_header.records) == len(without.records) == 1


def test_corrupt_first_frame_is_a_parse_failure():
    batch = load_lines(["0.5x,0110,1,AA,Normal", "0.6,0110,1,AB,Normal"])
    assert len(batch) == 1
    assert [(f.line_no, f.reason) for f in batch.parse_failures] == [
        (1, "bad_timestamp")]
    for first in ("nan,0110,1,AA,Normal", "inf,0110,1,AA,Normal"):
        assert len(load_lines([first]).parse_failures) == 1


@pytest.mark.parametrize("block", [1, 2, canlog._BLOCK_LINES])
def test_header_after_blank_lines_is_skipped(block):
    lines = ["", " ", "Timestamp,Arbitration_ID,DLC,Data,Class",
             "0.6,0110,1,AB,Normal"]
    with mock.patch.object(canlog, "_BLOCK_LINES", block):
        batch = load_lines(lines)
    assert len(batch) == 1 and batch.parse_failures == ()
    # only the first non-blank line may be a header
    assert len(load_lines(lines + lines).parse_failures) == 1


def test_load_lines_preserves_order():
    lines = [f"{i * 0.1},{i:03X},0,,Normal" for i in range(10)]
    batch = load_lines(lines)
    assert [r.arbitration_id for r in batch.records] == list(range(10))


def test_validate_catches_all_invariants():
    RecordBatch.of([CanRecord(0.0, 0, 0, (), Label.NORMAL)])
    with pytest.raises(NonFiniteTimestamp):
        RecordBatch.of([CanRecord(math.inf, 0, 0, (), Label.NORMAL)])
    with pytest.raises(MalformedLine):
        RecordBatch.of([CanRecord(0.0, 1 << 29, 0, (), Label.NORMAL)])
    with pytest.raises(DlcMismatch):
        RecordBatch.of([CanRecord(0.0, 0, 2, (1,), Label.NORMAL)])


def _columns(**changes):
    cols = dict(timestamp=np.array([0.0, 1.0]),
                arbitration_id=np.array([1, 2]),
                dlc=np.array([1, 8], dtype=np.uint8),
                payload=np.zeros((2, 8), dtype=np.uint8),
                label=np.array([0, -1], dtype=np.int8))
    return {**cols, **changes}


@pytest.mark.parametrize("changes,error", [
    ({"timestamp": np.array([0.0, np.nan])}, NonFiniteTimestamp),
    ({"timestamp": np.array([-1.0, 0.0])}, NonFiniteTimestamp),
    ({"arbitration_id": np.array([1, -1])}, MalformedLine),
    ({"dlc": np.array([1, 9], dtype=np.uint8)}, DlcMismatch),
    ({"payload": np.array([[0, 0, 0, 0, 0, 0, 1, 0], [0] * 8],
                          dtype=np.uint8)}, DlcMismatch),
    ({"label": np.array([0, 2], dtype=np.int8)}, MalformedLine),
    ({"label": np.array([0, -2], dtype=np.int8)}, MalformedLine),
    ({"dlc": np.array([1, 8])}, TypeError),
    ({"payload": np.zeros((2, 7), dtype=np.uint8)}, TypeError),
    ({"label": np.zeros(3, dtype=np.int8)}, TypeError),
])
def test_batch_construction_checks_columns(changes, error):
    RecordBatch(**_columns())
    with pytest.raises(error):
        RecordBatch(**_columns(**changes))


@pytest.mark.parametrize("row,error", [
    (CanRecord(0.0, 0, 9, (0,) * 9), DlcMismatch),
    (CanRecord(0.0, 0, -1, ()), DlcMismatch),
    (CanRecord(0.0, 0, 1, ()), DlcMismatch),
    (CanRecord(0.0, 0, 2, (1, 256)), BadHex),
    (CanRecord(0.0, 0, 1, (-1,)), BadHex),
])
def test_batch_of_refuses_bad_rows(row, error):
    RecordBatch.of([CanRecord(0.0, 0, 1, (1,))])
    with pytest.raises(error):
        RecordBatch.of([CanRecord(0.0, 0, 1, (1,)), row])


# --- block reader against the line-by-line oracle ----------------------------

def ref_load_lines(lines, source_name=""):
    """The line-by-line reader that the block scan replaced; the header
    is looked for on the first non-blank line."""
    rows, failures = [], []
    text_seen = False
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        first, text_seen = not text_seen, True
        if first and _looks_like_header(line):
            continue
        try:
            rows.append(parse_line(line))
        except ParseError as exc:
            failures.append(ParseFailure(line_no, _failure_reason(exc), line))
    return RecordBatch.of(rows, source_name, tuple(failures))


_COLUMN_NAMES = ("timestamp", "arbitration_id", "dlc", "payload", "label")


def assert_same_batch(got, want):
    for name in _COLUMN_NAMES:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.source_name == want.source_name
    assert got.parse_failures == want.parse_failures


def assert_reads_like_oracle(lines, source_name="src"):
    assert_same_batch(load_lines(lines, source_name),
                      ref_load_lines(lines, source_name))


HEADER = "Timestamp,Arbitration_ID,DLC,Data,Class"

_finite_ts = st.floats(min_value=0.0, max_value=1e17, allow_nan=False,
                       allow_infinity=False)
timestamp_text = st.one_of(
    _finite_ts.map(repr),
    _finite_ts.map(lambda t: f"{t:.17g}"),
    _finite_ts.map(lambda t: f"{t:.3e}"),
    _finite_ts.map(lambda t: f"{t:.6f}"),
    st.integers(0, 10 ** 30).map(str),
    st.sampled_from(["0", "5e-324", "1e-05", "0012.50", "1_0.5", " 0.5",
                     "0.5 ", "+0.5", "-0.5", "-0", "nan", "inf", "abc", "",
                     "1.", ".5", "1e5", "1.5e+5", "1.5e+050", "1.5E+05",
                     "1..5", "1.5.2", "e+05", "1e+0x", "0x10", "１.5",
                     "9" * 24 + ".5", "1" * 30]),
)
id_text = st.one_of(
    st.integers(0, (1 << 29) - 1).map(lambda i: f"{i:X}"),
    st.integers(0, (1 << 29) - 1).map(lambda i: f"{i:04X}"),
    st.integers(0, (1 << 32) - 1).map(lambda i: f"{i:x}"),
    st.sampled_from(["1FFFFFFF", "20000000", "000000110", "FFFFFFFF", "0",
                     "", "G1", " 7", "7 ", "0x7", "１"]),
)
byte_token = st.one_of(
    st.integers(0, 255).map(lambda b: f"{b:02X}"),
    st.integers(0, 255).map(lambda b: f"{b:02x}"),
    st.sampled_from(["A", "AAA", "G0", "", " A"]),
)
label_text = st.sampled_from(
    [None, None, "Normal", "Normal", "Anomaly", "Anomaly", "attack",
     " normal ", "NORMAL", "anomaly", "Anomaly ", "benign", "", "Normal,x"])


canonical_line = st.builds(
    lambda t, fmt, i, data, label: render_line(
        CanRecord(float(fmt(t)), i, len(data), tuple(data), label)),
    _finite_ts, st.sampled_from([repr, "{:.17g}".format, "{:.2e}".format]),
    st.integers(0, (1 << 29) - 1), st.lists(st.integers(0, 255), max_size=8),
    st.sampled_from(Label))


@st.composite
def log_line(draw):
    """A log line: canonical, off-shape but valid, or malformed."""
    kind = draw(st.sampled_from(["canonical"] * 6 + ["frame"] * 3
                                + ["blank", "header", "columns"]))
    if kind == "canonical":
        return draw(canonical_line)
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", "\r"]))
    if kind == "header":
        return HEADER
    if kind == "columns":
        return ",".join(draw(st.lists(st.sampled_from(["1", "", "A"]),
                                      max_size=7)))
    tokens = draw(st.lists(byte_token, max_size=9))
    dlc = len(tokens) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    dlc_text = draw(st.sampled_from(["{}", "{}", "{}", "0{}", "+{}", " {}",
                                     "x"])).format(dlc)
    sep = draw(st.sampled_from([" ", " ", " ", "  ", "-"]))
    fields = [draw(timestamp_text), draw(id_text), dlc_text, sep.join(tokens)]
    label = draw(label_text)
    if label is not None:
        fields.append(label)
    return ",".join(fields)


@st.composite
def log_lines(draw):
    lines = draw(st.lists(log_line(), max_size=40))
    endings = draw(st.lists(st.sampled_from(["", "\n", "\r\n", "\r"]),
                            min_size=len(lines), max_size=len(lines)))
    return [line + end for line, end in zip(lines, endings)]


@settings(max_examples=400, deadline=None)
@given(log_lines(), st.integers(1, 8))
@example([HEADER, "0.5,0110,1,AA,Normal", HEADER], 2)
@example(["0.5,1FFFFFFF,0,", "0.5,20000000,0,", "0.5,000000110,0,",
          "0.5,7,08,00 11 22 33 44 55 66 77", "0.5,7,+8,00 11 22 33 44 55 66 77",
          "1_0.5,7,0,", " 0.5,7,0,", "1.5e+05,7,0,,attack", "0.5,7,1,ab, Normal ",
          "0.5,7,2,AA", "0.5,7,1,AA BB", "nan,7,0,", "0.5,G,0,", "0.5,7,x,",
          "0.5,7,9,", "0.5,7,0,,benign", "0.5,7,0", ""], 3)
def test_load_lines_matches_oracle(lines, block):
    """Equal columns and parse failures for any mix of canonical,
    off-shape and malformed lines, with blocks of a few lines so that
    inputs span several of them."""
    with mock.patch.object(canlog, "_BLOCK_LINES", block):
        assert_reads_like_oracle(lines)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_finite_ts, st.sampled_from([repr, "{:.17g}".format,
                                                       "{:.4e}".format])),
                max_size=50))
def test_timestamps_parse_to_the_bits_of_float(values):
    """The bulk timestamp conversion gives the bits float() gives."""
    lines = [f"{fmt(t)},7,0," for t, fmt in values]
    assert_reads_like_oracle(lines)
    assert len(load_lines(lines)) == len(lines)


def test_load_lines_across_the_block_size():
    """Failures on both sides of a block boundary keep their line numbers
    and order at the module's own block size."""
    rng = random.Random(5)
    records = [_random_record(rng) for _ in range(canlog._BLOCK_LINES + 10)]
    lines = [HEADER] + [render_line(r) for r in records]
    size = canlog._BLOCK_LINES
    for at, bad in [(size - 2, "0.5,7,1,AA BB"), (size - 1, "nan,7,0,"),
                    (size, "0.5,G,0,"), (size + 1, "0.5,7,0,,attack"),
                    (size + 2, "")]:
        lines[at] = bad
    got = load_lines(lines)
    assert [f.line_no for f in got.parse_failures] == [size - 1, size, size + 1]
    assert len(got) == len(lines) - 1 - 4
    assert_same_batch(got, ref_load_lines(lines))


def test_only_off_shape_lines_reach_fields():
    canonical = ["0.5,0110,1,AA,Normal", "1e-05,1FFFFFFF,0,", "12,0,0,,Anomaly",
                 "3.25e+16,7,8,00 11 22 33 44 55 66 77"]
    off_shape = ["0.5,0110,1,AA,attack", "0.5,0110,1,AA, normal ",
                 "0.5,0110,1,aa,Normal", "0.5,000000110,0,", "0.5,20000000,0,",
                 "1_0.5,7,0,", " 0.5,7,0,", "0.5,7,+8,00 11 22 33 44 55 66 77",
                 "0.5,7,08,00 11 22 33 44 55 66 77", "0.5,7,2,AA",
                 "0.5,7,1,AA BB", "5e-324,7,0,", "0.5,7,0,,Normal,x", HEADER]
    seen = []

    def spy(line):
        seen.append(line)
        return fields(line)

    fields = canlog._fields
    with mock.patch.object(canlog, "_fields", spy):
        batch = load_lines([HEADER, ""] + canonical + off_shape)
    assert seen == off_shape
    assert len(batch) == len(canonical) + 9


def _write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize("text,frames", [
    ("", 0),
    (HEADER, 0),
    (HEADER + "\n", 0),
    (HEADER + "\r\n0.5,0110,1,AA,Normal\r\n0.6,0110,1,AB\r\n", 2),
    ("0.5,0110,1,AA,Normal\r0.6,0110,1,AB,Anomaly\r", 2),
    ("0.5,0110,1,AA,Normal\n\n0.6,0110,1,AB,Normal", 2),
    ("0.5,0110,1,AA,Normal\nnan,0110,1,AB\r\n0.7,0110,1,AB\r", 2),
])
def test_load_log_line_ends(tmp_path, text, frames):
    path = _write(tmp_path / "log.csv", text)
    batch = load_log(path)
    assert len(batch) == frames
    with path.open(encoding="utf-8") as fh:
        assert_same_batch(batch, ref_load_lines(fh, str(path)))


@pytest.mark.parametrize("header", [False, True])
def test_load_log_drops_a_byte_order_mark(tmp_path, header):
    lines = [HEADER] * header + ["0.5,0110,1,AA,Normal", "0.6,0110,1,AB,Normal"]
    batch = load_log(_write(tmp_path / "log.csv", "\ufeff" + "\n".join(lines)))
    assert len(batch) == 2 and batch.parse_failures == ()
    assert batch.timestamp.tolist() == [0.5, 0.6]
