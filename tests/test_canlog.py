import math
import random

import numpy as np
import pytest

from canids.canlog import (
    CanRecord,
    Label,
    RecordBatch,
    clean,
    hex_to_decimal,
    load_lines,
    parse_line,
    render_line,
)
from canids.errors import (
    BadHex,
    DlcMismatch,
    MalformedLine,
    NonFiniteTimestamp,
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
