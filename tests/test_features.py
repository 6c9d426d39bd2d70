import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from canids import features
from canids.canlog import CanRecord, Label, RecordBatch, clean
from canids.errors import (
    DlcMismatch,
    IoError,
    NegativeInterval,
    WrongWidth,
)
from canids.features import (
    COL_CAN_ID,
    COL_DLC,
    COL_INTERVAL,
    FEATURE_NAMES,
    FeatureMatrix,
    N_FEATURES,
    SUBSETS,
    compute_intervals,
    extract,
    fit_standardizer,
    read_features,
    select_subset,
    write_features,
)
from canids.synth import benchmark_batch, generate_normal, default_profile


def rec(t, arb_id, data=(), label=Label.NORMAL) -> CanRecord:
    return CanRecord(t, arb_id, len(data), tuple(data), label)


# --- payload bits -------------------------------------------------------------

def payload_bits(data_bytes, dlc=None) -> np.ndarray:
    """The 64 payload-bit columns of a frame carrying data_bytes: the one
    row extracted from a two-frame batch whose second frame it is."""
    dlc = len(data_bytes) if dlc is None else dlc
    batch = RecordBatch.of((rec(0.0, 5), CanRecord(0.1, 5, dlc, tuple(data_bytes))))
    return extract(batch).values[0, :64]


def test_expand_full_payload_all_ones():
    bits = payload_bits([0xFF] * 8, 8)
    assert bits.tolist() == [1.0] * 64


def test_expand_empty_payload_all_zeros():
    assert payload_bits([], 0).tolist() == [0.0] * 64


def test_expand_single_byte_right_aligned():
    bits = payload_bits([0x01], 1)
    assert bits[63] == 1.0
    assert bits[:63].tolist() == [0.0] * 63


def test_expand_msb_first_within_byte():
    bits = payload_bits([0x80], 1)
    assert bits[56] == 1.0 and bits[57:].sum() == 0


def test_expand_two_bytes_block():
    bits = payload_bits([0xFF, 0x00], 2)
    assert bits[48:56].tolist() == [1.0] * 8
    assert bits[56:64].tolist() == [0.0] * 8
    assert bits[:48].sum() == 0


def test_expand_dlc_mismatch():
    with pytest.raises(DlcMismatch):
        payload_bits([0xFF], 2)


# --- compute_intervals ------------------------------------------------------

def test_intervals_single_id():
    batch = RecordBatch.of((rec(0.000, 5), rec(0.010, 5), rec(0.025, 5)))
    intervals, drop = compute_intervals(batch)
    assert drop.tolist() == [True, False, False]
    assert intervals[1] == pytest.approx(0.010)
    assert intervals[2] == pytest.approx(0.015)


def test_intervals_interleaved_ids():
    batch = RecordBatch.of((rec(0.00, 0xA), rec(0.01, 0xB),
                         rec(0.02, 0xA), rec(0.03, 0xB)))
    intervals, drop = compute_intervals(batch)
    assert drop.tolist() == [True, True, False, False]
    assert intervals[2] == pytest.approx(0.02)
    assert intervals[3] == pytest.approx(0.02)


def test_intervals_drop_count_by_enumeration():
    profile = default_profile()
    batch = generate_normal(profile, 10.0, seed=0)
    _, drop = compute_intervals(batch)
    assert drop.sum() == len(profile.ids)


def test_intervals_unsorted_input_sorted_by_default():
    batch = RecordBatch.of((rec(0.02, 5), rec(0.00, 5), rec(0.01, 5)))
    intervals, drop = compute_intervals(batch)
    # record at t=0 is the group's first and gets dropped
    assert drop.tolist() == [False, True, False]
    assert intervals[0] == pytest.approx(0.01)
    assert intervals[2] == pytest.approx(0.01)


def test_intervals_assume_sorted_flags_regression():
    batch = RecordBatch.of((rec(0.02, 5), rec(0.00, 5), rec(0.01, 5)))
    with pytest.raises(NegativeInterval):
        compute_intervals(batch, assume_sorted=True)


def test_intervals_empty_batch():
    intervals, drop = compute_intervals(RecordBatch.of(()))
    assert intervals.size == 0 and drop.size == 0


# --- extract ----------------------------------------------------------------

def test_extract_example_row():
    batch = RecordBatch.of((
        rec(0.00, 496, (0xFF, 0x00)),
        rec(0.01, 496, (0xFF, 0x00)),
    ))
    m = extract(batch)
    assert m.values.shape == (1, N_FEATURES)
    row = m.values[0]
    assert row[48:56].tolist() == [1.0] * 8
    assert row[56:64].tolist() == [0.0] * 8
    assert row[COL_DLC] == 2
    assert row[COL_CAN_ID] == 496
    assert row[COL_INTERVAL] == pytest.approx(0.01)
    assert m.labels.tolist() == [0]


def test_extract_empty_batch():
    m = extract(RecordBatch.of(()))
    assert m.values.shape == (0, N_FEATURES)


def test_extract_row_count_on_benchmark():
    batch = benchmark_batch(seed=5)
    cleaned, _ = clean(batch)
    m = extract(cleaned)
    unique_ids = len({r.arbitration_id for r in cleaned.records})
    assert m.n_rows == len(cleaned) - unique_ids


def test_extract_mixed_labels_none():
    batch = RecordBatch.of((
        rec(0.0, 5, (1,)),
        CanRecord(0.1, 5, 1, (2,), Label.UNLABELED),
    ))
    assert extract(batch).labels is None


def test_payload_round_trip_from_bits():
    # bits[0..63] plus DLC must recover the exact source payload
    from canids.synth import AttackSpec, inject_attack
    normal = generate_normal(default_profile(), 5.0, seed=3)
    batch = inject_attack(
        normal, AttackSpec("fuzzing", window=(1.0, 3.0), rate=80.0, seed=3),
        horizon=5.0,
    )
    m = extract(batch)
    for row_idx in range(0, m.n_rows, 997):
        row = m.values[row_idx]
        source = batch.records[m.row_index[row_idx]]
        dlc = int(row[COL_DLC])
        bits = row[:64].astype(np.uint8)
        image = np.packbits(bits)
        recovered = tuple(int(b) for b in image[8 - dlc:]) if dlc else ()
        assert recovered == source.data_bytes
        assert dlc == source.dlc
        assert int(row[COL_CAN_ID]) == source.arbitration_id


def test_permutation_invariance_of_intervals():
    profile = default_profile()
    batch = generate_normal(profile, 5.0, seed=2)
    m = extract(batch)

    rng = np.random.default_rng(0)
    perm = rng.permutation(len(batch))
    shuffled = batch.take(perm)
    m2 = extract(shuffled)

    def key_interval_multiset(mat, src):
        pairs = []
        for i in range(mat.n_rows):
            r = src.records[mat.row_index[i]]
            pairs.append((r.arbitration_id, r.timestamp,
                          round(mat.values[i, COL_INTERVAL], 12)))
        return sorted(pairs)

    assert key_interval_multiset(m, batch) == key_interval_multiset(m2, shuffled)


# Per-record reference: extract and compute_intervals as they were written
# over CanRecord rows, before the batch became columns.
def ref_compute_intervals(records, assume_sorted=False):
    n = len(records)
    intervals = np.full(n, np.nan)
    drop = np.zeros(n, dtype=bool)
    if n == 0:
        return intervals, drop
    ids = np.array([r.arbitration_id for r in records], dtype=np.int64)
    times = np.array([r.timestamp for r in records], dtype=np.float64)
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
        raise NegativeInterval("timestamp regression")
    intervals[order] = diffs
    drop[order[new_group]] = True
    return intervals, drop


def ref_extract(records, assume_sorted=False):
    intervals, drop = ref_compute_intervals(records, assume_sorted)
    kept_idx = np.flatnonzero(~drop)
    n = kept_idx.size
    values = np.zeros((n, N_FEATURES))
    if n:
        dlcs = np.array([records[i].dlc for i in kept_idx], dtype=np.int64)
        byte_image = np.zeros((n, 8), dtype=np.uint8)
        for row, i in enumerate(kept_idx):
            r = records[i]
            if r.dlc:
                byte_image[row, 8 - r.dlc:] = r.data_bytes
        values[:, :64] = np.unpackbits(byte_image, axis=1)
        values[:, COL_DLC] = dlcs
        values[:, COL_CAN_ID] = [records[i].arbitration_id for i in kept_idx]
        values[:, COL_INTERVAL] = intervals[kept_idx]
    labels = None
    kept_labels = [records[i].label for i in kept_idx]
    if all(lab is not Label.UNLABELED for lab in kept_labels):
        labels = np.array([1 if lab is Label.ANOMALY else 0
                           for lab in kept_labels], dtype=np.int8)
    return FeatureMatrix(values, labels, tuple(range(N_FEATURES)), kept_idx)


@st.composite
def frame_lists(draw):
    """Frames with DLC 0-8, IDs drawn from a small pool so they repeat,
    timestamps with ties, in file order or sorted by time, and labels that
    are all Normal/Anomaly or include Unlabeled."""
    id_pool = draw(st.lists(st.integers(0, (1 << 29) - 1), min_size=1,
                            max_size=4))
    times = st.one_of(st.sampled_from([0.0, 0.25, 1.0, 1.5]),
                      st.floats(0.0, 1e3, allow_nan=False))
    kinds = [Label.NORMAL, Label.ANOMALY]
    if draw(st.booleans()):
        kinds.append(Label.UNLABELED)
    frames = []
    for _ in range(draw(st.integers(0, 24))):
        dlc = draw(st.integers(0, 8))
        frames.append(CanRecord(
            draw(times), draw(st.sampled_from(id_pool)), dlc,
            tuple(draw(st.lists(st.integers(0, 255), min_size=dlc,
                                max_size=dlc))),
            draw(st.sampled_from(kinds))))
    if draw(st.booleans()):
        frames.sort(key=lambda r: r.timestamp)
    return frames


@settings(max_examples=300, deadline=None)
@given(frame_lists(), st.booleans())
def test_extract_matches_per_record_reference(frames, assume_sorted):
    batch = RecordBatch.of(frames)
    try:
        want = ref_extract(tuple(frames), assume_sorted)
    except NegativeInterval:
        with pytest.raises(NegativeInterval):
            extract(batch, assume_sorted)
        with pytest.raises(NegativeInterval):
            compute_intervals(batch, assume_sorted)
        return
    got = extract(batch, assume_sorted)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.values.shape == want.values.shape
    assert got.row_index.tobytes() == want.row_index.tobytes()
    if want.labels is None:
        assert got.labels is None
    else:
        assert got.labels.dtype == want.labels.dtype
        assert got.labels.tobytes() == want.labels.tobytes()
    intervals, drop = compute_intervals(batch, assume_sorted)
    ref_intervals, ref_drop = ref_compute_intervals(tuple(frames), assume_sorted)
    assert intervals.tobytes() == ref_intervals.tobytes()
    assert drop.tolist() == ref_drop.tolist()


# --- subsets ------------------------------------------------------------------

def test_select_subset_all67_identity():
    m = extract(RecordBatch.of((rec(0.0, 5, (1,)), rec(0.1, 5, (2,)))))
    out = select_subset(m, "all67")
    assert np.array_equal(out.values, m.values)
    assert out.column_ids == m.column_ids


def test_select_subset_last3():
    batch = RecordBatch.of((rec(0.00, 496, (0xFF, 0x00)),
                         rec(0.01, 496, (0xFF, 0x00))))
    out = select_subset(extract(batch), "last3")
    assert out.values[0].tolist() == pytest.approx([2.0, 496.0, 0.01])
    assert out.column_ids == (64, 65, 66)


def test_select_subset_first66_drops_interval():
    m = extract(RecordBatch.of((rec(0.0, 5, (1,)), rec(0.1, 5, (2,)))))
    out = select_subset(m, "first66")
    assert out.column_ids == tuple(range(66))
    assert out.n_cols == 66
    assert "interval" not in out.column_names()


def test_select_subset_requires_full_width():
    m = extract(RecordBatch.of((rec(0.0, 5, (1,)), rec(0.1, 5, (2,)))))
    narrowed = select_subset(m, "last3")
    with pytest.raises(WrongWidth):
        select_subset(narrowed, "last3")


def test_last3_dlc_column_range():
    batch = benchmark_batch(seed=11, attacks=())
    out = select_subset(extract(batch), "last3")
    assert np.all((out.values[:, 0] >= 0) & (out.values[:, 0] <= 8))


# --- standardizer ---------------------------------------------------------------

def test_standardizer_constant_column_unchanged():
    values = np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]])
    m = FeatureMatrix(values, column_ids=(0, 1))
    s = fit_standardizer(m)
    out = s.apply(m)
    assert np.array_equal(out.values[:, 0], values[:, 0])


def test_standardizer_population_convention():
    m = FeatureMatrix(np.array([[0.0], [2.0]]), column_ids=(0,))
    out = fit_standardizer(m).apply(m)
    assert out.values[:, 0].tolist() == [-1.0, 1.0]


def test_standardizer_moments_recompute():
    rng = np.random.default_rng(4)
    values = rng.normal(3.0, 2.5, size=(400, 6))
    m = FeatureMatrix(values, column_ids=tuple(range(6)))
    out = fit_standardizer(m).apply(m)
    assert np.all(np.abs(out.values.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(out.values.std(axis=0) - 1.0) < 1e-9)


# --- feature CSV ---------------------------------------------------------------

def test_feature_csv_round_trip(tmp_path):
    batch = RecordBatch.of((rec(0.0, 496, (0xFF, 0x00)),
                         rec(0.0137, 496, (0xAB, 0x12))))
    m = extract(batch)
    path = tmp_path / "features.csv"
    write_features(path, m)
    header = path.read_text().splitlines()[0]
    assert header.split(",")[:3] == ["bit00", "bit01", "bit02"]
    assert header.split(",")[-4:] == ["dlc", "can_id", "interval", "label"]
    loaded = read_features(path)
    assert loaded.values.tobytes() == m.values.tobytes()
    assert loaded.labels.dtype == m.labels.dtype
    assert loaded.labels.tobytes() == m.labels.tobytes()
    assert loaded.column_ids == m.column_ids


# per-value writer and reader: the oracle for the bulk ones
def ref_write_features(path, m):
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


def ref_read_features(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        has_label = header[-1] == "label"
        feat_names = header[:-1] if has_label else header
        column_ids = tuple(FEATURE_NAMES.index(name) for name in feat_names)
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


# floats a text format could lose or mangle: NaN, signed zero, infinities,
# both ends of the subnormal range, and integers that float64 cannot count
SPECIAL = (np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, 5e-324, -5e-324,
           2.2250738585072009e-308, np.finfo(np.float64).max,
           float(2**53 + 2), float(2**63), -float(2**60 + 2**8))

floats = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=True, allow_infinity=True,
                             allow_subnormal=True))
column_sets = st.one_of(
    st.sampled_from([SUBSETS["first66"], SUBSETS["last3"], (COL_INTERVAL,)]),
    st.lists(st.integers(0, N_FEATURES - 1), min_size=1, max_size=8,
             unique=True).map(tuple),
)


@st.composite
def feature_matrices(draw):
    cols = draw(column_sets)
    n = draw(st.integers(0, 6))
    # a small pool makes values repeat heavily, as in the 0/1 columns
    pool = draw(st.lists(floats, min_size=1, max_size=draw(st.sampled_from([2, 40]))))
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=n * len(cols), max_size=n * len(cols)))
    values = np.array([pool[i] for i in picks], dtype=np.float64)
    values = values.reshape(n, len(cols))
    labels = None
    if draw(st.booleans()):
        labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n,
                                        max_size=n)), dtype=np.int8)
    return FeatureMatrix(values, labels, cols)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(feature_matrices())
def test_feature_csv_matches_per_value_oracle(tmp_path, m):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_features(got, m)
    ref_write_features(want, m)
    assert got.read_bytes() == want.read_bytes()
    back, ref = read_features(got), ref_read_features(want)
    assert back.column_ids == ref.column_ids == m.column_ids
    assert back.values.shape == ref.values.shape == m.values.shape
    assert back.values.dtype == np.float64
    assert back.values.tobytes() == ref.values.tobytes()
    if m.labels is None:
        assert back.labels is None and ref.labels is None
    else:
        assert back.labels.dtype == ref.labels.dtype == np.int8
        assert back.labels.tobytes() == ref.labels.tobytes()


def test_feature_csv_oracle_on_extracted_rows(tmp_path):
    m = extract(generate_normal(default_profile(), 2.0, 3))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_features(got, m)
    ref_write_features(want, m)
    assert got.read_bytes() == want.read_bytes()
    assert read_features(got).values.tobytes() == m.values.tobytes()


MALFORMED = {
    "short row": ("1.0,2.0,0\n", "line 3"),
    "long row": ("1.0,2.0,0.5,0,7\n", "line 3"),
    "non-numeric value": ("1.0,abc,0.5,0\n", "line 3"),
    "empty value": ("1.0,,0.5,0\n", "line 3"),
    "blank line": ("\n", "line 3 is blank"),
    "float label": ("1.0,2.0,0.5,1.0\n", "line 3"),
    "label 2": ("1.0,2.0,0.5,2\n", "line 3: label 2 is not 0 or 1"),
    "label -1": ("1.0,2.0,0.5,-1\n", "line 3: label -1 is not 0 or 1"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_feature_csv_is_an_io_error(case, tmp_path):
    bad, where = MALFORMED[case]
    good = "8.0,496.0,0.01,0\n"
    path = tmp_path / "bad.csv"
    path.write_text("dlc,can_id,interval,label\n" + good + bad + good)
    with pytest.raises(IoError, match=where) as info:
        read_features(path)
    assert str(path) in str(info.value)


# The grammar read_features accepts beyond what write_features writes. A
# fast path must leave these to np.loadtxt: float("8_0") == 80.0, so a
# value holding "_", a space or "x" must never reach a float() parse.
ACCEPTED = {
    "crlf line ends": (b"dlc,can_id,interval,label\r\n8.0,496.0,0.01,0\r\n"
                       b"2.0,7.0,0.5,1\r\n", [[8.0, 496.0, 0.01], [2.0, 7.0, 0.5]],
                       [0, 1]),
    "no final newline": (b"dlc,can_id,interval,label\n8.0,496.0,0.01,0\n"
                         b"2.0,7.0,0.5,1", [[8.0, 496.0, 0.01], [2.0, 7.0, 0.5]],
                         [0, 1]),
    "leading space": (b"dlc,can_id,interval,label\n 8.0,496.0,0.01,0\n",
                      [[8.0, 496.0, 0.01]], [0]),
    "label +1": (b"dlc,can_id,interval,label\n8.0,496.0,0.01,+1\n",
                 [[8.0, 496.0, 0.01]], [1]),
    "nan and -inf": (b"dlc,can_id,interval,label\nnan,-inf,0.01,0\n",
                     [[np.nan, -np.inf, 0.01]], [0]),
    "header only": (b"dlc,can_id,interval,label\n", np.zeros((0, 3)), []),
    # text mode ends a line at a lone \r too
    "lone cr line ends": (b"dlc,can_id,interval,label\r8.0,496.0,0.01,0\r"
                          b"2.0,7.0,0.5,1\r", [[8.0, 496.0, 0.01], [2.0, 7.0, 0.5]],
                          [0, 1]),
    "lone cr in the body": (b"dlc,can_id,interval,label\n8.0,496.0,0.01,0\r"
                            b"2.0,7.0,0.5,1\n", [[8.0, 496.0, 0.01], [2.0, 7.0, 0.5]],
                            [0, 1]),
}


@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_feature_csv_grammar_accepts(case, tmp_path):
    text, values, labels = ACCEPTED[case]
    path = tmp_path / "ok.csv"
    path.write_bytes(text)
    m = read_features(path)
    want = np.array(values, dtype=np.float64).reshape(-1, 3)
    assert m.column_ids == (COL_DLC, COL_CAN_ID, COL_INTERVAL)
    assert m.values.shape == want.shape
    assert m.values.tobytes() == want.tobytes()
    assert m.labels.dtype == np.int8 and m.labels.tolist() == labels


REFUSED = {
    "underscore digit": (b"8_0,496.0,0.01,0\n", "line 3"),
    "hex float": (b"0x1p3,496.0,0.01,0\n", "line 3"),
    "trailing blank line": (b"\n", "line 3 is blank"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_feature_csv_grammar_refuses(case, tmp_path):
    bad, where = REFUSED[case]
    path = tmp_path / "bad.csv"
    path.write_bytes(b"dlc,can_id,interval,label\n8.0,496.0,0.01,0\n" + bad)
    with pytest.raises(IoError, match=where) as info:
        read_features(path)
    assert str(path) in str(info.value)


def test_feature_csv_with_utf8_bom_reads_as_without(tmp_path):
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    write_features(plain, extract(generate_normal(default_profile(), 0.5, 1)))
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want, got = read_features(plain), read_features(bom)
    assert got.column_ids == want.column_ids
    assert got.values.tobytes() == want.values.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()


# --- feature CSV blocks -----------------------------------------------------------

BLOCK_SIZES = (1, 7, features._BLOCK_ROWS)


@pytest.fixture(scope="module")
def blocks_matrix(tmp_path_factory):
    """An extracted matrix that spans two default blocks, and the bytes
    and read-back the per-value oracles give for it."""
    m = extract(generate_normal(default_profile(), 12.0, 4))
    assert m.n_rows > features._BLOCK_ROWS
    path = tmp_path_factory.mktemp("blocks") / "want.csv"
    ref_write_features(path, m)
    return m, path.read_bytes(), ref_read_features(path)


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_feature_csv_is_block_invariant(block, blocks_matrix, tmp_path):
    m, want_bytes, want = blocks_matrix
    path = tmp_path / "got.csv"
    with mock.patch.object(features, "_BLOCK_ROWS", block):
        write_features(path, m)
        assert path.read_bytes() == want_bytes
        back = read_features(path)
    assert back.values.tobytes() == want.values.tobytes() == m.values.tobytes()
    assert back.labels.tobytes() == want.labels.tobytes()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(feature_matrices(), st.sampled_from(BLOCK_SIZES))
def test_feature_csv_block_invariant_on_drawn_matrices(tmp_path, m, block):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    ref_write_features(want, m)
    ref = ref_read_features(want)
    with mock.patch.object(features, "_BLOCK_ROWS", block):
        write_features(got, m)
        assert got.read_bytes() == want.read_bytes()
        back = read_features(got)
    assert back.values.tobytes() == ref.values.tobytes()
    assert (back.labels is None) == (ref.labels is None)
    if ref.labels is not None:
        assert back.labels.tobytes() == ref.labels.tobytes()


# column kinds of the writer's two parts: 0/1 columns join word runs, and
# -0.0 keeps a column of 0.0 and 1.0 out of them
ZERO_ONE_KINDS = {"0/1": (0.0, 1.0), "0/1/-0.0": (0.0, 1.0, -0.0),
                  "other": None}


@st.composite
def word_run_matrices(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(ZERO_ONE_KINDS)), min_size=1,
                          max_size=8))
    cols = tuple(draw(st.permutations(range(N_FEATURES)))[:len(kinds)])
    n = draw(st.integers(1, 20))
    columns = []
    for kind in kinds:
        pool = ZERO_ONE_KINDS[kind]
        column = draw(st.lists(floats if pool is None else st.sampled_from(pool),
                               min_size=n, max_size=n))
        if kind == "0/1/-0.0":
            column[draw(st.integers(0, n - 1))] = -0.0
        columns.append(column)
    labels = None
    if draw(st.booleans()):
        labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n,
                                        max_size=n)), dtype=np.int8)
    return FeatureMatrix(np.array(columns, dtype=np.float64).T.copy(), labels,
                         cols)


def _matrix(columns, labels=None):
    values = np.array(columns, dtype=np.float64).T.copy()
    return FeatureMatrix(values, labels, tuple(range(values.shape[1])))


_BITS = [[0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0]] * 2
_OTHER = [[0.5, 8.0, -3.25, 496.0, 1e-300, 0.0, 7.0, 2.5, -1.0]]
_LABELS = np.array([0, 1, 1, 0, 0, 1, 0, 1, 1], np.int8)


@pytest.mark.parametrize("block", BLOCK_SIZES)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(word_run_matrices())
@example(_matrix(_BITS + _OTHER * 2))  # a run first
@example(_matrix(_BITS + _OTHER * 2, _LABELS))
@example(_matrix(_OTHER + _BITS + _OTHER))  # a run in the middle
@example(_matrix(_OTHER + _BITS + _OTHER, _LABELS))
@example(_matrix(_OTHER * 2 + _BITS))  # a 0/1 column ends the line
@example(_matrix(_OTHER * 2 + _BITS, _LABELS))  # a run ends the values
@example(_matrix(_BITS + [[-0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0]]
                 + _BITS))  # -0.0 splits the run
@example(_matrix(_BITS))  # only 0/1 columns, no label
def test_feature_csv_word_runs_match_per_value_oracle(tmp_path, block, m):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    ref_write_features(want, m)
    with mock.patch.object(features, "_BLOCK_ROWS", block):
        write_features(got, m)
        assert got.read_bytes() == want.read_bytes()
        back = read_features(got)
    # a NaN reads back as the one NaN that "nan" parses to
    ref = ref_read_features(want)
    assert back.values.tobytes() == ref.values.tobytes()
    assert (back.labels is None) == (m.labels is None)
    if m.labels is not None:
        assert back.labels.tobytes() == m.labels.tobytes()


@pytest.mark.parametrize("case", sorted(MALFORMED) + sorted(REFUSED))
def test_malformed_line_in_third_block_names_its_line(case, tmp_path):
    bad = MALFORMED[case][0] if case in MALFORMED else REFUSED[case][0].decode()
    good = "8.0,496.0,0.01,0\n"
    path = tmp_path / "bad.csv"
    # line 1 is the header, so line 18 lies in the third block of 7 lines
    path.write_text("dlc,can_id,interval,label\n" + good * 16 + bad + good * 3)
    messages = []
    for block in (7, features._BLOCK_ROWS):
        with mock.patch.object(features, "_BLOCK_ROWS", block):
            with pytest.raises(IoError, match="line 18") as info:
                read_features(path)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_feature_csv_io_memory_is_bounded(tmp_path):
    # 85 k rows, as in the benchmark's ingest
    m = extract(benchmark_batch(seed=5, horizon=100.0))
    path = tmp_path / "features.csv"
    tracemalloc.start()
    try:
        write_features(path, m)
        back = read_features(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.values.tobytes() == m.values.tobytes()
    file_bytes = path.stat().st_size
    # the matrix read back; the texts of distinct values and the line
    # offsets, each smaller than the file; and what one block holds
    block_budget = 8 * features._BLOCK_ROWS * file_bytes // m.n_rows
    assert m.n_rows > 80_000
    assert peak <= m.values.nbytes + file_bytes + block_budget


def test_non_utf8_feature_csv_is_an_io_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"dlc,can_id,interval,label\n8.0,496.0,0.01,0\n\xff\n")
    with pytest.raises(IoError, match="can't decode byte 0xff") as info:
        read_features(path)
    assert str(path) in str(info.value)


def test_unlabeled_row_narrower_than_header_is_an_io_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("dlc,can_id,interval\n8.0,496.0\n")
    with pytest.raises(IoError, match="line 2"):
        read_features(path)


def test_unknown_header_column_is_wrong_width(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("dlc,speed,label\n8.0,1.0,0\n")
    with pytest.raises(WrongWidth, match="'speed'"):
        read_features(path)


def test_feature_names_layout():
    assert len(FEATURE_NAMES) == 67
    assert FEATURE_NAMES[0] == "bit00"
    assert FEATURE_NAMES[63] == "bit63"
    assert FEATURE_NAMES[64:] == ("dlc", "can_id", "interval")
