import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canids.canlog import Label, RecordBatch, write_log
from canids.errors import (
    ConfigError,
    EmptyProfile,
    MalformedLine,
    WindowOutOfRange,
)
from canids.synth import (
    DEFAULT_ATTACKS,
    DEFAULT_HORIZON,
    FUZZ_ID_POOL,
    MAX_STANDARD_ID,
    AttackSpec,
    IdSpec,
    PayloadModel,
    TrafficProfile,
    benchmark_batch,
    default_profile,
    generate_normal,
    inject_attack,
    load_profile,
    parse_attack_arg,
    save_profile,
    _frames_before,
    _merged,
)


def one_id_profile(period=0.01, jitter=0.0, dlc=2,
                   payload=(0xAB, 0xCD)) -> TrafficProfile:
    return TrafficProfile(ids=(
        IdSpec(0x1F0, period, jitter, dlc, PayloadModel("constant", payload)),
    ))


def test_single_id_exact_schedule():
    batch = generate_normal(one_id_profile(), horizon=1.0, seed=0)
    assert len(batch.records) == 100
    times = [r.timestamp for r in batch.records]
    assert times == pytest.approx([k * 0.01 for k in range(100)], abs=1e-12)
    assert all(r.label is Label.NORMAL for r in batch.records)


def test_determinism_same_seed():
    a = generate_normal(default_profile(), 5.0, seed=7)
    b = generate_normal(default_profile(), 5.0, seed=7)
    assert a.records == b.records
    c = generate_normal(default_profile(), 5.0, seed=8)
    assert a.records != c.records


def test_two_id_frame_count_matches_floor_sum():
    profile = TrafficProfile(ids=(
        IdSpec(0x100, 0.01, 0.0, 1, PayloadModel("constant", (0,))),
        IdSpec(0x200, 0.02, 0.0, 1, PayloadModel("constant", (1,))),
    ))
    batch = generate_normal(profile, 1.0, seed=0)
    expected = math.floor(1.0 / 0.01) + math.floor(1.0 / 0.02)
    assert len(batch.records) == expected == 150


def test_empty_profile_rejected():
    with pytest.raises(EmptyProfile):
        TrafficProfile(ids=())


def test_jitter_keeps_per_id_monotonicity():
    profile = one_id_profile(jitter=0.4)
    batch = generate_normal(profile, 2.0, seed=3)
    times = np.array([r.timestamp for r in batch.records])
    assert np.all(np.diff(times) > 0)
    assert times.min() >= 0


def test_flooding_injects_exact_count():
    batch = generate_normal(one_id_profile(period=0.01), horizon=3.0, seed=0)
    spec = AttackSpec("flooding", window=(1.0, 2.0), target_id=0x1F0,
                      multiplier=10.0, seed=1)
    out = inject_attack(batch, spec, horizon=3.0)
    injected = [r for r in out.records if r.label is Label.ANOMALY]
    assert len(injected) == 1000
    assert len(out.records) == len(batch.records) + 1000
    assert all(r.arbitration_id == 0x1F0 for r in injected)
    assert all(1.0 <= r.timestamp < 2.0 for r in injected)


def test_empty_window_is_identity():
    batch = generate_normal(one_id_profile(), 1.0, seed=0)
    spec = AttackSpec("flooding", window=(0.5, 0.5), target_id=0x1F0,
                      multiplier=10.0)
    assert inject_attack(batch, spec).records == batch.records


def test_window_out_of_range():
    batch = generate_normal(one_id_profile(), 1.0, seed=0)
    spec = AttackSpec("fuzzing", window=(0.5, 5.0), rate=10.0)
    with pytest.raises(WindowOutOfRange):
        inject_attack(batch, spec, horizon=1.0)


def test_fuzzing_count_and_id_set():
    profile = default_profile()
    batch = generate_normal(profile, 3.0, seed=0)
    spec = AttackSpec("fuzzing", window=(0.5, 2.5), rate=50.0, seed=9)
    out = inject_attack(batch, spec, horizon=3.0)
    injected = [r for r in out.records if r.label is Label.ANOMALY]
    assert len(injected) == 100
    profile_ids = profile.id_set()
    assert all(r.arbitration_id not in profile_ids for r in injected)
    # enumeration: originals all kept with their labels
    normal = [r for r in out.records if r.label is Label.NORMAL]
    assert len(normal) == len(batch.records)


def test_fuzzing_deterministic():
    batch = generate_normal(default_profile(), 2.0, seed=0)
    spec = AttackSpec("fuzzing", window=(0.0, 1.0), rate=30.0, seed=4)
    a = inject_attack(batch, spec, horizon=2.0)
    b = inject_attack(batch, spec, horizon=2.0)
    assert a.records == b.records


def test_spoofing_flips_one_byte_out_of_model():
    profile = default_profile()
    target = profile.spec_for(0x316)
    batch = generate_normal(profile, 3.0, seed=0)
    spec = AttackSpec("spoofing", window=(1.0, 2.0), target_id=0x316,
                      rate=40.0, seed=5)
    out = inject_attack(batch, spec, profile=profile, horizon=3.0)
    injected = [r for r in out.records if r.label is Label.ANOMALY]
    assert len(injected) == 40
    for rec in injected:
        diffs = [i for i, (a, b) in enumerate(zip(rec.data_bytes,
                                                  target.payload.base))
                 if a != b]
        assert len(diffs) == 1
        pos = diffs[0]
        # the only value a constant model emits at pos is its base byte
        assert rec.data_bytes[pos] not in {target.payload.base[pos]}
        assert 1.0 <= rec.timestamp < 2.0


def test_spoofing_draws_every_other_byte_value_at_every_position():
    profile = TrafficProfile(ids=(
        IdSpec(0x316, 0.01, 0.0, 2, PayloadModel("constant", (0x00, 0xFF))),
    ))
    batch = generate_normal(profile, 3.0, seed=0)
    spec = AttackSpec("spoofing", window=(0.0, 3.0), target_id=0x316,
                      rate=4000.0, seed=8)
    out = inject_attack(batch, spec, profile=profile, horizon=3.0)
    image = out.payload[out.label == 1][:, -2:]
    at0, at1 = image[:, 0] != 0x00, image[:, 1] != 0xFF
    assert image.shape == (12000, 2) and np.all(at0 != at1)
    assert set(image[at0, 0].tolist()) == set(range(1, 256))
    assert set(image[at1, 1].tolist()) == set(range(0, 255))


def test_spoofing_requires_constant_target():
    profile = default_profile()
    batch = generate_normal(profile, 1.0, seed=0)
    spec = AttackSpec("spoofing", window=(0.1, 0.2), target_id=0x0C0, rate=10.0)
    with pytest.raises(ValueError):
        inject_attack(batch, spec, profile=profile, horizon=1.0)


def test_flooding_absent_target_is_dos_burst():
    profile = default_profile()
    batch = generate_normal(profile, 20.0, seed=0)
    spec = AttackSpec("flooding", window=(5.0, 10.0), target_id=0x000,
                      multiplier=2.0, rate=100.0, seed=1)
    out = inject_attack(batch, spec, profile=profile, horizon=20.0)
    injected = [r for r in out.records if r.label is Label.ANOMALY]
    assert len(injected) == 5 * 200  # rate * multiplier over the window
    assert all(r.arbitration_id == 0x000 for r in injected)
    assert all(r.data_bytes == (0xFF,) * 8 for r in injected)


def test_flooding_with_profile_replays_payload_model():
    profile = default_profile()
    batch = generate_normal(profile, 20.0, seed=0)
    spec = AttackSpec("flooding", window=(5.0, 10.0), target_id=0x0C0,
                      multiplier=4.0, seed=2)
    out = inject_attack(batch, spec, profile=profile, horizon=20.0)
    injected = [r for r in out.records if r.label is Label.ANOMALY]
    model = profile.spec_for(0x0C0).payload
    for rec in injected:
        # counter position cycles within the model's range; the rest fixed
        assert rec.data_bytes[7] in set(range(16))
        assert rec.data_bytes[:7] == model.base[:7]
    counters = {r.data_bytes[7] for r in injected}
    assert len(counters) == model.cycle
    # the replay counts from the model's base byte, frame by frame
    assert [r.data_bytes[7] for r in injected] == [
        k % 16 for k in range(len(injected))]


def test_timing_specs_cover_periodic_ids_proportionally():
    from canids.synth import timing_attack_specs
    profile = default_profile()
    specs = timing_attack_specs(profile, seed=0)
    periodic = {s.arbitration_id for s in profile.ids if s.is_periodic}
    assert {s.target_id for s in specs} == periodic
    batch = benchmark_batch(seed=0, attacks=("timing",))
    injected = [r for r in batch.records if r.label is Label.ANOMALY]
    # per-ID anomaly fraction roughly uniform across periodic IDs: the ID
    # column carries no label signal on this benchmark
    from collections import Counter
    anom = Counter(r.arbitration_id for r in injected)
    norm = Counter(r.arbitration_id for r in batch.records
                   if r.label is Label.NORMAL)
    fractions = [anom[i] / (anom[i] + norm[i]) for i in periodic]
    assert max(fractions) - min(fractions) < 0.01


def test_flooding_shrinks_interval_median():
    batch = generate_normal(one_id_profile(period=0.02), horizon=4.0, seed=0)
    mult = 8.0
    spec = AttackSpec("flooding", window=(1.0, 3.0), target_id=0x1F0,
                      multiplier=mult, seed=2)
    out = inject_attack(batch, spec, horizon=4.0)
    times = np.array([r.timestamp for r in out.records
                      if 1.0 <= r.timestamp < 3.0])
    inside = float(np.median(np.diff(times)))
    baseline = 0.02
    assert inside <= baseline / mult


def test_output_sorted_with_deterministic_ties():
    batch = benchmark_batch(seed=1, attacks=("flooding", "fuzzing"))
    times = np.array([r.timestamp for r in batch.records])
    assert np.all(np.diff(times) >= 0)


def test_time_ties_break_by_id_then_generation_order():
    constant = PayloadModel("constant", (0x01,))
    profile = TrafficProfile(ids=(IdSpec(0x200, 0.01, 0.0, 1, constant),
                                  IdSpec(0x100, 0.01, 0.0, 1, constant)))
    batch = generate_normal(profile, 0.03, seed=0)
    assert batch.arbitration_id.tolist() == [0x100, 0x200] * 3
    spec = AttackSpec("flooding", (0.0, 0.02), target_id=0x100, multiplier=2.0)
    out = inject_attack(batch, spec, profile=profile, horizon=0.03)
    # an injected frame tied with an original of the same ID comes after it
    assert out.timestamp.tolist() == [0.0] * 3 + [0.005] + [0.01] * 3 + [
        0.015, 0.02, 0.02]
    assert out.arbitration_id.tolist() == [0x100, 0x100, 0x200, 0x100] * 2 + [
        0x100, 0x200]
    assert out.label.tolist() == [0, 1, 0, 1] * 2 + [0, 0]


def test_event_burst_generation():
    profile = TrafficProfile(ids=(
        IdSpec(0x5E0, 1.0, 0.0, 2, PayloadModel("constant", (0xAA, 0xBB)),
               burst_len=3, intra_gap=0.01),
    ))
    batch = generate_normal(profile, 4.0, seed=0)
    assert len(batch.records) == 4 * 3
    times = [r.timestamp for r in batch.records]
    assert times[:3] == pytest.approx([0.0, 0.01, 0.02], abs=1e-12)
    assert times[3:6] == pytest.approx([1.0, 1.01, 1.02], abs=1e-12)


def test_burst_cut_at_the_horizon():
    profile = TrafficProfile(ids=(
        IdSpec(0x5E0, 1.0, 0.0, 1, PayloadModel("constant", (0xAA,)),
               burst_len=3, intra_gap=0.25),
    ))
    # the last burst's third frame falls exactly on the horizon
    batch = generate_normal(profile, 1.5, seed=0)
    assert batch.timestamp.tolist() == [0.0, 0.25, 0.5, 1.0, 1.25]


def test_burst_validation():
    with pytest.raises(ValueError):
        IdSpec(0x10, 0.05, 0.0, 1, PayloadModel("constant", (0,)),
               burst_len=10, intra_gap=0.01)  # span exceeds the period
    with pytest.raises(ValueError):
        IdSpec(0x10, 1.0, 0.0, 1, PayloadModel("constant", (0,)),
               burst_len=3, intra_gap=0.0)


def test_counter_payload_cycles():
    model = PayloadModel("counter", (0x10, 0x00), positions=(1,), cycle=4)
    out = model.payloads(8, np.random.default_rng(0))
    assert out.dtype == np.uint8 and out.shape == (8, 2)
    assert out[:, 1].tolist() == [0, 1, 2, 3, 0, 1, 2, 3]
    assert set(out[:, 1].tolist()) == {0, 1, 2, 3}
    assert set(out[:, 0].tolist()) == {0x10}
    # the count starts at the base byte and wraps at the cycle
    model = PayloadModel("counter", (0x02,), positions=(0,), cycle=4)
    assert model.payloads(6, None)[:, 0].tolist() == [2, 3, 0, 1, 2, 3]
    model = PayloadModel("counter", (0xFE,), positions=(0,))
    assert model.payloads(3, None)[:, 0].tolist() == [0xFE, 0xFF, 0x00]


def test_random_payload_bounds():
    model = PayloadModel("random", (0, 0), positions=(1,), bounds=((5, 9),))
    out = model.payloads(200, np.random.default_rng(0))
    assert out.dtype == np.uint8 and out.shape == (200, 2)
    assert set(out[:, 1].tolist()) == set(range(5, 10))
    assert set(out[:, 0].tolist()) == {0}


def test_payloads_of_zero_frames():
    for model in (PayloadModel("constant", ()),
                  PayloadModel("random", (0, 0, 0), positions=(2, 0),
                               bounds=((1, 2), (3, 4)))):
        assert model.payloads(0, np.random.default_rng(0)).shape == (
            0, len(model.base))


def test_profile_round_trip(tmp_path):
    path = tmp_path / "profile.txt"
    save_profile(path, default_profile())
    loaded = load_profile(path)
    assert loaded == default_profile()


def test_parse_attack_arg():
    spec = parse_attack_arg("flooding:target=0x1F0,mult=10,window=20-30")
    assert spec == AttackSpec("flooding", (20.0, 30.0), target_id=0x1F0,
                              multiplier=10.0, rate=100.0, seed=0)
    spec = parse_attack_arg("fuzzing:rate=50,window=25-35,seed=7")
    assert spec.kind == "fuzzing" and spec.rate == 50.0 and spec.seed == 7


def test_attack_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec("flooding", (0, 1), target_id=1, multiplier=1.0)
    with pytest.raises(ValueError):
        AttackSpec("spoofing", (0, 1), target_id=None)
    with pytest.raises(ValueError):
        AttackSpec("dos", (0, 1))


@pytest.mark.parametrize("text", [
    "bogus:window=1-2",
    "flooding:target=0xZZ,window=1-2",
    "fuzzing:rate=fast,window=1-2",
    "fuzzing:window=1",
    "fuzzing:seed=1.5,window=1-2",
])
def test_bad_attack_arg_is_a_config_error(text):
    with pytest.raises(ConfigError):
        parse_attack_arg(text)


def test_spoofing_target_outside_profile_is_a_config_error():
    batch = generate_normal(default_profile(), 2.0, seed=0)
    spec = AttackSpec("spoofing", (0.5, 1.0), target_id=0x7AB)
    with pytest.raises(ConfigError):
        inject_attack(batch, spec, profile=default_profile(), horizon=2.0)


def quarter_rate_profile() -> TrafficProfile:
    return TrafficProfile(tuple(dataclasses.replace(s, period=s.period * 4)
                                for s in default_profile().ids))


# sha256 of write_log's file, pinned from the per-record implementation
@pytest.mark.parametrize("args,digest", [
    ((5,), "ff16417118a3d2cd20123e7ac3bd00474fe570d7dc268f76ca790fbd2f89b178"),
    ((5, ("timing",), 30.0),
     "bc61c86749b5db86a48ec43332ccdddd30af049979db2db101d0a478e6a3319f"),
    ((3, DEFAULT_ATTACKS, DEFAULT_HORIZON, quarter_rate_profile()),
     "ac95bd0ec5fc0ca2f3cabc304c40a4a0f738aac99eb7cb1b0f5120211bb17c46"),
])
def test_benchmark_batch_golden_digest(args, digest, tmp_path):
    path = tmp_path / "log.csv"
    write_log(path, benchmark_batch(*args))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# --- specs refuse what no frame can carry ------------------------------------

@pytest.mark.parametrize("build", [
    lambda: PayloadModel("constant", (0x00, 0x100)),
    lambda: PayloadModel("constant", (-1,)),
    lambda: PayloadModel("constant", (0,) * 9),
    lambda: PayloadModel("random", (0, 0), positions=(1,), bounds=((0, 256),)),
    lambda: PayloadModel("random", (0, 0), positions=(1,), bounds=((-1, 5),)),
    lambda: PayloadModel("random", (0, 0), positions=(1,),
                         bounds=((0x7F, 0x10),)),
    lambda: PayloadModel("random", (0, 0), positions=(1, 1),
                         bounds=((0, 1), (2, 3))),
    lambda: PayloadModel("random", (0, 0), positions=(2,), bounds=((0, 1),)),
    lambda: PayloadModel("counter", (0, 0), positions=(1,), cycle=0),
    lambda: PayloadModel("counter", (0, 0), positions=(1,), cycle=257),
    lambda: PayloadModel("counter", (0, 0), positions=(-1,)),
    lambda: IdSpec(0x10, 0.01, 0.0, 9, PayloadModel("constant", (0,) * 9)),
    lambda: IdSpec(1 << 29, 0.01, 0.0, 1, PayloadModel("constant", (0,))),
    lambda: IdSpec(-1, 0.01, 0.0, 1, PayloadModel("constant", (0,))),
    lambda: AttackSpec("flooding", (0, 1), target_id=0, payload=(0,) * 9),
    lambda: AttackSpec("flooding", (0, 1), target_id=0, payload=(0x100,)),
    lambda: AttackSpec("flooding", (0, 1), target_id=0, payload=(-1,)),
    lambda: AttackSpec("flooding", (0, 1), target_id=1 << 29),
    lambda: AttackSpec("fuzzing", (0, 1), rate=0.0),
    lambda: AttackSpec("spoofing", (0, 1), target_id=1, rate=-5.0),
])
def test_specs_refuse_bytes_no_frame_can_carry(build):
    with pytest.raises(ConfigError):
        build()


def test_boundary_specs_are_accepted():
    PayloadModel("constant", (0x00, 0xFF) * 4)
    PayloadModel("random", (0,), positions=(0,), bounds=((0x00, 0xFF),))
    PayloadModel("random", (0,), positions=(0,), bounds=((0x7F, 0x7F),))
    PayloadModel("counter", (0xFF,), positions=(0,), cycle=1)
    IdSpec((1 << 29) - 1, 0.01, 0.0, 8, PayloadModel("constant", (0,) * 8))
    AttackSpec("flooding", (0, 1), target_id=(1 << 29) - 1, payload=())


def test_spoofing_a_target_without_payload_bytes_is_a_config_error():
    profile = TrafficProfile(ids=(
        IdSpec(0x316, 0.01, 0.0, 0, PayloadModel("constant", ())),))
    batch = generate_normal(profile, 1.0, seed=0)
    spec = AttackSpec("spoofing", (0.2, 0.4), target_id=0x316, rate=50.0)
    with pytest.raises(ConfigError):
        inject_attack(batch, spec, profile=profile, horizon=1.0)


@pytest.mark.parametrize("dlc,payload", [(2, "random:0000@1:7F-10"),
                                         (2, "counter:0000@1%300"),
                                         (9, "constant:001122334455667788")])
def test_profile_line_with_unrepresentable_bytes_is_malformed(tmp_path, dlc,
                                                              payload):
    path = tmp_path / "profile.txt"
    path.write_text(f"id=0x100 period=0.01 dlc={dlc} payload={payload}\n")
    with pytest.raises(MalformedLine):
        load_profile(path)


# --- column generators against the per-frame oracles --------------------------

def ref_payload(model, frame_index, rng):
    """One frame's payload bytes, drawn as the per-frame generators did."""
    payload = list(model.base)
    if model.kind == "counter":
        pos = model.positions[0]
        payload[pos] = (payload[pos] + frame_index) % model.cycle
    elif model.kind == "random":
        for pos, (lo, hi) in zip(model.positions, model.bounds):
            payload[pos] = int(rng.integers(lo, hi + 1))
    return tuple(payload)


def ref_emitted_values(model, pos):
    """Every byte value a model can ever produce at position pos."""
    if model.kind == "constant":
        return {model.base[pos]}
    if model.kind == "counter":
        if pos == model.positions[0]:
            return {(model.base[pos] + k) % model.cycle
                    for k in range(model.cycle)}
        return {model.base[pos]}
    if pos in model.positions:
        lo, hi = model.bounds[model.positions.index(pos)]
        return set(range(lo, hi + 1))
    return {model.base[pos]}


def ref_generate_normal(profile, horizon, seed):
    """generate_normal as one row tuple per frame."""
    rows = []
    streams = np.random.SeedSequence(seed).spawn(len(profile.ids))
    for spec, stream in zip(profile.ids, streams):
        rng = np.random.default_rng(stream)
        count = _frames_before(horizon, spec.period)
        base_times = np.arange(count) * spec.period
        if spec.jitter > 0:
            offsets = rng.uniform(-1.0, 1.0, size=count) * spec.jitter * spec.period
            times = np.maximum(base_times + offsets, 0.0)
        else:
            times = base_times
        frame = 0
        for k in range(count):
            for j in range(spec.burst_len):
                t = float(times[k]) + j * spec.intra_gap
                if t >= horizon:
                    break
                rows.append((t, spec.arbitration_id, spec.dlc,
                             ref_payload(spec.payload, frame, rng),
                             Label.NORMAL))
                frame += 1
    return _merged([RecordBatch.of(rows)], "synth")


def ref_flooding_frames(batch, spec, profile, rng):
    target = np.flatnonzero(batch.arbitration_id == spec.target_id)
    start, end = spec.window
    if not target.size:
        step = 1.0 / (spec.rate * spec.multiplier)
        count = _frames_before(end - start, step)
        return [(start + k * step, spec.target_id, len(spec.payload),
                 spec.payload, Label.ANOMALY) for k in range(count)]
    periods = np.diff(batch.timestamp[target])
    nominal = float(np.median(periods)) if len(periods) else 0.01
    step = nominal / spec.multiplier
    count = _frames_before(end - start, step)
    model = None
    if profile is not None and spec.target_id in profile.id_set():
        model = profile.spec_for(spec.target_id)
    first = batch.take(target[:1]).records[0]
    frames = []
    for k in range(count):
        if model is not None:
            dlc, payload = model.dlc, ref_payload(model.payload, k, rng)
        else:
            dlc, payload = first.dlc, first.data_bytes
        frames.append((start + k * step, spec.target_id, dlc, payload,
                       Label.ANOMALY))
    return frames


def ref_fuzzing_frames(batch, spec, rng):
    candidates = np.setdiff1d(np.arange(MAX_STANDARD_ID + 1),
                              batch.arbitration_id)
    if candidates.size == 0:
        raise ConfigError("no free arbitration ids left for fuzzing")
    pool = rng.choice(candidates, size=min(FUZZ_ID_POOL, candidates.size),
                      replace=False)
    start, end = spec.window
    count = _frames_before(end - start, 1.0 / spec.rate)
    frames = []
    for k in range(count):
        arbitration_id = int(rng.choice(pool))
        payload = tuple(rng.integers(0, 256, size=8).tolist())
        frames.append((start + k / spec.rate, arbitration_id, 8, payload,
                       Label.ANOMALY))
    return frames


def ref_spoofing_frames(batch, spec, profile, rng):
    if profile is None:
        raise ConfigError("spoofing needs the traffic profile")
    if spec.target_id not in profile.id_set():
        raise ConfigError("spoofing target is not in the profile")
    id_spec = profile.spec_for(spec.target_id)
    if id_spec.payload.kind != "constant":
        raise ConfigError("spoofing targets must use a constant payload model")
    start, end = spec.window
    count = int(math.floor((end - start) * spec.rate))
    times = np.sort(rng.uniform(start, end, size=count))
    frames = []
    for t in times.tolist():
        pos = int(rng.integers(0, id_spec.dlc))
        never = [v for v in range(256)
                 if v not in ref_emitted_values(id_spec.payload, pos)]
        payload = list(id_spec.payload.base)
        payload[pos] = int(never[int(rng.integers(0, len(never)))])
        frames.append((t, spec.target_id, id_spec.dlc, tuple(payload),
                       Label.ANOMALY))
    return frames


def ref_inject_attack(batch, spec, profile=None, horizon=None):
    """inject_attack on one row tuple per injected frame."""
    if spec.window[0] == spec.window[1]:
        return batch
    if horizon is None:
        horizon = float(batch.timestamp[-1]) if len(batch) else 0.0
    start, end = spec.window
    if start < 0 or end > horizon + 1e-9:
        raise WindowOutOfRange(f"window [{start}, {end}) outside horizon")
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    if spec.kind == "flooding":
        injected = ref_flooding_frames(batch, spec, profile, rng)
    elif spec.kind == "fuzzing":
        injected = ref_fuzzing_frames(batch, spec, rng)
    else:
        injected = ref_spoofing_frames(batch, spec, profile, rng)
    return _merged([batch, RecordBatch.of(injected)], batch.source_name)


def assert_same_batch(got, want):
    for name in ("timestamp", "arbitration_id", "dlc", "payload", "label"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.source_name == want.source_name


@st.composite
def payload_models(draw, dlc):
    base = tuple(draw(st.lists(st.integers(0, 255), min_size=dlc,
                               max_size=dlc)))
    kinds = ["constant", "constant", "counter", "random"] if dlc else [
        "constant"]
    kind = draw(st.sampled_from(kinds))
    if kind == "constant":
        return PayloadModel("constant", base)
    if kind == "counter":
        return PayloadModel("counter", base,
                            positions=(draw(st.integers(0, dlc - 1)),),
                            cycle=draw(st.sampled_from([1, 2, 7, 16, 256])))
    positions = tuple(draw(st.lists(st.integers(0, dlc - 1), min_size=1,
                                    max_size=dlc, unique=True)))
    bounds = []
    for _ in positions:
        lo = draw(st.integers(0, 255))
        bounds.append((lo, draw(st.sampled_from([lo, min(lo + 15, 255), 255]))))
    return PayloadModel("random", base, positions=positions,
                        bounds=tuple(bounds))


@st.composite
def id_specs(draw, arbitration_id):
    period = draw(st.sampled_from([0.01, 0.013, 0.02, 0.05, 0.1, 0.3]))
    jitter = draw(st.sampled_from([0.0, 0.0, 0.02, 0.1, 0.3]))
    burst_len = draw(st.sampled_from([1, 1, 1, 2, 4]))
    intra_gap = 0.0
    if burst_len > 1:
        intra_gap = period * (1 - 2 * jitter) / burst_len
    dlc = draw(st.sampled_from([0, 1, 2, 5, 8, 8]))
    return IdSpec(arbitration_id, period, jitter, dlc,
                  draw(payload_models(dlc)), burst_len, intra_gap)


@st.composite
def profiles(draw):
    ids = draw(st.lists(st.integers(0, 0x7FF), min_size=1, max_size=4,
                        unique=True))
    return TrafficProfile(tuple(draw(id_specs(i)) for i in ids))


@st.composite
def attack_specs(draw, profile, horizon):
    kind = draw(st.sampled_from(["flooding", "fuzzing", "spoofing"]))
    start = draw(st.floats(0.0, horizon))
    end = draw(st.sampled_from([start, min(start + 0.003, horizon), horizon,
                                horizon, draw(st.floats(start, horizon))]))
    ids = [s.arbitration_id for s in profile.ids
           if kind != "spoofing" or (s.payload.kind == "constant" and s.dlc)]
    target = None
    if kind != "fuzzing":
        target = draw(st.sampled_from(ids * 3 + [0x000, 0x7FF]))
    return AttackSpec(kind, (start, end), target_id=target,
                      multiplier=draw(st.sampled_from([1.5, 2.0, 7.0])),
                      rate=draw(st.sampled_from([3.0, 50.0, 200.0])),
                      payload=tuple(draw(st.lists(st.integers(0, 255),
                                                  max_size=8))),
                      seed=draw(st.integers(0, 2 ** 32)))


@st.composite
def synth_cases(draw):
    profile = draw(profiles())
    horizon = draw(st.sampled_from([0.004, 0.5, 1.7, 3.0]))
    attacks = draw(st.lists(attack_specs(profile, horizon), max_size=3))
    return (profile, horizon, draw(st.integers(0, 2 ** 32)), attacks,
            draw(st.sampled_from([True, True, False])))


@pytest.mark.parametrize("multiplier", [2.0, 1.5])
def test_flood_on_a_denormal_period_is_refused(multiplier):
    # the first flood puts a frame at 5e-324 beside id 0's frame at 0.0, so
    # the second flood's step underflows to 0 (multiplier 2) or leaves
    # span / step infinite (multiplier 1.5)
    profile = TrafficProfile(ids=(
        IdSpec(0x000, 1.0, 0.0, 0, PayloadModel("constant", ())),))
    batch = generate_normal(profile, 0.5, seed=0)
    first = AttackSpec("flooding", (5e-324, 0.003), target_id=0x000,
                       multiplier=multiplier)
    batch = inject_attack(batch, first, profile, 0.5)
    assert batch.timestamp.tolist() == [0.0, 5e-324]
    with pytest.raises(ConfigError):
        inject_attack(batch, dataclasses.replace(first, window=(0.0, 0.5)),
                      profile, 0.5)


def test_frames_before_refuses_a_count_floats_cannot_lay():
    # 1e-300 / 5e-324 is about 2e23 frames; k * step stops counting
    # frames exactly above 2**53
    with pytest.raises(ConfigError, match="cannot lay frames"):
        _frames_before(1e-300, 5e-324)
    # here the count's correction loop would step down ~1e17 times
    with pytest.raises(ConfigError, match="cannot lay frames"):
        _frames_before(1e-290, 5e-324)
    assert _frames_before(2.0 ** 53, 1.0) == 2 ** 53
    with pytest.raises(ConfigError):
        _frames_before(2.0 ** 54, 1.0)


def test_normal_traffic_on_a_denormal_period_is_refused():
    profile = TrafficProfile(ids=(
        IdSpec(0x100, 5e-324, 0.0, 0, PayloadModel("constant", ())),))
    with pytest.raises(ConfigError, match="cannot lay frames"):
        generate_normal(profile, 1e-300, seed=0)


@settings(max_examples=300, deadline=None)
@given(synth_cases())
@example((default_profile(), 1.0, 5,
          [AttackSpec("fuzzing", (0.1, 0.4), rate=50.0, seed=3),
           AttackSpec("spoofing", (0.2, 0.7), target_id=0x316, rate=90.0),
           AttackSpec("flooding", (0.3, 0.6), target_id=0x0F0, seed=2),
           AttackSpec("flooding", (0.5, 0.9), target_id=0x000, multiplier=2.0)],
          True))
def test_columns_match_per_frame_oracles(case):
    """Byte-identical batches, and the same refusals, as the per-frame
    generators over random profiles, attack chains and zero-frame
    windows, with and without the profile at injection."""
    profile, horizon, seed, attacks, with_profile = case
    got, want = (generate_normal(profile, horizon, seed),
                 ref_generate_normal(profile, horizon, seed))
    assert_same_batch(got, want)
    for spec in attacks:
        if (spec.kind == "spoofing" and with_profile
                and spec.target_id in profile.id_set()
                and profile.spec_for(spec.target_id).dlc == 0):
            continue  # the oracle fails with numpy's ValueError; tested apart
        known = profile if with_profile else None
        try:
            want = ref_inject_attack(want, spec, known, horizon)
        except ConfigError:
            # both refuse
            with pytest.raises(ConfigError):
                inject_attack(got, spec, known, horizon)
            continue
        got = inject_attack(got, spec, known, horizon)
        assert_same_batch(got, want)
