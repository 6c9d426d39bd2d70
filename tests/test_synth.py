import hashlib
import math

import numpy as np
import pytest

from canids.canlog import Label, write_log
from canids.errors import ConfigError, EmptyProfile, WindowOutOfRange
from canids.synth import (
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
        assert rec.data_bytes[pos] not in target.payload.emitted_values(pos)
        assert 1.0 <= rec.timestamp < 2.0


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
        assert rec.data_bytes[7] in model.emitted_values(7)
        assert rec.data_bytes[:7] == model.base[:7]
    counters = {r.data_bytes[7] for r in injected}
    assert len(counters) == model.cycle


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


def test_burst_validation():
    with pytest.raises(ValueError):
        IdSpec(0x10, 0.05, 0.0, 1, PayloadModel("constant", (0,)),
               burst_len=10, intra_gap=0.01)  # span exceeds the period
    with pytest.raises(ValueError):
        IdSpec(0x10, 1.0, 0.0, 1, PayloadModel("constant", (0,)),
               burst_len=3, intra_gap=0.0)


def test_counter_payload_cycles():
    model = PayloadModel("counter", (0x10, 0x00), positions=(1,), cycle=4)
    rng = np.random.default_rng(0)
    values = [model.emit(k, rng)[1] for k in range(8)]
    assert values == [0, 1, 2, 3, 0, 1, 2, 3]
    assert model.emitted_values(1) == {0, 1, 2, 3}
    assert model.emitted_values(0) == {0x10}


def test_random_payload_bounds():
    model = PayloadModel("random", (0, 0), positions=(1,), bounds=((5, 9),))
    rng = np.random.default_rng(0)
    seen = {model.emit(k, rng)[1] for k in range(200)}
    assert seen == set(range(5, 10))
    assert model.emitted_values(1) == set(range(5, 10))


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


# sha256 of write_log's file, pinned from the per-record implementation
@pytest.mark.parametrize("args,digest", [
    ((5,), "ff16417118a3d2cd20123e7ac3bd00474fe570d7dc268f76ca790fbd2f89b178"),
    ((5, ("timing",), 30.0),
     "bc61c86749b5db86a48ec43332ccdddd30af049979db2db101d0a478e6a3319f"),
])
def test_benchmark_batch_golden_digest(args, digest, tmp_path):
    path = tmp_path / "log.csv"
    write_log(path, benchmark_batch(*args))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
