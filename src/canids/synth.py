"""Deterministic synthetic CAN traffic with injected attacks.

Stands in for proprietary vehicle captures so every test runs self-contained.
All generation is a pure function of (profile, horizon, seed): the same call
always yields byte-identical batches. Each generator draws its random
stream in one call, in frame-major order, and builds its RecordBatch from
numpy columns; merging batches is one lexsort of their columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .canlog import _LABEL_CODE, MAX_ARBITRATION_ID, MAX_DLC, Label, RecordBatch
from .errors import ConfigError, EmptyProfile, MalformedLine, WindowOutOfRange

MAX_STANDARD_ID = 0x7FF  # fuzzing draws 11-bit identifiers

# Number of distinct out-of-profile IDs a fuzzing attack cycles through.
# Bounded so per-ID feature pipelines see each fuzzed ID more than once.
FUZZ_ID_POOL = 64


@dataclass(frozen=True)
class PayloadModel:
    """Payload generator for one arbitration ID.

    kind "constant": every frame carries `base`.
    kind "counter":  byte `positions[0]` counts frames modulo `cycle`.
    kind "random":   each byte listed in `positions` is drawn uniformly
                     from the matching (lo, hi) range in `bounds`.
    """

    kind: str
    base: tuple[int, ...]
    positions: tuple[int, ...] = ()
    bounds: tuple[tuple[int, int], ...] = ()
    cycle: int = 256

    def __post_init__(self):
        if self.kind not in ("constant", "counter", "random"):
            raise ConfigError(f"unknown payload model {self.kind!r}")
        if len(self.base) > MAX_DLC:
            raise ConfigError(f"payload base longer than {MAX_DLC} bytes")
        if not all(0 <= v <= 255 for v in self.base + sum(self.bounds, ())):
            raise ConfigError("payload byte or bound outside 0-255")
        if any(lo > hi for lo, hi in self.bounds):
            raise ConfigError("random bound lo exceeds hi")
        if not 1 <= self.cycle <= 256:
            raise ConfigError("counter cycle must lie in 1-256")
        if len(set(self.positions) & set(range(len(self.base)))) != len(
                self.positions):
            raise ConfigError("payload positions must be distinct base bytes")
        if self.kind == "counter" and len(self.positions) != 1:
            raise ConfigError("counter model needs exactly one position")
        if self.kind == "random" and len(self.positions) != len(self.bounds):
            raise ConfigError("random model needs one (lo, hi) per position")

    def payloads(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """The (n, dlc) uint8 bytes of the next n frames. Random bytes come
        from one draw in frame-major order, the values and generator state
        of one scalar draw per frame and position."""
        out = np.tile(np.array(self.base, np.uint8), (n, 1))
        if self.kind == "counter":
            pos = self.positions[0]
            out[:, pos] = (self.base[pos] + np.arange(n)) % self.cycle
        elif self.kind == "random":
            lo, hi = np.array(self.bounds, np.int64).reshape(-1, 2).T
            out[:, list(self.positions)] = rng.integers(
                lo, hi + 1, size=(n, lo.size))
        return out


@dataclass(frozen=True)
class IdSpec:
    """Nominal behaviour of one arbitration ID.

    burst_len 1 is a plain periodic sender. burst_len > 1 models an
    event-driven ID: every `period` seconds it emits a burst of burst_len
    frames spaced intra_gap apart, a legitimate pattern that looks rare to
    density-based detectors.
    """

    arbitration_id: int
    period: float
    jitter: float  # fraction of period, in [0, 0.5)
    dlc: int
    payload: PayloadModel
    burst_len: int = 1
    intra_gap: float = 0.0

    def __post_init__(self):
        if not 0 <= self.arbitration_id < MAX_ARBITRATION_ID:
            raise ConfigError("arbitration id outside the 29-bit range")
        if self.period <= 0:
            raise ConfigError("period must be positive")
        if not (0 <= self.jitter < 0.5):
            raise ConfigError("jitter fraction must lie in [0, 0.5)")
        if len(self.payload.base) != self.dlc:
            raise ConfigError("payload base length must equal dlc")
        if self.burst_len < 1:
            raise ConfigError("burst_len must be >= 1")
        if self.burst_len > 1:
            if self.intra_gap <= 0:
                raise ConfigError("bursts need a positive intra_gap")
            span = (self.burst_len - 1) * self.intra_gap
            if span >= self.period * (1 - 2 * self.jitter):
                raise ConfigError("burst span must fit inside the period")

    @property
    def is_periodic(self) -> bool:
        return self.burst_len == 1


@dataclass(frozen=True)
class TrafficProfile:
    ids: tuple[IdSpec, ...]

    def __post_init__(self):
        if not self.ids:
            raise EmptyProfile("profile has no message IDs")

    def id_set(self) -> set[int]:
        return {spec.arbitration_id for spec in self.ids}

    def spec_for(self, arbitration_id: int) -> IdSpec:
        for spec in self.ids:
            if spec.arbitration_id == arbitration_id:
                return spec
        raise KeyError(f"no spec for id {arbitration_id:#x}")


@dataclass(frozen=True)
class AttackSpec:
    """One attack to inject into a normal batch.

    kind "flooding": target-ID frames every period/multiplier seconds when
                     the target already appears in the traffic (a stealthy
                     replay flood); when it does not, a DoS burst of
                     `payload` frames at rate*multiplier frames/s.
    kind "fuzzing":  `rate` frames/s with out-of-profile IDs and random bytes.
    kind "spoofing": `rate` frames/s with the target ID, an out-of-model
                     payload byte, and uniformly random (off-schedule) times.
    """

    kind: str
    window: tuple[float, float]
    target_id: int | None = None
    multiplier: float = 10.0
    rate: float = 100.0
    payload: tuple[int, ...] = (0xFF,) * 8  # DoS-burst payload
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("flooding", "fuzzing", "spoofing"):
            raise ConfigError(f"unknown attack kind {self.kind!r}")
        if self.window[0] > self.window[1]:
            raise ConfigError("attack window start exceeds end")
        if self.kind == "flooding" and self.multiplier <= 1:
            raise ConfigError("flooding rate multiplier must exceed 1")
        if self.kind in ("flooding", "spoofing") and self.target_id is None:
            raise ConfigError(f"{self.kind} needs a target id")
        if (self.target_id is not None
                and not 0 <= self.target_id < MAX_ARBITRATION_ID):
            raise ConfigError("target id outside the 29-bit range")
        if self.rate <= 0:
            raise ConfigError("attack rate must be positive")
        PayloadModel("constant", self.payload)  # the DoS bytes fit a frame


def _frames_before(span: float, step: float) -> int:
    """Number of k ≥ 0 with k*step < span, robust to float noise;
    ConfigError unless step is positive and span / step at most 2**53 (a
    flood on a denormal period underflows to a step of 0 or overflows the
    count), beyond which k*step no longer counts frames exactly."""
    if not step > 0 or not span / step <= 2 ** 53:
        raise ConfigError(f"cannot lay frames {step!r} s apart over {span!r} s")
    count = int(math.floor(span / step - 1e-9)) + 1
    while count > 0 and (count - 1) * step >= span:
        count -= 1
    return count


def _frames(times: np.ndarray, ids, payloads: np.ndarray,
            label: Label) -> RecordBatch:
    """A batch of frames at times with arbitration ids and payload bytes,
    each given per frame or once for all (an int, a (1, dlc) array), and
    one label."""
    n, dlc = len(times), payloads.shape[1]
    image = np.zeros((n, MAX_DLC), np.uint8)
    image[:, MAX_DLC - dlc:] = payloads
    return RecordBatch(np.asarray(times, np.float64), np.full(n, ids, np.int64),
                       np.full(n, dlc, np.uint8), image,
                       np.full(n, _LABEL_CODE[label], np.int8))


def _merged(parts: list[RecordBatch], source_name: str) -> RecordBatch:
    """The frames of parts in one batch, ordered by timestamp. Ties break
    by (arbitration_id, position in parts) so the merge is reproducible
    regardless of generation order."""
    batch = RecordBatch.concat(parts, source_name)
    return batch.take(np.lexsort((np.arange(len(batch)), batch.arbitration_id,
                                  batch.timestamp)))


def generate_normal(
    profile: TrafficProfile, horizon: float, seed: int
) -> RecordBatch:
    """Normal traffic: each ID fires at its period (± jitter) until horizon.

    Frames are merged and sorted by timestamp and all carry the Normal label.
    Deterministic for fixed (profile, horizon, seed).
    """
    if horizon <= 0:
        raise ConfigError("horizon must be positive")
    parts = []
    # One child stream per ID keeps each ID's draw sequence independent of
    # profile ordering elsewhere in the run.
    streams = np.random.SeedSequence(seed).spawn(len(profile.ids))
    for spec, stream in zip(profile.ids, streams):
        rng = np.random.default_rng(stream)
        count = _frames_before(horizon, spec.period)
        times = np.arange(count) * spec.period
        if spec.jitter > 0:
            times = np.maximum(times + rng.uniform(-1.0, 1.0, size=count)
                               * spec.jitter * spec.period, 0.0)
        # times rise within a burst, so a burst ends at its first frame at
        # or past the horizon
        times = (times[:, None] + np.arange(spec.burst_len) * spec.intra_gap).ravel()
        times = times[times < horizon]
        parts.append(_frames(times, spec.arbitration_id,
                             spec.payload.payloads(times.size, rng), Label.NORMAL))
    return _merged(parts, "synth")


# Each attack returns its frames' times, arbitration ids and payload bytes.

def _flooding_frames(batch, spec, profile, rng):
    target = np.flatnonzero(batch.arbitration_id == spec.target_id)
    start, end = spec.window
    if target.size:
        periods = np.diff(batch.timestamp[target])
        nominal = float(np.median(periods)) if len(periods) else 0.01
        if nominal <= 0:
            raise ConfigError(f"flooding target {spec.target_id:#x} has a "
                              "median period of 0")
        step = nominal / spec.multiplier
    else:
        # DoS burst with a fresh (typically high-priority) identifier
        step = 1.0 / (spec.rate * spec.multiplier)
    count = _frames_before(end - start, step)
    if not target.size:
        payloads = np.array([spec.payload], np.uint8)
    elif profile is not None and spec.target_id in profile.id_set():
        # stealthy replay: payloads follow the target's nominal model,
        # leaving timing as the only per-frame signal
        payloads = profile.spec_for(spec.target_id).payload.payloads(count, rng)
    else:
        payloads = batch.payload[target[:1], MAX_DLC - batch.dlc[target[0]]:]
    return start + np.arange(count) * step, spec.target_id, payloads


def _fuzzing_frames(batch, spec, profile, rng):
    candidates = np.setdiff1d(np.arange(MAX_STANDARD_ID + 1),
                              batch.arbitration_id)
    if candidates.size == 0:
        raise ConfigError("no free arbitration ids left for fuzzing")
    pool = rng.choice(candidates, size=min(FUZZ_ID_POOL, candidates.size),
                      replace=False)
    start, end = spec.window
    count = _frames_before(end - start, 1.0 / spec.rate)
    # per frame: a pool index, then eight payload bytes
    draws = rng.integers(0, [pool.size] + [256] * MAX_DLC,
                         size=(count, 1 + MAX_DLC))
    return start + np.arange(count) / spec.rate, pool[draws[:, 0]], draws[:, 1:]


def _spoofing_frames(batch, spec, profile, rng):
    if profile is None or spec.target_id not in profile.id_set():
        raise ConfigError(f"spoofing target {spec.target_id:#x} needs its "
                          "spec in the traffic profile")
    id_spec = profile.spec_for(spec.target_id)
    if id_spec.payload.kind != "constant" or id_spec.dlc == 0:
        raise ConfigError("spoofing targets must use a constant payload "
                          "model of at least one byte")
    start, end = spec.window
    count = int(math.floor((end - start) * spec.rate))
    times = np.sort(rng.uniform(start, end, size=count))
    # per frame: a byte position, then the index of its new value among
    # the 255 values that differ from the base byte
    pos, v = rng.integers(0, [id_spec.dlc, 255], size=(count, 2)).T
    base = np.array(id_spec.payload.base, np.uint8)
    payloads = np.tile(base, (count, 1))
    payloads[np.arange(count), pos] = v + (v >= base[pos])
    return times, spec.target_id, payloads


_ATTACKS = {"flooding": _flooding_frames, "fuzzing": _fuzzing_frames,
            "spoofing": _spoofing_frames}


def inject_attack(
    batch: RecordBatch,
    spec: AttackSpec,
    profile: TrafficProfile | None = None,
    horizon: float | None = None,
) -> RecordBatch:
    """Insert attack frames into a time-sorted batch.

    Original frames are untouched; every injected frame is labeled Anomaly;
    the output is re-sorted by timestamp with deterministic tie-breaking.
    An empty window returns the batch unchanged.
    """
    if spec.window[0] == spec.window[1]:
        return batch
    if horizon is None:
        horizon = float(batch.timestamp[-1]) if len(batch) else 0.0
    start, end = spec.window
    if start < 0 or end > horizon + 1e-9:
        raise WindowOutOfRange(f"window [{start}, {end}) outside horizon "
                               f"{horizon}")
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    injected = _frames(*_ATTACKS[spec.kind](batch, spec, profile, rng),
                       Label.ANOMALY)
    return _merged([batch, injected], batch.source_name)


# --- desk-scale benchmark --------------------------------------------------

def default_profile() -> TrafficProfile:
    """Ten periodic IDs (5-100 ms periods) plus one event-driven burst ID:
    ~47k frames over a 60 s horizon.

    Payload models are deliberately low-entropy (small counter cycles,
    narrow random bounds) so normal traffic is compressible while attack
    frames remain clearly separable.
    """
    c = PayloadModel
    return TrafficProfile(ids=(
        IdSpec(0x0C0, 0.005, 0.03, 8,
               c("counter", (0x10, 0x27, 0x00, 0xC8, 0x00, 0x00, 0x5A, 0x00),
                 positions=(7,), cycle=16)),
        IdSpec(0x0F0, 0.006, 0.05, 8,
               c("random", (0x80, 0x7D, 0x00, 0x40, 0x20, 0x00, 0x00, 0x33),
                 positions=(2,), bounds=((0x00, 0x0F),))),
        IdSpec(0x110, 0.008, 0.02, 8,
               c("constant", (0x3C, 0x00, 0x88, 0x01, 0xF2, 0x00, 0x40, 0x07))),
        IdSpec(0x18F, 0.010, 0.04, 8,
               c("counter", (0x00, 0x54, 0x00, 0x00, 0xE1, 0x00, 0x00, 0x29),
                 positions=(5,), cycle=8)),
        IdSpec(0x1A2, 0.015, 0.02, 6,
               c("constant", (0x7F, 0x00, 0x12, 0xD4, 0x00, 0x61))),
        IdSpec(0x220, 0.020, 0.06, 8,
               c("random", (0x00, 0xFF, 0x00, 0x00, 0x6B, 0x00, 0x00, 0x00),
                 positions=(4,), bounds=((0x60, 0x7F),))),
        IdSpec(0x2C5, 0.030, 0.03, 4,
               c("counter", (0xC0, 0x00, 0x00, 0x00), positions=(3,), cycle=16)),
        IdSpec(0x316, 0.050, 0.02, 8,
               c("constant", (0x55, 0x00, 0xAA, 0x00, 0x24, 0x00, 0x81, 0x00))),
        IdSpec(0x43F, 0.080, 0.04, 2, c("constant", (0x01, 0x3E))),
        IdSpec(0x4F1, 0.100, 0.02, 8,
               c("constant", (0xDE, 0x01, 0x7A, 0x00, 0x00, 0xC3, 0x00, 0x19))),
        # event-driven ID: sporadic legitimate bursts that density models
        # tend to flag but labels vindicate
        IdSpec(0x5E0, 2.0, 0.10, 4, c("constant", (0x40, 0x00, 0x2A, 0x00)),
               burst_len=5, intra_gap=0.01),
    ))


DEFAULT_HORIZON = 60.0

# Disjoint windows, one per attack entry. The default flooding is a classic
# DoS burst (fresh high-priority ID, junk payload, fixed rate); "stealth" is
# a second flooding variant that replays an existing ID with nominal
# payloads, so only its timing is anomalous and labels are required to
# separate it. Together they make the benchmark span both content-visible
# and label-only-visible attacks.
def default_attacks(seed: int = 0) -> dict[str, AttackSpec]:
    return {
        "flooding": AttackSpec("flooding", window=(8.0, 23.0), target_id=0x000,
                               multiplier=2.0, rate=100.0, seed=seed * 4 + 1),
        "fuzzing": AttackSpec("fuzzing", window=(28.0, 38.0), rate=120.0,
                              seed=seed * 4 + 2),
        "spoofing": AttackSpec("spoofing", window=(42.0, 52.0), target_id=0x316,
                               rate=180.0, seed=seed * 4 + 3),
        "stealth": AttackSpec("flooding", window=(54.0, 58.0), target_id=0x4F1,
                              multiplier=20.0, seed=seed * 4 + 4),
    }


def timing_attack_specs(
    profile: TrafficProfile, seed: int = 0,
    window: tuple[float, float] = (10.0, 14.0), multiplier: float = 3.0,
) -> list[AttackSpec]:
    """Stealthy replay floods on every profile ID at once.

    Injection counts stay proportional to each ID's nominal rate and the
    payloads follow each ID's own model, so the ID/DLC/payload features
    carry no label signal: the inter-arrival interval is the only
    discriminator. Event-driven (burst) IDs are skipped because their
    injection rate cannot be made proportional. This is the timing-only
    benchmark for ablations.
    """
    return [
        AttackSpec("flooding", window=window, target_id=s.arbitration_id,
                   multiplier=multiplier, seed=seed * 131 + i)
        for i, s in enumerate(profile.ids) if s.is_periodic
    ]


DEFAULT_ATTACKS = ("flooding", "fuzzing", "spoofing", "stealth")
ATTACK_NAMES = DEFAULT_ATTACKS + ("timing",)  # what benchmark_batch injects


def benchmark_batch(
    seed: int,
    attacks: tuple[str, ...] = DEFAULT_ATTACKS,
    horizon: float = DEFAULT_HORIZON,
    profile: TrafficProfile | None = None,
) -> RecordBatch:
    """The default desk-scale benchmark: normal traffic plus chosen attacks.

    The pseudo-kind "timing" injects the all-ID replay floods of
    timing_attack_specs instead of a named single attack.
    """
    profile = profile or default_profile()
    batch = generate_normal(profile, horizon, seed)
    specs = default_attacks(seed)
    for kind in attacks:
        if kind == "timing":
            for spec in timing_attack_specs(profile, seed):
                batch = inject_attack(batch, spec, profile=profile,
                                      horizon=horizon)
        else:
            batch = inject_attack(batch, specs[kind], profile=profile,
                                  horizon=horizon)
    return batch


# --- profile file parsing ---------------------------------------------------

def _parse_hex_bytes(text: str) -> tuple[int, ...]:
    text = text.strip()
    if len(text) % 2 != 0:
        raise MalformedLine(f"odd-length payload hex {text!r}")
    return tuple(int(text[i:i + 2], 16) for i in range(0, len(text), 2))


def _parse_payload_spec(text: str) -> PayloadModel:
    """Payload syntax:
      constant:<hex>
      counter:<hex>@<pos>%<cycle>
      random:<hex>@<pos>:<lo>-<hi>[,<pos>:<lo>-<hi>...]
    """
    kind, _, rest = text.partition(":")
    if kind == "constant":
        return PayloadModel("constant", _parse_hex_bytes(rest))
    if kind == "counter":
        base_s, _, tail = rest.partition("@")
        pos_s, _, cycle_s = tail.partition("%")
        return PayloadModel("counter", _parse_hex_bytes(base_s),
                            positions=(int(pos_s),),
                            cycle=int(cycle_s) if cycle_s else 256)
    if kind == "random":
        base_s, _, tail = rest.partition("@")
        positions, bounds = [], []
        for clause in tail.split(","):
            pos_s, _, range_s = clause.partition(":")
            lo_s, _, hi_s = range_s.partition("-")
            positions.append(int(pos_s))
            bounds.append((int(lo_s, 16), int(hi_s, 16)))
        return PayloadModel("random", _parse_hex_bytes(base_s),
                            positions=tuple(positions), bounds=tuple(bounds))
    raise MalformedLine(f"unknown payload model {kind!r}")


def load_profile(path: str | Path) -> TrafficProfile:
    """Read a profile file: one `key=value ...` line per ID, # comments."""
    specs = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = {}
        for token in line.split():
            key, _, value = token.partition("=")
            fields[key] = value
        try:
            burst_len, intra_gap = 1, 0.0
            if "burst" in fields:
                len_s, _, gap_s = fields["burst"].partition("x")
                burst_len, intra_gap = int(len_s), float(gap_s)
            specs.append(IdSpec(
                arbitration_id=int(fields["id"], 16),
                period=float(fields["period"]),
                jitter=float(fields.get("jitter", "0")),
                dlc=int(fields["dlc"]),
                payload=_parse_payload_spec(fields["payload"]),
                burst_len=burst_len,
                intra_gap=intra_gap,
            ))
        except (KeyError, ValueError) as exc:
            raise MalformedLine(f"bad profile line {line!r}: {exc}") from exc
    return TrafficProfile(tuple(specs))


def save_profile(path: str | Path, profile: TrafficProfile) -> None:
    lines = ["# canids traffic profile"]
    for spec in profile.ids:
        payload = _render_payload_spec(spec.payload)
        line = (f"id=0x{spec.arbitration_id:03X} period={spec.period!r} "
                f"jitter={spec.jitter!r} dlc={spec.dlc} payload={payload}")
        if spec.burst_len > 1:
            line += f" burst={spec.burst_len}x{spec.intra_gap!r}"
        lines.append(line)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _render_payload_spec(model: PayloadModel) -> str:
    base = "".join(f"{b:02X}" for b in model.base)
    if model.kind == "constant":
        return f"constant:{base}"
    if model.kind == "counter":
        return f"counter:{base}@{model.positions[0]}%{model.cycle}"
    clauses = ",".join(
        f"{pos}:{lo:02X}-{hi:02X}"
        for pos, (lo, hi) in zip(model.positions, model.bounds)
    )
    return f"random:{base}@{clauses}"


def parse_attack_arg(text: str) -> AttackSpec:
    """Parse the CLI shorthand, e.g.
    flooding:target=0x1F0,mult=10,window=20-30
    fuzzing:rate=50,window=25-35,seed=7
    spoofing:target=0x316,rate=100,window=40-50
    """
    kind, _, rest = text.partition(":")
    fields: dict[str, str] = {}
    if rest:
        for token in rest.split(","):
            key, _, value = token.partition("=")
            fields[key] = value
    try:
        window = (0.0, 0.0)
        if "window" in fields:
            lo_s, _, hi_s = fields["window"].partition("-")
            window = (float(lo_s), float(hi_s))
        target_id = int(fields["target"], 16) if "target" in fields else None
        multiplier = float(fields.get("mult", "10"))
        rate = float(fields.get("rate", "100"))
        seed = int(fields.get("seed", "0"))
    except ValueError as exc:
        raise ConfigError(f"bad attack {text!r}: {exc}") from None
    return AttackSpec(kind=kind, window=window, target_id=target_id,
                      multiplier=multiplier, rate=rate, seed=seed)
