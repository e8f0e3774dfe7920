import hashlib

import numpy as np
import pytest

from smartbag import frames
from smartbag.frames import (
    BadChecksum, BadFieldCount, BadNumber, BadStart, FrameError,
    RangeViolation, SensorFrame, SimulatorSource, TraceSource,
    checksum, encode_frame, parse_frame,
)
from smartbag.dataset import default_profiles


def xor_oracle(payload: bytes) -> str:
    """Independent checksum computation via reduce."""
    from functools import reduce
    from operator import xor

    return format(reduce(xor, payload, 0), "02X")


def random_frame(rng) -> SensorFrame:
    def q(v):
        # quantize to the wire's 6-significant-digit rendering
        return float(f"{v:.6g}")

    return SensorFrame(
        device_id="BAG" + str(rng.integers(0, 1000)),
        seq=int(rng.integers(0, 2 ** 32)),
        ts=int(rng.integers(0, 2 ** 40)),
        lat=q(rng.uniform(-90, 90)),
        lon=q(rng.uniform(-180, 180)),
        alt=q(rng.uniform(-100, 9000)),
        speed=q(rng.uniform(0, 40)),
        heading=q(rng.uniform(0, 360)),
        ax=q(rng.normal(0, 2)), ay=q(rng.normal(0, 2)), az=q(rng.normal(1, 2)),
        yaw=q(rng.normal(0, 100)), pitch=q(rng.normal(0, 100)),
        roll=q(rng.normal(0, 100)),
        load_left=q(rng.uniform(0, 100)), load_right=q(rng.uniform(0, 100)),
        mq2=q(rng.uniform(0, 500)), mq135=q(rng.uniform(0, 500)),
        temp=q(rng.uniform(-20, 50)), humidity=q(rng.uniform(0, 100)),
        water=int(rng.integers(0, 2)), sos=int(rng.integers(0, 2)),
    )


class TestChecksum:
    def test_single_byte(self):
        assert checksum(b"A") == "41"

    def test_two_bytes(self):
        assert checksum(b"AB") == "03"

    def test_default_frame_against_oracle(self):
        line = encode_frame(SensorFrame())
        payload = line[1:line.rfind(b"*")]
        assert checksum(payload) == xor_oracle(payload)

    def test_random_payloads_against_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            payload = bytes(rng.integers(0, 256, size=rng.integers(0, 60)))
            assert checksum(payload) == xor_oracle(payload)


class TestEncode:
    def test_zero_frame_prefix(self):
        line = encode_frame(SensorFrame(device_id="BAG1", seq=0, ts=0))
        assert line.startswith(b"$BAG,BAG1,0,0,")
        assert line.endswith(b"\n")
        payload = line[1:line.rfind(b"*")]
        assert line[line.rfind(b"*") + 1:-1].decode() == checksum(payload)

    def test_deterministic(self):
        frame = random_frame(np.random.default_rng(1))
        assert encode_frame(frame) == encode_frame(frame)

    def test_invalid_frame_rejected(self):
        with pytest.raises(FrameError):
            encode_frame(SensorFrame(lat=91.0))
        with pytest.raises(FrameError):
            encode_frame(SensorFrame(device_id="not valid!"))
        # a trailing newline would end the frame's line early
        with pytest.raises(FrameError):
            encode_frame(SensorFrame(device_id="BAG1\n"))
        with pytest.raises(FrameError):
            encode_frame(SensorFrame(water=2))


class TestParse:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            frame = random_frame(rng)
            line = encode_frame(frame)
            assert parse_frame(line) == frame
            # encode o parse is the identity on wire lines too
            assert encode_frame(parse_frame(line)) == line

    def test_checksum_flip_rejected(self):
        line = bytearray(encode_frame(SensorFrame()))
        pos = len(line) - 2  # last checksum hex digit
        line[pos] = ord("0") if line[pos] != ord("0") else ord("1")
        with pytest.raises(BadChecksum):
            parse_frame(bytes(line))

    def test_missing_field(self):
        frame = SensorFrame()
        line = encode_frame(frame)
        payload = line[1:line.rfind(b"*")]
        payload = payload[:payload.rfind(b",")]
        rebuilt = b"$" + payload + b"*" + checksum(payload).encode() + b"\n"
        with pytest.raises(BadFieldCount):
            parse_frame(rebuilt)

    def test_bad_start(self):
        with pytest.raises(BadStart):
            parse_frame(b"BAG,x*00\n")
        payload = b"GPS,BAG1,0,0," + b"0," * 18 + b"0"
        line = b"$" + payload + b"*" + checksum(payload).encode()
        with pytest.raises(BadStart):
            parse_frame(line)

    def test_bad_number_names_field(self):
        line = encode_frame(SensorFrame())
        payload = bytearray(line[1:line.rfind(b"*")])
        fields = payload.split(b",")
        fields[2] = b"abc"  # seq
        payload = b",".join(fields)
        rebuilt = b"$" + payload + b"*" + checksum(payload).encode()
        with pytest.raises(BadNumber) as err:
            parse_frame(rebuilt)
        assert err.value.field == "seq"

    def test_range_violation(self):
        line = encode_frame(SensorFrame())
        payload = line[1:line.rfind(b"*")].split(b",")
        payload[4] = b"95"  # lat
        payload = b",".join(payload)
        rebuilt = b"$" + payload + b"*" + checksum(payload).encode()
        with pytest.raises(RangeViolation):
            parse_frame(rebuilt)

    def test_bit_flip_rejected(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            frame = random_frame(rng)
            line = bytearray(encode_frame(frame))
            star = bytes(line).rfind(b"*")
            pos = int(rng.integers(1, star))  # payload byte
            bit = int(rng.integers(0, 8))
            line[pos] ^= 1 << bit
            flipped = bytes(line)
            try:
                reparsed = parse_frame(flipped)
            except FrameError:
                continue
            # only acceptable if the flip produced a line that re-encodes
            # to exactly what was parsed (a different but valid frame is
            # impossible here because the checksum no longer matches)
            assert reparsed != frame or flipped == bytes(encode_frame(frame))

    def test_fuzz_never_crashes(self):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            blob = bytes(rng.integers(0, 256, size=rng.integers(0, 120)))
            try:
                parse_frame(blob)
            except FrameError:
                pass


class TestSources:
    def make_trace_lines(self, n=5, step_ms=1000):
        rng = np.random.default_rng(5)
        lines = []
        for i in range(n):
            frame = random_frame(rng)
            frame = SensorFrame(**{**frame.__dict__, "ts": i * step_ms, "seq": i})
            lines.append(encode_frame(frame))
        return lines

    def test_trace_schedule(self):
        source = TraceSource(self.make_trace_lines(), start_ms=100)
        assert [f.seq for f in source.poll(100)] == [0]
        assert source.poll(100) == []
        assert [f.seq for f in source.poll(2100)] == [1, 2]
        assert [f.seq for f in source.poll(10_000)] == [3, 4]
        assert source.exhausted

    def test_trace_speedup(self):
        source = TraceSource(self.make_trace_lines(), start_ms=0, speed=10.0)
        assert [f.seq for f in source.poll(400)] == [0, 1, 2, 3, 4]

    def test_trace_counts_malformed(self):
        lines = self.make_trace_lines(3)
        lines.insert(1, b"garbage line\n")
        source = TraceSource(lines, start_ms=0)
        assert source.malformed == 1
        assert len(source.poll(10_000)) == 3

    def test_trace_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        recorded = [random_frame(rng) for _ in range(4)]
        path = tmp_path / "trace.bag"
        frames.write_trace(recorded, str(path))
        source = TraceSource.from_file(str(path), start_ms=0)
        replayed = source.poll(10 ** 15)
        assert replayed == sorted(recorded, key=lambda f: f.ts)

    def test_simulator_frames_valid_and_deterministic(self):
        a = SimulatorSource(default_profiles(), seed=1)
        b = SimulatorSource(default_profiles(), seed=1)
        assert a.poll(0) == b.poll(0)
        fa = a.poll(5000)
        fb = b.poll(5000)
        assert fa == fb
        assert len(fa) == 5  # t=1000..5000 at 1 Hz
        for frame in fa:
            parse_frame(encode_frame(frame))  # valid on the wire

    def test_simulator_frames_pinned(self):
        # 2000 s of frames for each of seeds 0-4, as wire bytes; a change to
        # the generator's draws, readings or wire order moves the digest
        digest = hashlib.sha256()
        for seed in range(5):
            source = SimulatorSource(default_profiles(), seed=seed)
            for frame in source.poll(0) + source.poll(1_999_000):
                digest.update(encode_frame(frame))
        assert digest.hexdigest() == (
            "c54ed035fd2e788de2047372ed54aecf70bd0ab34df00b262d5169fee44264ff")
