"""Device-to-gateway wire protocol.

One ASCII line per reading, NMEA-style framing:

    $BAG,<device>,<seq>,<ts>,<gps x5>,<imu x6>,<load x2>,<gas x2>,
    <temp>,<humidity>,<water>,<sos>*<CK>\n

CK is the XOR of the payload bytes between '$' and '*' as two uppercase
hex digits. Reals are printed with at most 6 significant digits.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .dataset import ClassProfile

FRAME_TAG = "BAG"
PAYLOAD_FIELDS = 23  # tag + 22 data fields

_DEVICE_RE = re.compile(r"^[A-Za-z0-9]{1,16}$")


class FrameError(Exception):
    """Base class for frame encode/parse failures."""


class BadStart(FrameError):
    pass


class BadFieldCount(FrameError):
    pass


class BadNumber(FrameError):
    def __init__(self, fieldname, message=""):
        super().__init__(message or f"bad number in field {fieldname!r}")
        self.field = fieldname


class RangeViolation(FrameError):
    def __init__(self, fieldname, message=""):
        super().__init__(message or f"value out of range in field {fieldname!r}")
        self.field = fieldname


class BadChecksum(FrameError):
    pass


@dataclass(frozen=True)
class SensorFrame:
    device_id: str = "BAG1"
    seq: int = 0
    ts: int = 0
    lat: float = 0.0
    lon: float = 0.0
    alt: float = 0.0
    speed: float = 0.0
    heading: float = 0.0
    ax: float = 0.0
    ay: float = 0.0
    az: float = 0.0
    yaw: float = 0.0
    pitch: float = 0.0
    roll: float = 0.0
    load_left: float = 0.0
    load_right: float = 0.0
    mq2: float = 0.0
    mq135: float = 0.0
    temp: float = 0.0
    humidity: float = 0.0
    water: int = 0
    sos: int = 0

    def validate(self) -> None:
        if not _DEVICE_RE.match(self.device_id):
            raise RangeViolation("device_id", "device_id must be alnum, <=16 chars")
        for name in ("seq", "ts"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0 or v >= 2 ** 64:
                raise RangeViolation(name, f"{name} must be a non-negative integer")
        for name in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise RangeViolation(name, f"{name} must be finite")
        if not (-90.0 <= self.lat <= 90.0):
            raise RangeViolation("lat")
        if not (-180.0 <= self.lon <= 180.0):
            raise RangeViolation("lon")
        if not (0.0 <= self.humidity <= 100.0):
            raise RangeViolation("humidity")
        if self.water not in (0, 1):
            raise RangeViolation("water")
        if self.sos not in (0, 1):
            raise RangeViolation("sos")


_FLOAT_FIELDS = ("lat", "lon", "alt", "speed", "heading",
                 "ax", "ay", "az", "yaw", "pitch", "roll",
                 "load_left", "load_right", "mq2", "mq135",
                 "temp", "humidity")

_FIELD_ORDER = ("device_id", "seq", "ts") + _FLOAT_FIELDS + ("water", "sos")


def checksum(payload: bytes) -> str:
    """XOR of the payload bytes, as two uppercase hex digits."""
    ck = 0
    for b in payload:
        ck ^= b
    return f"{ck:02X}"


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def encode_frame(frame: SensorFrame) -> bytes:
    frame.validate()
    parts = [FRAME_TAG, frame.device_id, str(frame.seq), str(frame.ts)]
    parts += [_fmt(getattr(frame, name)) for name in _FLOAT_FIELDS]
    parts += [str(frame.water), str(frame.sos)]
    payload = ",".join(parts).encode("ascii")
    return b"$" + payload + b"*" + checksum(payload).encode("ascii") + b"\n"


def parse_frame(line: bytes) -> SensorFrame:
    """Parse one wire line; raises a FrameError subclass on any defect."""
    if isinstance(line, str):
        line = line.encode("utf-8", errors="replace")
    line = line.rstrip(b"\r\n")
    if not line.startswith(b"$"):
        raise BadStart("line must start with '$'")
    star = line.rfind(b"*")
    if star < 0:
        raise BadChecksum("missing '*' checksum delimiter")
    payload, ck_part = line[1:star], line[star + 1:]
    if len(ck_part) != 2 or not all(c in b"0123456789ABCDEFabcdef" for c in ck_part):
        raise BadChecksum(f"malformed checksum field {ck_part!r}")
    if ck_part.decode("ascii").upper() != checksum(payload):
        raise BadChecksum(
            f"checksum {ck_part.decode('ascii').upper()} != {checksum(payload)}")
    fields = payload.split(b",")
    if len(fields) != PAYLOAD_FIELDS:
        raise BadFieldCount(f"expected {PAYLOAD_FIELDS} fields, got {len(fields)}")
    if fields[0] != FRAME_TAG.encode("ascii"):
        raise BadStart(f"expected tag {FRAME_TAG!r}")

    values = {}
    for name, raw in zip(_FIELD_ORDER, fields[1:]):
        try:
            text = raw.decode("ascii")
        except UnicodeDecodeError:
            raise BadNumber(name, f"non-ASCII bytes in field {name!r}") from None
        if name == "device_id":
            values[name] = text
            continue
        try:
            if name in ("seq", "ts", "water", "sos"):
                values[name] = int(text)
            else:
                v = float(text)
                if not math.isfinite(v):
                    raise ValueError("non-finite")
                values[name] = v
        except ValueError:
            raise BadNumber(name, f"cannot parse {text!r} as field {name!r}") from None

    frame = SensorFrame(**values)
    frame.validate()
    return frame


# --- frame sources -------------------------------------------------------
#
# The gateway pulls frames from a source via poll(now_ms); both a recorded
# trace and a live simulator are supported.


class TraceSource:
    """Replays encoded frame lines on the schedule implied by frame
    timestamps, optionally accelerated.

    Malformed lines are counted and skipped, matching the gateway's
    tolerance for a noisy serial link.
    """

    def __init__(self, lines, start_ms: int, speed: float = 1.0):
        self.malformed = 0
        self._queue = []
        first_ts = None
        for line in lines:
            try:
                frame = parse_frame(line)
            except FrameError:
                self.malformed += 1
                continue
            if first_ts is None:
                first_ts = frame.ts
            due = start_ms + int((frame.ts - first_ts) / speed)
            self._queue.append((due, frame))
        self._queue.sort(key=lambda item: item[0])
        self._pos = 0

    @classmethod
    def from_file(cls, path, start_ms: int, speed: float = 1.0):
        with open(path, "rb") as fh:
            return cls(fh.read().splitlines(), start_ms, speed)

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._queue)

    def poll(self, now_ms: int):
        out = []
        while self._pos < len(self._queue) and self._queue[self._pos][0] <= now_ms:
            out.append(self._queue[self._pos][1])
            self._pos += 1
        return out


class SimulatorSource:
    """Generates live frames from class signal profiles.

    Holds each activity for a few readings before hopping to another class;
    SOS and water flags fire with the profile's event probabilities.
    """

    def __init__(self, profiles, device_id: str = "BAG1", interval_ms: int = 1000,
                 seed: int = 0, base_lat: float = 12.9716, base_lon: float = 77.5946,
                 hold: int = 8):
        self.profiles = tuple(profiles)
        self.device_id = device_id
        self.interval_ms = interval_ms
        self.rng = np.random.default_rng(seed)
        self.base_lat = base_lat
        self.base_lon = base_lon
        self.hold = hold
        self.seq = 0
        self._next_due = None
        self._current = int(self.rng.integers(0, len(self.profiles)))
        self._held = 0
        self.malformed = 0

    @property
    def exhausted(self) -> bool:
        return False

    def _make_frame(self, now_ms: int) -> SensorFrame:
        prof: ClassProfile = self.profiles[self._current]
        row = self.rng.normal(prof.mean, prof.std)
        water = int(self.rng.random() < prof.water_prob)
        sos = int(self.rng.random() < prof.sos_prob)
        frame = SensorFrame(
            device_id=self.device_id,
            seq=self.seq,
            ts=now_ms,
            lat=self.base_lat + float(self.rng.normal(0, 1e-4)),
            lon=self.base_lon + float(self.rng.normal(0, 1e-4)),
            alt=900.0 + float(self.rng.normal(0, 2.0)),
            speed=abs(float(self.rng.normal(1.0, 0.5))),
            heading=float(self.rng.uniform(0, 360)),
            ax=row[0], ay=row[1], az=row[2],
            yaw=row[3], pitch=row[4], roll=row[5],
            load_left=row[6], load_right=row[7],
            mq2=abs(row[8]), mq135=abs(row[9]),
            temp=row[10], humidity=float(np.clip(row[11], 0.0, 100.0)),
            water=water, sos=sos,
        )
        self.seq = (self.seq + 1) % 2 ** 32
        self._held += 1
        if self._held >= self.hold:
            self._held = 0
            self._current = int(self.rng.integers(0, len(self.profiles)))
        return frame

    def poll(self, now_ms: int):
        if self._next_due is None:
            self._next_due = now_ms
        out = []
        while self._next_due <= now_ms:
            out.append(self._make_frame(self._next_due))
            self._next_due += self.interval_ms
        return out


def write_trace(frames, path) -> None:
    """Record frames as wire lines for later replay."""
    with open(path, "wb") as fh:
        for frame in frames:
            fh.write(encode_frame(frame))
