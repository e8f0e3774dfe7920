"""Device-to-gateway wire protocol.

One ASCII line per reading, NMEA-style framing:

    $BAG,<device>,<seq>,<ts>,<gps x5>,<imu x6>,<load x2>,<gas x2>,
    <temp>,<humidity>,<water>,<sos>*<CK>\n

CK is the XOR of the payload bytes between '$' and '*' as two uppercase
hex digits. Reals are printed with at most 6 significant digits.

`RECORD_PATHS` is the one definition of the telemetry schema: the wire
order of the readings, their place in the JSON record (`to_record`), and,
with `dataset.FEATURE_NAMES`, where the model's 13 features are read back.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import files
from .dataset import FEATURE_NAMES, ClassProfile

FRAME_TAG = "BAG"

_DEVICE_RE = re.compile(r"[A-Za-z0-9]{1,16}")


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
        if not _DEVICE_RE.fullmatch(self.device_id):
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


# Each reading of a SensorFrame, in wire order, with its path in the JSON
# telemetry record.
RECORD_PATHS = {
    "lat": ("gps", "lat"), "lon": ("gps", "lon"), "alt": ("gps", "alt"),
    "speed": ("gps", "speed"), "heading": ("gps", "heading"),
    "ax": ("imu", "ax"), "ay": ("imu", "ay"), "az": ("imu", "az"),
    "yaw": ("imu", "yaw"), "pitch": ("imu", "pitch"), "roll": ("imu", "roll"),
    "load_left": ("load", "left"), "load_right": ("load", "right"),
    "mq2": ("gas", "mq2"), "mq135": ("gas", "mq135"),
    "temp": ("env", "temp"), "humidity": ("env", "hum"),
    "water": ("water",),
    "sos": ("sos",),
}

_INT_FIELDS = ("seq", "ts", "water", "sos")

_FLOAT_FIELDS = tuple(name for name in RECORD_PATHS if name not in _INT_FIELDS)

_FIELD_ORDER = ("device_id", "seq", "ts") + tuple(RECORD_PATHS)

PAYLOAD_FIELDS = 1 + len(_FIELD_ORDER)  # the tag, then the fields


def check_device_id(device_id: str) -> None:
    """Raise ValueError unless `device_id` is one a frame may carry."""
    if not _DEVICE_RE.fullmatch(device_id):
        raise ValueError(f"device id {device_id!r} is not 1-16 ASCII letters "
                         "or digits")


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


def to_record(frame: SensorFrame, recv_ts: int) -> dict:
    """Lossless JSON document form of a frame, laid out by RECORD_PATHS."""
    record = {"deviceId": frame.device_id, "seq": frame.seq, "ts": frame.ts,
              "recvTs": int(recv_ts)}
    for name, path in RECORD_PATHS.items():
        node = record
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = getattr(frame, name)
    return record


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
            if name in _INT_FIELDS:
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
        if not (math.isfinite(speed) and speed > 0):
            raise ValueError(f"speed must be finite and > 0, not {speed!r}")
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


SIM_INTERVAL_MS = 1000  # one simulated reading per second
SIM_HOLD = 8  # readings per activity before the simulator draws another
SIM_BASE_LAT, SIM_BASE_LON = 12.9716, 77.5946


class SimulatorSource:
    """Generates live frames from class signal profiles.

    Holds each activity for a few readings before hopping to another class;
    SOS and water flags fire with the profile's event probabilities.
    """

    def __init__(self, profiles, device_id: str = "BAG1", seed: int = 0):
        self.profiles = tuple(profiles)
        self.device_id = device_id
        self.rng = np.random.default_rng(seed)
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
        readings = dict(zip(FEATURE_NAMES, self.rng.normal(prof.mean, prof.std)))
        # the keyword arguments draw in this order, after the profile row
        readings.update(
            water=int(self.rng.random() < prof.water_prob),
            sos=int(self.rng.random() < prof.sos_prob),
            lat=SIM_BASE_LAT + float(self.rng.normal(0, 1e-4)),
            lon=SIM_BASE_LON + float(self.rng.normal(0, 1e-4)),
            alt=900.0 + float(self.rng.normal(0, 2.0)),
            speed=abs(float(self.rng.normal(1.0, 0.5))),
            heading=float(self.rng.uniform(0, 360)),
            mq2=abs(readings["mq2"]), mq135=abs(readings["mq135"]),
            humidity=float(np.clip(readings["humidity"], 0.0, 100.0)),
        )
        frame = SensorFrame(device_id=self.device_id, seq=self.seq, ts=now_ms,
                            **readings)
        self.seq = (self.seq + 1) % 2 ** 32
        self._held += 1
        if self._held >= SIM_HOLD:
            self._held = 0
            self._current = int(self.rng.integers(0, len(self.profiles)))
        return frame

    def poll(self, now_ms: int):
        if self._next_due is None:
            self._next_due = now_ms
        out = []
        while self._next_due <= now_ms:
            out.append(self._make_frame(self._next_due))
            self._next_due += SIM_INTERVAL_MS
        return out


def write_trace(frames, path) -> None:
    """Record frames as wire lines for later replay, replacing the file at
    `path` whole."""
    files.replace(path, b"".join(encode_frame(frame) for frame in frames))
