"""Gateway between the frame source and the document store.

Every push period the newest available frame is converted to a JSON
telemetry record and appended to a buffer; one drain loop (`flush`) then
POSTs each buffered record to `bags/<device>/history` and PATCHes it to
`bags/<device>/latest`, oldest first, and stops at the first failure; a
record whose POST landed is not posted again when only its PATCH failed. While
the store is unreachable the buffer keeps the newest `buffer_capacity`
records and counts the ones it drops. The gateway also polls
`bags/<device>/commands` for the find-my-bag alarm flag and acknowledges it.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass

from .clock import RealClock
from .frames import SensorFrame
# perfbench/pipeline.py imports HttpStoreClient from this module
from .store import HttpStoreClient, StoreUnavailable  # noqa: F401

logger = logging.getLogger(__name__)


def to_record(frame: SensorFrame, recv_ts: int) -> dict:
    """Lossless JSON document form of a frame; keys are the wire schema."""
    return {
        "deviceId": frame.device_id,
        "seq": frame.seq,
        "ts": frame.ts,
        "recvTs": int(recv_ts),
        "gps": {"lat": frame.lat, "lon": frame.lon, "alt": frame.alt,
                "speed": frame.speed, "heading": frame.heading},
        "imu": {"ax": frame.ax, "ay": frame.ay, "az": frame.az,
                "yaw": frame.yaw, "pitch": frame.pitch, "roll": frame.roll},
        "load": {"left": frame.load_left, "right": frame.load_right},
        "gas": {"mq2": frame.mq2, "mq135": frame.mq135},
        "env": {"temp": frame.temp, "hum": frame.humidity},
        "water": frame.water,
        "sos": frame.sos,
    }


@dataclass
class GatewayConfig:
    device_id: str = "BAG1"
    period_ms: int = 2000
    buffer_capacity: int = 1024

    def __post_init__(self):
        if self.period_ms <= 0:
            raise ValueError("period_ms must be > 0")
        if self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1")


class Gateway:
    """Drives one device's telemetry into the store on a fixed period."""

    def __init__(self, source, store, config: GatewayConfig = None, clock=None,
                 event_log_path=None):
        self.source = source
        self.store = store
        self.config = config or GatewayConfig()
        self.clock = clock or RealClock()
        self.event_log_path = event_log_path
        self.buffer = deque()
        self.dropped = 0
        self.pushed_history = 0
        self._posted = None  # the buffered record whose POST has landed
        self.alarm_events = []

    # -- alarm command loop ----------------------------------------------

    def _log_event(self, event: dict) -> None:
        self.alarm_events.append(event)
        logger.info("gateway event: %s", event)
        if self.event_log_path is not None:
            with open(self.event_log_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(event) + "\n")

    def _poll_commands(self, now: int) -> None:
        path = f"bags/{self.config.device_id}/commands"
        try:
            doc = self.store.get(path)
        except StoreUnavailable:
            return
        if doc and doc.get("alarm") == 1:
            self._log_event({
                "ts": now,
                "device": self.config.device_id,
                "kind": "ALARM_TRIGGERED",
                "severity": "INFO",
                "activity": None,
                "message": "find-my-bag alarm sounded",
            })
            try:
                self.store.patch(path, {"alarm": 0, "ackTs": now})
            except StoreUnavailable:
                logger.warning("alarm ack failed; will retry next tick")

    # -- push loop --------------------------------------------------------

    def _push(self, record: dict) -> None:
        device = self.config.device_id
        if record is not self._posted:
            self.store.post(f"bags/{device}/history", record)
            self.pushed_history += 1
            self._posted = record
        self.store.patch(f"bags/{device}/latest", record)

    def tick(self) -> None:
        """One push period's worth of work."""
        now = self.clock.now_ms()
        frames = self.source.poll(now)
        if frames:
            self.buffer.append(to_record(frames[-1], now))
        # trim after the drain, so a full buffer drops nothing while the
        # store is up
        self.flush()
        while len(self.buffer) > self.config.buffer_capacity:
            if self.buffer.popleft() is not self._posted:  # else in history
                self.dropped += 1
        self._poll_commands(now)

    def run(self, max_ticks: int = None, stop_when_exhausted: bool = False) -> None:
        """Tick until max_ticks, or until an exhausted source is drained;
        never raises on store trouble."""
        ticks = 0
        while True:
            self.tick()
            ticks += 1
            if max_ticks is not None and ticks >= max_ticks:
                break
            if stop_when_exhausted and getattr(self.source, "exhausted", False) \
                    and not self.buffer:
                break
            self.clock.sleep_ms(self.config.period_ms)
        self.flush()

    def flush(self) -> None:
        """Push buffered records oldest first until the store fails."""
        while self.buffer:
            try:
                self._push(self.buffer[0])
            except StoreUnavailable:
                return
            self.buffer.popleft()
