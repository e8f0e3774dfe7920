"""Gateway between the frame source and the document store.

Every push period the newest available frame is converted to a JSON
telemetry record, carrying an SOS or water flag from any frame of the
period, and appended to a buffer; one drain loop (`flush`) then pushes each
buffered record, oldest first, with one store write that appends it to
`bags/<device>/history` and merges it into `bags/<device>/latest`, and
stops at the first failure. A record whose write did not return, by an
error or an interrupt, may have landed with only its reply lost, so it is
looked up in `latest` before it is sent again. While the store is
unreachable the buffer keeps the newest `buffer_capacity` records and
counts the ones it drops. The gateway also polls `bags/<device>/commands`
for the find-my-bag alarm flag, acknowledges it, and delivers an
ALARM_TRIGGERED `AlertEvent` to its sinks.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

from .alerts import SEVERITY, AlertEvent
from .clock import RealClock
from .frames import check_device_id, to_record
# perfbench/pipeline.py imports HttpStoreClient from this module
from .store import HttpStoreClient, StoreUnavailable  # noqa: F401

logger = logging.getLogger(__name__)


@dataclass
class GatewayConfig:
    device_id: str = "BAG1"
    period_ms: int = 2000
    buffer_capacity: int = 1024

    def __post_init__(self):
        check_device_id(self.device_id)
        if self.period_ms <= 0:
            raise ValueError("period_ms must be > 0")
        if self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1")


class Gateway:
    """Drives one device's telemetry into the store on a fixed period."""

    def __init__(self, source, store, config: GatewayConfig = None, clock=None,
                 sinks=()):
        self.source = source
        self.store = store
        self.config = config or GatewayConfig()
        self.clock = clock or RealClock()
        self.sinks = list(sinks)
        self.buffer = deque()
        self.dropped = 0
        self.pushed_history = 0
        self.alarm_events = []
        self._unsure = None  # the record last sent, landed or not

    # -- alarm command loop ----------------------------------------------

    def _poll_commands(self, now: int) -> None:
        path = f"bags/{self.config.device_id}/commands"
        try:
            doc = self.store.get(path)
        except StoreUnavailable:
            return
        if doc and doc.get("alarm") == 1:
            event = AlertEvent("ALARM_TRIGGERED", SEVERITY["ALARM_TRIGGERED"],
                               self.config.device_id, now,
                               "find-my-bag alarm sounded")
            self.alarm_events.append(event.to_json())
            logger.info("gateway event: %s", self.alarm_events[-1])
            for sink in self.sinks:
                sink.deliver(event)
            try:
                self.store.patch(path, {"alarm": 0, "ackTs": now})
            except StoreUnavailable:
                logger.warning("alarm ack failed; will retry next tick")

    # -- push loop --------------------------------------------------------

    def _push(self, record: dict) -> None:
        device = self.config.device_id
        self.store.post(f"bags/{device}/history", record,
                        latest=f"bags/{device}/latest")

    def tick(self) -> None:
        """One push period's worth of work."""
        now = self.clock.now_ms()
        frames = self.source.poll(now)
        if frames:
            record = to_record(frames[-1], now)
            # latch events across the window: only the newest frame is
            # pushed, but a flag on any frame of the window must arrive
            record["sos"] = int(any(f.sos for f in frames))
            record["water"] = int(any(f.water for f in frames))
            self.buffer.append(record)
        # trim after the drain, so a full buffer drops nothing while the
        # store is up
        self.flush()
        while len(self.buffer) > self.config.buffer_capacity:
            self.buffer.popleft()
            self.dropped += 1
        self._poll_commands(now)

    def run(self) -> None:
        """Tick once a period until the source is exhausted and the buffer
        drained (a live source never is); never raises on store trouble."""
        while True:
            self.tick()
            if self.source.exhausted and not self.buffer:
                return
            self.clock.sleep_ms(self.config.period_ms)

    def _landed(self, record: dict) -> bool:
        """Whether `latest` holds every key of the record: its push was
        applied, and only the reply was lost."""
        latest = self.store.get(f"bags/{self.config.device_id}/latest") or {}
        return all(latest.get(k) == v for k, v in record.items())

    def flush(self) -> None:
        """Push buffered records oldest first until the store fails."""
        while self.buffer:
            record = self.buffer[0]
            try:
                if record is not self._unsure or not self._landed(record):
                    self._unsure = record
                    self._push(record)
            except StoreUnavailable:
                return
            self.pushed_history += 1
            self.buffer.popleft()
