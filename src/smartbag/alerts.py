"""Alert engine: classify telemetry records and raise notifications.

Polls the store's history stream with a persisted cursor, classifies each
record with the cached model file, evaluates the alert rules on the
record's own `ts`, writes the classified activity back to the stored
record, and delivers events to an append-only notification log plus an
optional webhook. Also issues the find-my-bag alarm command.

Both files the service writes go through `files`: the cursor, with the
dedup state, is replaced whole after each entry, so a crash leaves the old
pair or the new one; the notification log is a `files.AppendLog` of JSON
lines, one write per event, whose torn last line is cut at the next append
and skipped by `NotificationLog.read` until then. Neither is fsynced.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import files, nn
from .clock import RealClock
from .dataset import FEATURE_NAMES
from .frames import RECORD_PATHS, check_device_id
from .store import JsonConnection, StoreUnavailable

logger = logging.getLogger(__name__)

# an alarm command the gateway has not acknowledged this long after it was
# issued raises a warning
ALARM_TTL_MS = 60000

HISTORY_PAGE = 500  # most entries one history request of a poll returns

SEVERITY = {"SOS": "EMERGENCY", "GAS": "WARN", "WATER": "WARN",
            "ACTIVITY": "EMERGENCY", "ALARM_TRIGGERED": "INFO"}


class RecordSchemaError(Exception):
    pass


@dataclass(frozen=True)
class AlertRuleSet:
    mq2_max: float = 300.0
    mq135_max: float = 200.0
    dedup_window_ms: int = 30000
    # fixed rules, not settings: perfbench/pipeline.py reads them from here
    sos_alert: ClassVar[bool] = True
    water_alert: ClassVar[bool] = True
    alert_classes: ClassVar[frozenset] = frozenset({"Falling"})

    def __post_init__(self):
        if self.mq2_max <= 0 or self.mq135_max <= 0:
            raise ValueError("gas thresholds must be > 0")
        if self.dedup_window_ms < 0:
            raise ValueError("dedup window must be >= 0")


@dataclass(frozen=True)
class AlertEvent:
    kind: str
    severity: str
    device: str
    ts: int
    message: str
    activity: str | None = None

    def to_json(self) -> dict:
        return {"ts": self.ts, "device": self.device, "kind": self.kind,
                "severity": self.severity, "activity": self.activity,
                "message": self.message}


def request_alarm(store, device: str, now: int) -> tuple:
    """Raise the device's find-my-bag alarm flag unless it is already up.
    Returns the outstanding command's issue time and whether this call
    raised the flag."""
    path = f"bags/{device}/commands"
    doc = store.get(path)
    if doc and doc.get("alarm") == 1:
        return doc.get("issuedTs", now), False
    store.patch(path, {"alarm": 1, "issuedTs": now})
    return now, True


_FEATURE_PATHS = tuple(RECORD_PATHS[name] for name in FEATURE_NAMES)


def record_features(record: dict) -> np.ndarray:
    """Pull the 13 activity features out of a telemetry document."""
    values = []
    for keys in _FEATURE_PATHS:
        node = record
        for key in keys:
            if not isinstance(node, dict) or key not in node:
                raise RecordSchemaError(f"missing field {'.'.join(keys)}")
            node = node[key]
        if not isinstance(node, (int, float)) or isinstance(node, bool):
            raise RecordSchemaError(f"non-numeric field {'.'.join(keys)}")
        try:
            value = float(node)
        except OverflowError:  # an int too large for a float
            value = math.inf
        if not math.isfinite(value):
            raise RecordSchemaError(f"non-finite field {'.'.join(keys)}")
        values.append(value)
    return np.array(values)


def classify_record(model, vocabulary, record: dict):
    """Classify one record; returns (activity name, probability vector)."""
    cls, probs = nn.predict(model, record_features(record))
    return vocabulary[cls], probs


def eval_rules(record: dict, activity: str | None, rules: AlertRuleSet,
               dedup_state: dict) -> list:
    """Pure rule evaluation on the record alone; emits SOS, GAS, WATER,
    ACTIVITY in order, on strict thresholds, unless 0 <= ts - last < window."""
    device = record.get("deviceId", "?")
    if type(ts := record.get("ts")) is not int:  # a bool is no time either
        raise RecordSchemaError("non-integer field ts")
    candidates = []
    if record.get("sos") == 1:
        candidates.append(("SOS", "SOS button pressed"))
    gas = record.get("gas", {})
    if gas.get("mq2", 0) > rules.mq2_max or gas.get("mq135", 0) > rules.mq135_max:
        candidates.append(
            ("GAS", f"gas level high (mq2={gas.get('mq2')}, mq135={gas.get('mq135')})"))
    if record.get("water") == 1:
        candidates.append(("WATER", "water detected inside the bag"))
    if activity is not None and activity in rules.alert_classes:
        candidates.append(("ACTIVITY", f"alerting activity detected: {activity}"))

    events = []
    for kind, message in candidates:
        last = dedup_state.get((device, kind))
        if last is not None and 0 <= ts - last < rules.dedup_window_ms:
            continue
        dedup_state[device, kind] = ts
        events.append(AlertEvent(kind, SEVERITY[kind], device, ts, message,
                                 activity))
    return events


def _through_last_newline(fh) -> int:
    """The length of the file open in `fh` up to and including its last
    newline, found by reading back from the end."""
    end = fh.seek(0, os.SEEK_END)
    while end > 0:
        start = max(end - 4096, 0)
        fh.seek(start)
        newline = fh.read(end - start).rfind(b"\n")
        if newline >= 0:
            return start + newline + 1
        end = start
    return 0


class NotificationLog:
    """Append-only JSONL sink: one line per event, each written with one
    write. The file is opened for each event, not held, and once at
    construction, so a path that cannot be written fails there."""

    def __init__(self, path):
        self.path = path
        self._open().close()

    def _open(self) -> files.AppendLog:
        # a line a crash tore is cut here, before the next one is appended
        return files.AppendLog(self.path, _through_last_newline)

    def deliver(self, event: AlertEvent) -> None:
        with contextlib.closing(self._open()) as log:
            log.append(json.dumps(event.to_json()).encode("utf-8") + b"\n")

    def read(self) -> list:
        """The events of the complete lines; a torn last line is skipped."""
        try:
            with open(self.path, "rb") as fh:
                end = _through_last_newline(fh)
                fh.seek(0)
                lines = fh.read(end).splitlines()
        except FileNotFoundError:
            return []
        return [json.loads(line) for line in lines if line.strip()]


class WebhookSink:
    """POSTs each event; a failure is logged, not raised. A POST is tried
    again, up to MAX_TRIES in all, only when the hook is unreachable or
    answers a status in RETRY_STATUSES or 5xx; any other 4xx is final.

    Before each retry the sink waits on its clock for the reply's
    `Retry-After` in delta-seconds, or else FIRST_WAIT_MS doubled for each
    try before, and never longer than MAX_WAIT_MS, so one event holds up a
    poll by at most (MAX_TRIES - 1) * MAX_WAIT_MS of waiting."""

    MAX_TRIES = 3
    RETRY_STATUSES = (408, 429)  # a request timeout, a rate limit
    FIRST_WAIT_MS = 500
    MAX_WAIT_MS = 2000

    def __init__(self, url: str, clock=None):
        self.http = JsonConnection(url)
        self.clock = clock or RealClock()

    def deliver(self, event: AlertEvent) -> None:
        for attempt in range(self.MAX_TRIES):
            retry_after = ""
            try:
                status, _, headers = self.http.request("POST",
                                                       doc=event.to_json())
            except StoreUnavailable:  # the hook is unreachable
                pass
            else:
                if status < 400:
                    return
                if status < 500 and status not in self.RETRY_STATUSES:
                    logger.warning("webhook refused the event: HTTP %d", status)
                    return
                retry_after = headers.get("Retry-After", "").strip()
            if attempt + 1 == self.MAX_TRIES:
                break
            if not (retry_after.isascii() and retry_after.isdigit()):
                wait = self.FIRST_WAIT_MS << attempt  # none, or an HTTP date
            elif len(retry_after) < 10:
                wait = int(retry_after) * 1000  # RFC 9110 delta-seconds
            else:  # too long for int() to take at once, and past the cap
                wait = self.MAX_WAIT_MS
            self.clock.sleep_ms(min(wait, self.MAX_WAIT_MS))
        logger.warning("webhook delivery failed after %d tries", self.MAX_TRIES)

    def close(self) -> None:
        self.http.close()


@dataclass
class AlertServiceConfig:
    device_id: str = "BAG1"
    poll_interval_ms: int = 1000
    rules: AlertRuleSet = field(default_factory=AlertRuleSet)

    def __post_init__(self):
        check_device_id(self.device_id)
        if self.poll_interval_ms <= 0:
            raise ValueError("poll_interval_ms must be > 0")


class AlertService:
    """The mobile-app brain without the screen."""

    def __init__(self, store, model_path, config: AlertServiceConfig = None,
                 cursor_path=None, sinks=(), clock=None):
        self.store = store
        self.config = config or AlertServiceConfig()
        self.cursor_path = cursor_path
        self.sinks = list(sinks)
        self.clock = clock or RealClock()
        self.model, _, self.vocabulary = self._load_model(model_path)
        # (device, kind) -> ts of the last event of that kind
        self.cursor, self.dedup_state = self._load_cursor()
        self.skipped = 0
        self.outstanding_alarm: int | None = None  # issue time of the alarm

    @staticmethod
    def _load_model(model_path):
        with open(model_path, "rb") as fh:
            params, spec, vocabulary = nn.import_model(fh.read())
        # a model that cannot take a record's features would fail on the
        # first record at every poll, and the cursor would never pass it
        if spec.input_width != len(_FEATURE_PATHS):
            raise nn.ShapeMismatch(
                f"model input width {spec.input_width} != "
                f"{len(_FEATURE_PATHS)} record features")
        return params, spec, vocabulary

    def _load_cursor(self) -> tuple:
        """The cursor and the dedup state the cursor file holds; a file
        written before the dedup state was kept holds the cursor alone."""
        if self.cursor_path is None:
            return None, {}
        try:
            with open(self.cursor_path, "r", encoding="utf-8") as fh:
                saved = json.load(fh)
            cursor = saved["cursor"]
            if cursor is not None and not isinstance(cursor, str):
                raise TypeError(f"cursor {cursor!r} is not a push id")
            dedup_state = {}
            for device, kind, ts in saved.get("last", []):
                if not (isinstance(device, str) and isinstance(kind, str)
                        and type(ts) is int):
                    raise TypeError(f"dedup entry {[device, kind, ts]!r} "
                                    f"is not [device, kind, ts]")
                dedup_state[device, kind] = ts
        except FileNotFoundError:
            return None, {}
        except (ValueError, TypeError, KeyError) as e:
            logger.warning("unreadable cursor file %s (%s); starting with no "
                           "cursor", self.cursor_path, e)
            return None, {}
        return cursor, dedup_state

    def _save_cursor(self) -> None:
        """Replace the cursor file whole, so a crash leaves either the old
        cursor and dedup state or the new ones, never a torn file."""
        if self.cursor_path is not None:
            last = [[*key, ts] for key, ts in self.dedup_state.items()]
            files.replace(self.cursor_path, json.dumps(
                {"cursor": self.cursor, "last": last}).encode("utf-8"))

    def _emit(self, event: AlertEvent) -> None:
        for sink in self.sinks:
            sink.deliver(event)

    def _process_entry(self, entry_id: str, record: dict) -> None:
        device = self.config.device_id
        try:
            activity, _ = classify_record(self.model, self.vocabulary, record)
            events = eval_rules(record, activity, self.config.rules,
                                self.dedup_state)
        except RecordSchemaError as e:
            logger.warning("skipping malformed record %s: %s", entry_id, e)
            self.skipped += 1
            return
        try:
            self.store.patch(f"bags/{device}/latest", {"activity": activity})
        except StoreUnavailable:
            logger.warning("could not write activity back for %s", entry_id)
        for event in events:
            self._emit(event)

    def poll_once(self) -> int:
        """Process new history entries a page at a time; returns how many."""
        path = f"bags/{self.config.device_id}/history"
        count = 0
        while True:
            entries = self.store.get_history(path, since=self.cursor,
                                             limit=HISTORY_PAGE)
            for entry in entries:
                self._process_entry(entry.push_id, entry.doc)
                # advance only after the entry is fully processed
                self.cursor = entry.push_id
                self._save_cursor()
            count += len(entries)
            if len(entries) < HISTORY_PAGE:
                break
        self._check_alarm()
        return count

    # -- find-my-bag alarm ------------------------------------------------

    def trigger_alarm(self) -> int:
        """Request the bag's alarm and return the outstanding command's issue
        time; a single command stays outstanding per device until the
        gateway acknowledges it."""
        issued, raised = request_alarm(self.store, self.config.device_id,
                                       self.clock.now_ms())
        if raised or self.outstanding_alarm is None:
            self.outstanding_alarm = issued
        return self.outstanding_alarm

    def _check_alarm(self) -> None:
        if self.outstanding_alarm is None:
            return
        device = self.config.device_id
        now = self.clock.now_ms()
        try:
            doc = self.store.get(f"bags/{device}/commands")
        except StoreUnavailable:
            return
        if doc is not None and doc.get("alarm") == 0:
            self.outstanding_alarm = None
            return
        if now - self.outstanding_alarm >= ALARM_TTL_MS:
            self._emit(AlertEvent(
                "ALARM_TRIGGERED", "WARN", device, now,
                "alarm command not acknowledged before TTL"))
            self.outstanding_alarm = None

    def run(self) -> None:
        """Poll every interval, or min(2**k, 32) intervals after k failures."""
        backoff = 1
        while True:
            try:
                self.poll_once()
                backoff = 1
            except StoreUnavailable as e:
                logger.warning("store unreachable: %s", e)
                backoff = min(backoff * 2, 32)
            self.clock.sleep_ms(self.config.poll_interval_ms * backoff)
