"""Alert engine: classify telemetry records and raise notifications.

Polls the store's history stream with a persisted cursor, classifies each
record with the cached model file, evaluates the alert rules, writes the
classified activity back to the stored record, and delivers events to an
append-only notification log plus an optional webhook. Also issues the
find-my-bag alarm command.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .clock import RealClock
from .dataset import FEATURE_NAMES
from .frames import RECORD_PATHS
from .store import JsonConnection, StoreUnavailable

logger = logging.getLogger(__name__)

# an alarm command the gateway has not acknowledged this long after it was
# issued raises a warning
ALARM_TTL_MS = 60000

SEVERITY = {"SOS": "EMERGENCY", "GAS": "WARN", "WATER": "WARN",
            "ACTIVITY": "EMERGENCY", "ALARM_TRIGGERED": "INFO"}


class RecordSchemaError(Exception):
    pass


@dataclass(frozen=True)
class AlertRuleSet:
    mq2_max: float = 300.0
    mq135_max: float = 200.0
    water_alert: bool = True
    sos_alert: bool = True
    alert_classes: frozenset = frozenset({"Falling"})
    dedup_window_ms: int = 30000

    def __post_init__(self):
        if self.mq2_max <= 0 or self.mq135_max <= 0:
            raise ValueError("gas thresholds must be > 0")
        if self.dedup_window_ms < 0:
            raise ValueError("dedup window must be >= 0")
        object.__setattr__(self, "alert_classes", frozenset(self.alert_classes))


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
               dedup_state: dict, now_ms: int) -> list:
    """Pure rule evaluation; emits SOS, GAS, WATER, ACTIVITY in that order,
    deduplicated per (device, kind) within the window. Thresholds are strict."""
    device = record.get("deviceId", "?")
    ts = record.get("ts", now_ms)
    candidates = []
    if rules.sos_alert and record.get("sos") == 1:
        candidates.append(("SOS", "SOS button pressed"))
    gas = record.get("gas", {})
    if gas.get("mq2", 0) > rules.mq2_max or gas.get("mq135", 0) > rules.mq135_max:
        candidates.append(
            ("GAS", f"gas level high (mq2={gas.get('mq2')}, mq135={gas.get('mq135')})"))
    if rules.water_alert and record.get("water") == 1:
        candidates.append(("WATER", "water detected inside the bag"))
    if activity is not None and activity in rules.alert_classes:
        candidates.append(("ACTIVITY", f"alerting activity detected: {activity}"))

    events = []
    for kind, message in candidates:
        key = (device, kind)
        last = dedup_state.get(key)
        if last is not None and now_ms - last < rules.dedup_window_ms:
            continue
        dedup_state[key] = now_ms
        events.append(AlertEvent(kind, SEVERITY[kind], device, ts, message,
                                 activity))
    return events


class NotificationLog:
    """Append-only JSONL sink."""

    def __init__(self, path):
        self.path = path

    def deliver(self, event: AlertEvent) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(event.to_json()) + "\n")

    def read(self) -> list:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                return [json.loads(line) for line in fh if line.strip()]
        except FileNotFoundError:
            return []


class WebhookSink:
    """POSTs each event; a failure is logged, not raised. A POST is tried
    again, up to MAX_TRIES in all, only when the hook is unreachable or
    answers a status in RETRY_STATUSES or 5xx; any other 4xx is final."""

    MAX_TRIES = 3
    RETRY_STATUSES = (408, 429)  # a request timeout, a rate limit

    def __init__(self, url: str):
        self.http = JsonConnection(url)

    def deliver(self, event: AlertEvent) -> None:
        for _ in range(self.MAX_TRIES):
            try:
                status, _ = self.http.request("POST", doc=event.to_json())
            except StoreUnavailable:  # the hook is unreachable
                continue
            if status < 400:
                return
            if status < 500 and status not in self.RETRY_STATUSES:
                logger.warning("webhook refused the event: HTTP %d", status)
                return
        logger.warning("webhook delivery failed after %d tries", self.MAX_TRIES)


@dataclass
class AlertServiceConfig:
    device_id: str = "BAG1"
    poll_interval_ms: int = 1000
    rules: AlertRuleSet = field(default_factory=AlertRuleSet)

    def __post_init__(self):
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
        self.cursor = self._load_cursor()
        self.dedup_state = {}
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

    def _load_cursor(self):
        if self.cursor_path is None:
            return None
        try:
            with open(self.cursor_path, "r", encoding="utf-8") as fh:
                cursor = json.load(fh)["cursor"]
            if cursor is not None and not isinstance(cursor, str):
                raise TypeError(f"cursor {cursor!r} is not a push id")
        except FileNotFoundError:
            return None
        except (ValueError, TypeError, KeyError) as e:
            logger.warning("unreadable cursor file %s (%s); starting with no "
                           "cursor", self.cursor_path, e)
            return None
        return cursor

    def _save_cursor(self) -> None:
        """Write the cursor to a temporary file and rename it into place, so
        a crash leaves either the old cursor or the new one, never a torn
        file."""
        if self.cursor_path is not None:
            tmp = f"{os.fspath(self.cursor_path)}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump({"cursor": self.cursor}, fh)
            os.replace(tmp, self.cursor_path)

    def _emit(self, event: AlertEvent) -> None:
        for sink in self.sinks:
            sink.deliver(event)

    def _process_entry(self, entry_id: str, record: dict) -> None:
        now = self.clock.now_ms()
        device = self.config.device_id
        try:
            activity, _ = classify_record(self.model, self.vocabulary, record)
        except RecordSchemaError as e:
            logger.warning("skipping malformed record %s: %s", entry_id, e)
            self.skipped += 1
            return
        try:
            self.store.patch(f"bags/{device}/latest", {"activity": activity})
        except StoreUnavailable:
            logger.warning("could not write activity back for %s", entry_id)
        for event in eval_rules(record, activity, self.config.rules,
                                self.dedup_state, now):
            self._emit(event)

    def poll_once(self) -> int:
        """Fetch and process new history entries; returns how many."""
        device = self.config.device_id
        entries = self.store.get_history(f"bags/{device}/history",
                                         since=self.cursor)
        for entry in entries:
            self._process_entry(entry.push_id, entry.doc)
            # advance only after the entry is fully processed
            self.cursor = entry.push_id
            self._save_cursor()
        self._check_alarm()
        return len(entries)

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

    def run(self, max_polls: int = None) -> None:
        """Poll loop; store failures back off and retry, never fatal."""
        backoff = 1
        polls = 0
        while True:
            try:
                self.poll_once()
                backoff = 1
            except StoreUnavailable as e:
                logger.warning("store unreachable: %s", e)
                self.clock.sleep_ms(self.config.poll_interval_ms * backoff)
                backoff = min(backoff * 2, 32)
            polls += 1
            if max_polls is not None and polls >= max_polls:
                return
            self.clock.sleep_ms(self.config.poll_interval_ms)
