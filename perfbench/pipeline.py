"""Workload `pipeline`: device frames -> gateway -> HTTP store -> alerts.

A closed loop on one VirtualClock over real loopback HTTP. Each virtual
second every bag of a small fleet emits one frame, encoded on the device
side with frames.encode_frame and parsed on the gateway side with
frames.parse_frame. Every 2 s each Gateway.tick pushes through one shared
gateway-side HttpStoreClient to a WAL-backed StoreServer; every 1 s each
AlertService.poll_once reads through one shared alert-side client,
classifies, and delivers to a NotificationLog. Every 30 s one bag's alarm
is triggered between ticks and acknowledged on the next tick.

The 2 s push and 1 s poll waits are virtual and cost nothing, so the wall
time of a cycle is only the work the services do. Each gateway waits for
every reply, so load is one closed-loop client per side.
"""

from __future__ import annotations

import math
import time
from collections import deque

import numpy as np

from smartbag import alerts, frames
from smartbag.clock import VirtualClock
from smartbag.gateway import Gateway, GatewayConfig, HttpStoreClient
from smartbag.store import Store, StoreServer

import harness
import inputs
from harness import Probe, check

BAGS = ("BAG1", "BAG2")
FRAME_MS = 1000
ALARM_EVERY_MS = 30000
REPLAYS = 5

CLIENT_METHODS = ("post", "patch", "get", "get_history")
STORE_METHODS = ("append_history", "patch", "get", "get_history", "has_history")

_SENSOR_FIELDS = {
    ("gps", "lat"): "lat", ("gps", "lon"): "lon", ("gps", "alt"): "alt",
    ("gps", "speed"): "speed", ("gps", "heading"): "heading",
    ("imu", "ax"): "ax", ("imu", "ay"): "ay", ("imu", "az"): "az",
    ("imu", "yaw"): "yaw", ("imu", "pitch"): "pitch", ("imu", "roll"): "roll",
    ("load", "left"): "load_left", ("load", "right"): "load_right",
    ("gas", "mq2"): "mq2", ("gas", "mq135"): "mq135",
    ("env", "temp"): "temp", ("env", "hum"): "humidity",
}


class WireSource:
    """The gateway's serial link: wire lines in, parsed frames out."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.lines = deque()

    def push(self, due_ms: int, line: bytes) -> None:
        self.lines.append((due_ms, line))

    def poll(self, now_ms: int):
        out = []
        while self.lines and self.lines[0][0] <= now_ms:
            _, line = self.lines.popleft()
            out.append(self.tracer.call("frames.parse", frames.parse_frame, line))
        return out


class Fleet:
    """Everything one measured phase runs: store, server, bags, services."""

    def __init__(self, seed: int, tracer, workdir):
        self.tracer = tracer
        workdir.mkdir(parents=True)
        rng = np.random.default_rng(seed)
        blob, _ = inputs.build_model(seed, harness.Tracer(False))
        self.model_path = workdir / "model.bagm"
        self.model_path.write_bytes(blob)

        self.clock = VirtualClock()
        self.wal_path = workdir / "store.wal"
        self.store = Store(log_path=self.wal_path, clock=self.clock)
        self.store_probe = Probe(self.store, "store", tracer, STORE_METHODS)
        self.server = StoreServer(self.store_probe).start()
        self.gw_client = Probe(HttpStoreClient(self.server.base_url),
                               "store.http", tracer, CLIENT_METHODS, keep=True)
        self.alert_client = Probe(HttpStoreClient(self.server.base_url),
                                  "store.http", tracer, CLIENT_METHODS, keep=True)
        self.sink = Probe(alerts.NotificationLog(workdir / "notifications.jsonl"),
                          "alerts.sink", tracer, ("deliver",), keep=True)

        profiles = inputs.event_profiles(rng)
        self.devices, self.sources, self.gateways, self.services = {}, {}, {}, {}
        for bag in BAGS:
            self.devices[bag] = inputs.Device(bag, profiles, rng)
            self.sources[bag] = WireSource(tracer)
            self.gateways[bag] = Gateway(self.sources[bag], self.gw_client,
                                         GatewayConfig(device_id=bag),
                                         clock=self.clock)
            self.services[bag] = alerts.AlertService(
                self.alert_client, self.model_path,
                alerts.AlertServiceConfig(device_id=bag),
                cursor_path=workdir / f"{bag}.cursor", sinks=[self.sink],
                clock=self.clock)
        self.period_ms = GatewayConfig().period_ms
        self.poll_ms = alerts.AlertServiceConfig().poll_interval_ms
        self.rules = alerts.AlertRuleSet()

        self.generated = {bag: [] for bag in BAGS}
        self.triggers = dict.fromkeys(BAGS, 0)
        self.pending = {bag: deque() for bag in BAGS}  # (push id, tick start)
        self.processed_at = {}  # push id -> virtual ms of the poll
        self.latencies = []
        self.windows = []
        self.polls = 0

    def close(self) -> None:
        self.server.stop()  # also closes the store and its WAL

    # -- one virtual second ----------------------------------------------

    def second(self) -> None:
        now = self.clock.now_ms()
        for bag in BAGS:
            frame = self.devices[bag].frame(now)
            self.generated[bag].append(frame)
            line = self.tracer.call("frames.encode", frames.encode_frame, frame)
            self.sources[bag].push(now, line)

        if now % ALARM_EVERY_MS == FRAME_MS:
            bag = BAGS[(now // ALARM_EVERY_MS) % len(BAGS)]
            self.tracer.call("alerts.trigger_alarm",
                             self.services[bag].trigger_alarm)
            self.triggers[bag] += 1

        # bags are served in turn: each one's tick, then its alert poll
        for bag in BAGS:
            if now % self.period_ms == 0:
                start = time.perf_counter_ns()
                mark = len(self.gw_client.log)
                self.tracer.call("gateway.tick", self.gateways[bag].tick)
                for method, _, result in self.gw_client.log[mark:]:
                    if method == "post":
                        self.pending[bag].append((result["name"], start))
            if now % self.poll_ms == 0:
                self._poll(bag, now)
        self.clock.advance(FRAME_MS)

    def _poll(self, bag: str, now: int) -> None:
        service = self.services[bag]
        mark = len(self.alert_client.log)
        self.tracer.call("alerts.poll", service.poll_once)
        end = time.perf_counter_ns()
        self.polls += 1
        for method, _, result in self.alert_client.log[mark:]:
            if method == "get_history":
                for entry in result:
                    self.processed_at[entry.push_id] = now
        queue = self.pending[bag]
        while queue and service.cursor is not None \
                and queue[0][0] <= service.cursor:
            _, start = queue.popleft()
            self.latencies.append((end - start) / 1e9)
            self.windows.append((start, end))

    # -- correctness ------------------------------------------------------

    def verify(self) -> dict:
        """Raise GateFailure on any wrong output; return the counts.

        `failed` counts store calls that raised. Event frames the gateway
        dropped are a loss in the program's delivery, not a failed call, and
        are counted apart in `lost_events`.
        """
        seen = {bag: [] for bag in BAGS}
        writebacks = dict.fromkeys(BAGS, 0)
        for method, args, result in self.alert_client.log:
            bag = args[0].split("/")[1]
            if method == "get_history":
                seen[bag].extend(e.push_id for e in result)
            elif method == "patch" and args[0].endswith("/latest"):
                writebacks[bag] += 1

        stored_total = 0
        for bag in BAGS:
            history = self.store.get_history(f"bags/{bag}/history")
            stored_total += len(history)
            ids = [e.push_id for e in history]
            seqs = [e.doc["seq"] for e in history]
            check(all(a < b for a, b in zip(ids, ids[1:])),
                  f"{bag}: history ids out of order or duplicated")
            check(all(a < b for a, b in zip(seqs, seqs[1:])),
                  f"{bag}: history seqs out of order or duplicated")
            by_seq = {f.seq: f for f in self.generated[bag]}
            for entry in history:
                _check_record(entry.doc, by_seq.get(entry.doc["seq"]), bag)
            _check_flags(history, self.generated[bag], bag)

            service = self.services[bag]
            check(seen[bag] == ids, f"{bag}: the alert service saw "
                  f"{len(seen[bag])} of {len(ids)} entries, or out of order")
            check(writebacks[bag] == len(seen[bag]),
                  f"{bag}: {writebacks[bag]} activity write-backs for "
                  f"{len(seen[bag])} entries")
            check(service.skipped == 0, f"{bag}: {service.skipped} records skipped")
            check(not ids or service.cursor == ids[-1],
                  f"{bag}: cursor {service.cursor} is not the last id")
            self._check_notifications(bag, history)
            self._check_alarms(bag)

        lost_events, events = self._lost_events()
        calls = self.gw_client.total_calls + self.alert_client.total_calls
        errors = self.gw_client.errors + self.alert_client.errors
        return {"attempted": calls + stored_total, "failed": errors,
                "records": stored_total, "lost_events": lost_events,
                "event_frames": events}

    def _check_notifications(self, bag: str, history) -> None:
        """SOS/GAS/WATER notifications equal the benchmark's own rule oracle
        over the stored records, in processing order with per-kind dedup on
        the poll's virtual time. ACTIVITY ones name an alerting class."""
        rules, last, expected = self.rules, {}, []
        for entry in history:
            rec, now = entry.doc, self.processed_at[entry.push_id]
            gas = rec["gas"]
            for kind, fired in (("SOS", rules.sos_alert and rec["sos"] == 1),
                                ("GAS", gas["mq2"] > rules.mq2_max
                                 or gas["mq135"] > rules.mq135_max),
                                ("WATER", rules.water_alert and rec["water"] == 1)):
                if fired and (kind not in last
                              or now - last[kind] >= rules.dedup_window_ms):
                    last[kind] = now
                    expected.append((kind, rec["ts"]))
        delivered = [args[0] for _, args, _ in self.sink.log
                     if args[0].device == bag]
        actual = [(e.kind, e.ts) for e in delivered if e.kind != "ACTIVITY"]
        check(actual == expected,
              f"{bag}: notifications {actual} != oracle {expected}")
        stored_ts = {e.doc["ts"] for e in history}
        for event in delivered:
            if event.kind == "ACTIVITY":
                check(event.activity in rules.alert_classes
                      and event.ts in stored_ts,
                      f"{bag}: unexpected activity notification {event}")

    def _check_alarms(self, bag: str) -> None:
        gateway, service = self.gateways[bag], self.services[bag]
        acks = [args for method, args, _ in self.gw_client.log
                if method == "patch" and args[0] == f"bags/{bag}/commands"]
        check(len(gateway.alarm_events) == self.triggers[bag]
              and len(acks) == self.triggers[bag],
              f"{bag}: {self.triggers[bag]} alarms, "
              f"{len(gateway.alarm_events)} sounded, {len(acks)} acknowledged")
        check(service.outstanding_alarm is None,
              f"{bag}: alarm still outstanding")

    def _lost_events(self) -> tuple:
        """SOS or water frames with no same-kind notification for the bag
        between one dedup window before the frame and one push period
        after it."""
        window = self.rules.dedup_window_ms
        lost = total = 0
        for bag in BAGS:
            notified = {"SOS": [], "WATER": []}
            for _, args, _ in self.sink.log:
                event = args[0]
                if event.device == bag and event.kind in notified:
                    notified[event.kind].append(event.ts)
            for frame in self.generated[bag]:
                for kind, flag in (("SOS", frame.sos), ("WATER", frame.water)):
                    if flag:
                        total += 1
                        lost += not any(frame.ts - window <= ts
                                        <= frame.ts + self.period_ms
                                        for ts in notified[kind])
        return lost, total


def _check_record(doc: dict, frame, bag: str) -> None:
    check(frame is not None, f"{bag}: stored seq {doc['seq']} was never sent")
    check(doc["deviceId"] == bag and doc["ts"] == frame.ts,
          f"{bag}: stored record {doc['seq']} has the wrong device or ts")
    for (group, key), name in _SENSOR_FIELDS.items():
        # frames carry 6 significant digits
        check(math.isclose(doc[group][key], getattr(frame, name),
                           rel_tol=1e-5, abs_tol=1e-9),
              f"{bag}: seq {doc['seq']} field {group}.{key} changed in transit")


def _check_flags(history, generated, bag: str) -> None:
    """A stored SOS or water flag must come from a frame sent since the
    previous stored record: no event appears from nowhere."""
    previous = -1
    for entry in history:
        seq = entry.doc["seq"]
        window = generated[previous + 1:seq + 1]
        for name in ("sos", "water"):
            check(entry.doc[name] == 0 or any(getattr(f, name) for f in window),
                  f"{bag}: seq {seq} carries {name} that no frame sent")
        previous = seq


def run(seed: int, seconds: float, tracer, workdir, tiny: bool) -> dict:
    del tiny  # the pipeline is sized by --seconds alone

    setup_s, fleet = harness.timed_setup(
        lambda i: Fleet(seed, tracer, workdir / f"fleet{i}"), Fleet.close)
    try:
        start = time.perf_counter()
        while True:
            fleet.second()
            if fleet.clock.now_ms() % fleet.period_ms == 0 \
                    and time.perf_counter() - start >= seconds:
                break
        wall_s = time.perf_counter() - start
        measured = len(fleet.latencies)
        fleet.second()  # settle: push and process the last frames, ack alarms
    finally:
        fleet.close()
    counts = fleet.verify()

    replays = []
    for _ in range(REPLAYS):
        begin = time.perf_counter()
        reopened = Store(log_path=fleet.wal_path, clock=VirtualClock())
        replays.append(time.perf_counter() - begin)
        reopened.close()
        check(reopened.docs == fleet.store.docs
              and reopened.history == fleet.store.history,
              "WAL replay does not reproduce the acknowledged state")

    latencies = fleet.latencies[:measured]
    notes = []
    metrics = {"throughput_per_s": measured / wall_s,
               **harness.latency_summary(latencies, notes),
               "setup_s": setup_s}
    wal_records = (fleet.store_probe.calls["append_history"]
                   + fleet.store_probe.calls["patch"])
    records = counts["records"]
    report = {
        "records_per_s": metrics["throughput_per_s"],
        "record_latency_ms.p50": metrics["latency_ms.p50"],
        "record_latency_ms.p95": metrics["latency_ms.p95"],
        "latency_samples": measured,
        "recovery_s": harness.median(replays),
        "event_frames": counts["event_frames"],
        "lost_event_frames": counts["lost_events"],
        "lost_event_share": _share(counts["lost_events"], counts["event_frames"]),
    }
    layers = _layers(fleet, tracer, records, wal_records, replays)
    layers["gateway.lost_event_share"] = report["lost_event_share"]
    return {"metrics": metrics, "layers": layers, "report": report,
            "notes": notes, "latencies": latencies,
            "windows": fleet.windows[:measured], "attempted": counts["attempted"],
            "failed": counts["failed"]}


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _layers(fleet: Fleet, tracer, records: int, wal_records: int,
            replays) -> dict:
    d, med = tracer.durations, harness.median_or_zero
    return {
        "store.http_post_ms": med(d("store.http.post"), 1e3),
        "store.http_patch_ms": med(d("store.http.patch"), 1e3),
        "store.http_get_ms": med(d("store.http.get") + d("store.http.get_history"),
                                 1e3),
        "gateway.tick_ms": med(d("gateway.tick"), 1e3),
        "gateway.tick_self_ms": med(d("gateway.tick", self_time=True), 1e3),
        "gateway.requests_per_record": fleet.gw_client.total_calls / records,
        "gateway.buffer_dropped": sum(g.dropped for g in fleet.gateways.values()),
        "frames.encode_us": med(d("frames.encode"), 1e6),
        "frames.parse_us": med(d("frames.parse"), 1e6),
        "store.get_history_ms": med(d("store.get_history"), 1e3),
        "store.history_len": max(len(h) for h in fleet.store.history.values()),
        "store.append_us": med(d("store.append_history"), 1e6),
        "store.patch_us": med(d("store.patch"), 1e6),
        "store.wal_bytes_per_record": fleet.wal_path.stat().st_size / wal_records,
        "store.replay_records_per_s": wal_records / harness.median(replays),
        "alerts.poll_ms": med(d("alerts.poll"), 1e3),
        "alerts.poll_self_ms": med(d("alerts.poll", self_time=True), 1e3),
        "alerts.store_calls_per_record": fleet.alert_client.total_calls / records,
        "alerts.entries_per_poll": records / fleet.polls,
        "alerts.notifications": fleet.sink.calls["deliver"],
    }
