"""Workload `backlog`: the alert service catching up after downtime.

In-process, WAL-backed Store with no HTTP. Set-up writes a long history
through Store.append_history. The run reopens the store (WAL replay), then
spends its time in rounds. Each round restarts an AlertService with its
cursor file a few thousand entries behind, lets one poll_once drain them,
and then alternates "append one record, poll_once" at full history size.
The large history is what makes a poll that scans it visible; the rounds
spread the drains over the whole run, so one slow spell on a shared
machine does not decide the drain rate.
"""

from __future__ import annotations

import json
import time

import numpy as np

from smartbag import alerts, dataset
from smartbag.clock import VirtualClock
from smartbag.gateway import to_record
from smartbag.store import Store

import harness
import inputs
from harness import Probe, check

DEVICE = "BAG1"
HISTORY = f"bags/{DEVICE}/history"
ENTRIES = 20000
TINY_ENTRIES = 300
BEHIND = 4000  # entries a restarted service has to catch up on
TINY_BEHIND = 60
ROUNDS = 4
FRAME_MS = 1000
REOPENS = 3
MIN_TAIL_POLLS = 5


def _write_backlog(seed: int, entries: int, workdir, index: int):
    """Model file plus a WAL holding `entries` history appends."""
    workdir.mkdir(parents=True, exist_ok=True)
    blob, _ = inputs.build_model(seed, harness.Tracer(False))
    model_path = workdir / f"model{index}.bagm"
    model_path.write_bytes(blob)
    wal_path = workdir / f"store{index}.wal"
    clock = VirtualClock()
    store = Store(log_path=wal_path, clock=clock)
    device = inputs.Device(DEVICE, dataset.default_profiles(),
                           np.random.default_rng(seed))
    for _ in range(entries):
        now = clock.now_ms()
        store.append_history(HISTORY, to_record(device.frame(now), now))
        clock.advance(FRAME_MS)
    store.close()
    return model_path, wal_path, device, clock.now_ms()


def _discard(backlog) -> None:
    model_path, wal_path, _, _ = backlog
    model_path.unlink()
    wal_path.unlink()


def run(seed: int, seconds: float, tracer, workdir, tiny: bool) -> dict:
    entries, behind = (TINY_ENTRIES, TINY_BEHIND) if tiny else (ENTRIES, BEHIND)
    setup_s, (model_path, wal_path, device, next_ms) = harness.timed_setup(
        lambda i: _write_backlog(seed, entries, workdir, i), _discard)
    # Write the WAL out before timing, so the run does not share the disk
    # with the set-up's writeback.
    harness.fsync_file(wal_path)

    start = time.perf_counter()
    replays = []
    for _ in range(REOPENS):
        clock = VirtualClock(next_ms)
        begin = time.perf_counter()
        store = tracer.call("store.replay", Store, log_path=wal_path, clock=clock)
        replays.append(time.perf_counter() - begin)
        replayed = len(store.get_history(HISTORY))
        check(replayed == entries,
              f"replay recovered {replayed} entries of {entries} written")
        if len(replays) < REOPENS:
            store.close()

    wal_start = wal_path.stat().st_size
    probe = Probe(store, "store", tracer,
                  ("append_history", "get_history", "patch", "get"), keep=True)
    sink = Probe(alerts.NotificationLog(workdir / "notifications.jsonl"),
                 "alerts.sink", tracer, ("deliver",))
    ids = [e.push_id for e in store.get_history(HISTORY)]
    expected, services = [], []
    drains, latencies, windows = [], [], []
    try:
        for round_no in range(ROUNDS):
            # restart the service `behind` entries short of the newest one,
            # with a cursor file in the format the service writes
            cursor_path = workdir / f"alerts{round_no}.cursor"
            cursor_path.write_text(json.dumps({"cursor": ids[-behind - 1]}))
            service = alerts.AlertService(
                probe, model_path, alerts.AlertServiceConfig(device_id=DEVICE),
                cursor_path=cursor_path, sinks=[sink], clock=clock)
            services.append(service)
            begin = time.perf_counter()
            got = tracer.call("alerts.poll", service.poll_once)
            drains.append(behind / (time.perf_counter() - begin))
            check(got == behind, f"drain processed {got} of {behind}")
            expected += ids[-behind:]

            round_end = start + seconds * (round_no + 1) / ROUNDS
            polls = 0
            while time.perf_counter() < round_end or polls < MIN_TAIL_POLLS:
                clock.advance(FRAME_MS)
                now = clock.now_ms()
                record = to_record(device.frame(now), now)
                begin = time.perf_counter_ns()
                push_id = probe.append_history(HISTORY, record)
                got = tracer.call("alerts.poll", service.poll_once)
                end = time.perf_counter_ns()
                polls += 1
                check(got == 1, f"tail poll processed {got} records, not 1")
                ids.append(push_id)
                expected.append(push_id)
                latencies.append((end - begin) / 1e9)
                windows.append((begin, end))
    finally:
        store.close()

    _verify(probe, services, expected, ids)
    notes = []
    metrics = {"throughput_per_s": harness.median(drains),
               **harness.latency_summary(latencies, notes),
               "setup_s": setup_s}
    wal_records = probe.calls["append_history"] + probe.calls["patch"]
    alert_calls = probe.calls["get_history"] + probe.calls["patch"] + probe.calls["get"]
    polls = ROUNDS + len(latencies)
    d, med = tracer.durations, harness.median_or_zero
    layers = {
        "store.get_history_ms": med(d("store.get_history"), 1e3),
        "store.history_len": len(ids),
        "store.append_us": med(d("store.append_history"), 1e6),
        "store.patch_us": med(d("store.patch"), 1e6),
        "store.wal_bytes_per_record":
            (wal_path.stat().st_size - wal_start) / wal_records,
        "store.replay_records_per_s": entries / harness.median(replays),
        "alerts.poll_ms": med(d("alerts.poll"), 1e3),
        "alerts.poll_self_ms": med(d("alerts.poll", self_time=True), 1e3),
        "alerts.store_calls_per_record": alert_calls / len(expected),
        "alerts.entries_per_poll": len(expected) / polls,
        "alerts.notifications": sink.calls["deliver"],
    }
    report = {"recovery_s": harness.median(replays),
              "drain_records_per_s": metrics["throughput_per_s"],
              "tail_latency_ms.p50": metrics["latency_ms.p50"],
              "tail_latency_ms.p95": metrics["latency_ms.p95"],
              "latency_samples": len(latencies), "backlog_entries": entries,
              "entries_behind_per_drain": behind, "drains": ROUNDS}
    return {"metrics": metrics, "layers": layers, "report": report,
            "notes": notes, "latencies": latencies, "windows": windows,
            "attempted": probe.total_calls + len(expected),
            "failed": probe.errors}


def _verify(probe: Probe, services, expected, ids) -> None:
    """Every entry due was handed to a service once, in order, and written
    back once; the last cursor is the last id."""
    seen, writebacks = [], 0
    for method, args, result in probe.log:
        if method == "get_history":
            seen.extend(e.push_id for e in result)
        elif method == "patch" and args[0].endswith("/latest"):
            writebacks += 1
    check(seen == expected, "alert service saw entries out of order, twice or never")
    check(writebacks == len(seen),
          f"{writebacks} activity write-backs for {len(seen)} entries")
    check(all(s.skipped == 0 for s in services), "records were skipped")
    check(services[-1].cursor == ids[-1], "cursor is not the last id")
