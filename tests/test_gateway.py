import numpy as np
import pytest

from smartbag.clock import VirtualClock
from smartbag.frames import SensorFrame, TraceSource, encode_frame
from smartbag.gateway import Gateway, GatewayConfig, to_record

from test_frames import random_frame

HISTORY = "bags/BAG1/history"


def trace_lines(n, step_ms=1000, sos_at=None):
    lines = []
    rng = np.random.default_rng(0)
    for i in range(n):
        frame = random_frame(rng)
        fields = dict(frame.__dict__)
        fields.update(ts=i * step_ms, seq=i, device_id="BAG1",
                      sos=1 if i == sos_at else 0)
        lines.append(encode_frame(SensorFrame(**fields)))
    return lines


def make_gateway(store, lines, capacity=1024, period=2000, start=0):
    clock = VirtualClock(start)
    source = TraceSource(lines, start_ms=start)
    gw = Gateway(source, store,
                 GatewayConfig(device_id="BAG1", period_ms=period,
                               buffer_capacity=capacity),
                 clock=clock)
    return gw, clock


def history_seqs(store):
    return [e.doc["seq"] for e in store.get_history(HISTORY)]


class TestToRecord:
    def test_zero_frame(self):
        record = to_record(SensorFrame(), recv_ts=5)
        assert record["sos"] == 0 and record["water"] == 0
        assert record["recvTs"] == 5
        numeric = [record["gps"][k] for k in ("lat", "lon", "alt", "speed",
                                              "heading")]
        numeric += [record["imu"][k] for k in ("ax", "ay", "az", "yaw",
                                               "pitch", "roll")]
        numeric += [record["load"]["left"], record["load"]["right"],
                    record["gas"]["mq2"], record["gas"]["mq135"],
                    record["env"]["temp"], record["env"]["hum"]]
        assert all(v == 0 for v in numeric)

    def test_sos_carried(self):
        assert to_record(SensorFrame(sos=1), 0)["sos"] == 1

    def test_schema_keys_exact(self):
        record = to_record(SensorFrame(), 0)
        assert set(record) == {"deviceId", "seq", "ts", "recvTs", "gps", "imu",
                               "load", "gas", "env", "water", "sos"}
        assert set(record["gps"]) == {"lat", "lon", "alt", "speed", "heading"}
        assert set(record["imu"]) == {"ax", "ay", "az", "yaw", "pitch", "roll"}

    def test_injective_on_random_frames(self):
        rng = np.random.default_rng(7)
        frames = [random_frame(rng) for _ in range(200)]
        records = {str(sorted(to_record(f, 0).items())) for f in frames}
        assert len(records) == len(set(frames))


class TestPushLoop:
    def test_push_count_follows_period(self, flaky_store):
        # 5 frames at 1 Hz, 2 s period, 5 s of running: 2-3 pushes, each one
        # history POST and one latest PATCH
        gw, clock = make_gateway(flaky_store, trace_lines(5), period=2000)
        end = 5000
        while clock.now_ms() <= end:
            gw.tick()
            clock.advance(2000)
        assert 2 <= len(flaky_store.get_history(HISTORY)) <= 3

    def test_latest_reflects_newest(self, flaky_store):
        gw, clock = make_gateway(flaky_store, trace_lines(4, step_ms=500))
        clock.advance(10_000)
        gw.tick()
        doc = flaky_store.get("bags/BAG1/latest")
        assert doc["seq"] == 3

    def test_outage_then_recovery_preserves_order(self, flaky_store):
        gw, clock = make_gateway(flaky_store, trace_lines(6, step_ms=2000))
        flaky_store.down = True
        for _ in range(3):
            gw.tick()
            clock.advance(2000)
        flaky_store.down = False
        assert flaky_store.get_history(HISTORY) == []
        for _ in range(3):
            gw.tick()
            clock.advance(2000)
        seqs = history_seqs(flaky_store)
        assert seqs == sorted(seqs)
        assert set(seqs) == {0, 1, 2, 3, 4, 5}

    def test_bounded_buffer_drops_oldest(self, flaky_store):
        gw, clock = make_gateway(flaky_store, trace_lines(3, step_ms=2000),
                                 capacity=2)
        flaky_store.down = True
        for _ in range(3):
            gw.tick()
            clock.advance(2000)
        assert gw.dropped == 1
        assert [r["seq"] for r in gw.buffer] == [1, 2]
        flaky_store.down = False
        gw.flush()
        assert history_seqs(flaky_store) == [1, 2]

    def test_full_buffer_drops_nothing_when_store_recovers(self,
                                                           flaky_store):
        gw, clock = make_gateway(flaky_store, trace_lines(3, step_ms=2000),
                                 capacity=2)
        flaky_store.down = True
        for _ in range(2):
            gw.tick()
            clock.advance(2000)
        assert len(gw.buffer) == 2
        flaky_store.down = False
        gw.tick()
        assert gw.dropped == 0 and not gw.buffer
        assert history_seqs(flaky_store) == [0, 1, 2]

    def test_run_stops_when_trace_exhausted(self, flaky_store):
        gw, clock = make_gateway(flaky_store, trace_lines(3, step_ms=1000))
        gw.run(stop_when_exhausted=True)
        assert gw.pushed_history >= 1
        assert gw.source.exhausted


class TestAlarmAck:
    def test_ack_resets_flag_and_logs_event(self, flaky_store):
        gw, clock = make_gateway(flaky_store, trace_lines(1))
        flaky_store.patch("bags/BAG1/commands", {"alarm": 1, "issuedTs": 0})
        gw.tick()
        assert len(gw.alarm_events) == 1
        assert gw.alarm_events[0]["kind"] == "ALARM_TRIGGERED"
        assert flaky_store.get("bags/BAG1/commands")["alarm"] == 0

    def test_no_event_without_command(self, flaky_store):
        gw, clock = make_gateway(flaky_store, trace_lines(1))
        gw.tick()
        assert gw.alarm_events == []

    def test_event_log_file(self, tmp_path, flaky_store):
        clock = VirtualClock(0)
        flaky_store.patch("bags/BAG1/commands", {"alarm": 1})
        log = tmp_path / "events.jsonl"
        gw = Gateway(TraceSource([], 0), flaky_store, GatewayConfig(),
                     clock=clock, event_log_path=str(log))
        gw.tick()
        assert "ALARM_TRIGGERED" in log.read_text()
