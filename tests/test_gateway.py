import json

import numpy as np
import pytest

from smartbag.alerts import NotificationLog
from smartbag.clock import VirtualClock
from smartbag.frames import SensorFrame, TraceSource, encode_frame
from smartbag.gateway import Gateway, GatewayConfig, to_record

from conftest import OverStore
from test_frames import random_frame

HISTORY = "bags/BAG1/history"
LATEST = "bags/BAG1/latest"
COMMANDS = "bags/BAG1/commands"


def trace_lines(n, step_ms=1000, sos_at=None, water_at=None):
    lines = []
    rng = np.random.default_rng(0)
    for i in range(n):
        frame = random_frame(rng)
        fields = dict(frame.__dict__)
        fields.update(ts=i * step_ms, seq=i, device_id="BAG1",
                      sos=1 if i == sos_at else 0)
        if water_at is not None:
            fields["water"] = int(i == water_at)
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
        # the order too: WAL bytes and HTTP replies follow it
        record = to_record(SensorFrame(), 0)
        assert list(record) == ["deviceId", "seq", "ts", "recvTs", "gps", "imu",
                                "load", "gas", "env", "water", "sos"]
        assert list(record["gps"]) == ["lat", "lon", "alt", "speed", "heading"]
        assert list(record["imu"]) == ["ax", "ay", "az", "yaw", "pitch", "roll"]
        assert list(record["load"]) == ["left", "right"]
        assert list(record["gas"]) == ["mq2", "mq135"]
        assert list(record["env"]) == ["temp", "hum"]

    def test_injective_on_random_frames(self):
        rng = np.random.default_rng(7)
        frames = [random_frame(rng) for _ in range(200)]
        records = {str(sorted(to_record(f, 0).items())) for f in frames}
        assert len(records) == len(set(frames))


class TestPushLoop(OverStore):
    def test_push_count_follows_period(self, client):
        # 5 frames at 1 Hz, 2 s period, 5 s of running: 2-3 pushes, each one
        # history POST that also merges into latest
        gw, clock = make_gateway(client, trace_lines(5), period=2000)
        end = 5000
        while clock.now_ms() <= end:
            gw.tick()
            clock.advance(2000)
        assert 2 <= len(client.get_history(HISTORY)) <= 3

    def test_latest_reflects_newest(self, client):
        gw, clock = make_gateway(client, trace_lines(4, step_ms=500))
        clock.advance(10_000)
        gw.tick()
        doc = client.get(LATEST)
        assert doc["seq"] == 3

    def test_outage_then_recovery_preserves_order(self, client):
        gw, clock = make_gateway(client, trace_lines(6, step_ms=2000))
        client.down = True
        for _ in range(3):
            gw.tick()
            clock.advance(2000)
        client.down = False
        assert client.get_history(HISTORY) == []
        for _ in range(3):
            gw.tick()
            clock.advance(2000)
        seqs = history_seqs(client)
        assert seqs == sorted(seqs)
        assert set(seqs) == {0, 1, 2, 3, 4, 5}

    def test_bounded_buffer_drops_oldest(self, client):
        gw, clock = make_gateway(client, trace_lines(3, step_ms=2000),
                                 capacity=2)
        client.down = True
        for _ in range(3):
            gw.tick()
            clock.advance(2000)
        assert gw.dropped == 1
        assert [r["seq"] for r in gw.buffer] == [1, 2]
        client.down = False
        gw.flush()
        assert history_seqs(client) == [1, 2]

    def test_full_buffer_drops_nothing_when_store_recovers(self, client):
        gw, clock = make_gateway(client, trace_lines(3, step_ms=2000),
                                 capacity=2)
        client.down = True
        for _ in range(2):
            gw.tick()
            clock.advance(2000)
        assert len(gw.buffer) == 2
        client.down = False
        gw.tick()
        assert gw.dropped == 0 and not gw.buffer
        assert history_seqs(client) == [0, 1, 2]

    def test_failed_latest_patch_does_not_repost(self, client):
        # a refused alarm ack, the gateway's one PATCH, is sent again on the
        # next tick, which delivers the alarm again; pushes go on meanwhile
        client.store.patch(COMMANDS, {"alarm": 1, "issuedTs": 0})
        client.refuse["patch"] = 1
        gw, clock = make_gateway(client, trace_lines(3, step_ms=2000))
        for _ in range(3):
            gw.tick()
            clock.advance(2000)
        assert history_seqs(client) == [0, 1, 2]
        assert [e["kind"] for e in gw.alarm_events] == ["ALARM_TRIGGERED"] * 2
        assert client.get(COMMANDS) == {"alarm": 0, "issuedTs": 0,
                                        "ackTs": 2000}

    def test_trimmed_record_already_posted_is_not_dropped(self, client):
        # a record whose reply was lost is trimmed, unsure, in an outage:
        # it counts as dropped, and costs the next push no read-back
        gw, clock = make_gateway(client, trace_lines(3, step_ms=2000),
                                 capacity=1)
        client.lose_reply["post"] = 1
        gw.tick()
        client.down = True
        clock.advance(2000)
        gw.tick()
        assert [r["seq"] for r in gw.buffer] == [1]
        assert gw.dropped == 1
        client.down = False
        client.calls.clear()
        clock.advance(2000)
        gw.tick()
        assert client.calls == [("post", HISTORY, LATEST)] * 2 + [
            ("get", COMMANDS, None)]
        assert history_seqs(client) == [0, 1, 2]

    def test_one_store_write_per_record(self, client):
        gw, clock = make_gateway(client, trace_lines(3, step_ms=2000))
        for _ in range(3):
            gw.tick()
            clock.advance(2000)
        # one write and the command poll per tick; a push that did not fail
        # reads nothing back
        assert client.calls == [("post", HISTORY, LATEST),
                                ("get", COMMANDS, None)] * 3
        assert history_seqs(client) == [0, 1, 2]
        assert client.get(LATEST) == client.get_history(HISTORY)[-1].doc

    def test_failed_post_is_sent_again_and_lands_once(self, client):
        client.refuse["post"] = 1
        gw, clock = make_gateway(client, trace_lines(3, step_ms=2000))
        gw.tick()
        assert client.get_history(HISTORY) == []
        assert client.get(LATEST) is None
        for _ in range(2):
            clock.advance(2000)
            gw.tick()
        assert history_seqs(client) == [0, 1, 2]
        assert client.get(LATEST)["seq"] == 2
        assert gw.dropped == 0 and not gw.buffer

    def test_lost_reply_settled_once_the_store_is_back(self, client):
        gw, clock = make_gateway(client, trace_lines(7))
        gw.tick()
        client.lose_reply["post"] = 1
        clock.advance(2000)
        gw.tick()
        client.down = True
        client.calls.clear()
        clock.advance(2000)
        gw.tick()
        # the read-back is the one push request of a tick in the outage;
        # the record stays buffered behind it
        assert client.calls == [("get", LATEST, None), ("get", COMMANDS, None)]
        assert [r["seq"] for r in gw.buffer] == [2, 4]
        client.down = False
        for _ in range(2):
            clock.advance(2000)
            gw.tick()
        assert history_seqs(client) == [0, 2, 4, 6]
        assert client.get(LATEST) == client.get_history(HISTORY)[-1].doc
        assert gw.dropped == 0 and not gw.buffer

    @pytest.mark.parametrize("flag", ["sos", "water"])
    def test_event_on_an_earlier_frame_of_the_window_is_pushed(
            self, client, flag):
        # 1 Hz frames, 2 s period: the flag is on frame 1, and the tick at
        # 2 s pushes frame 2, the newest of frames 1 and 2
        lines = trace_lines(5, step_ms=1000, **{f"{flag}_at": 1})
        gw, clock = make_gateway(client, lines)
        for _ in range(3):
            gw.tick()
            clock.advance(2000)
        history = client.get_history(HISTORY)
        assert [(e.doc["seq"], e.doc[flag]) for e in history] == \
            [(0, 0), (2, 1), (4, 0)]

    def test_run_stops_when_trace_exhausted(self, client):
        gw, clock = make_gateway(client, trace_lines(3, step_ms=1000))
        gw.run()
        assert gw.pushed_history >= 1
        assert gw.source.exhausted

    def test_run_on_exhausted_trace_waits_for_the_store(self, client):
        # frames at 0, 1 and 2 s; the ticks at 0 and 2 s read all three
        gw, clock = make_gateway(client, trace_lines(3, step_ms=1000))
        client.down = True
        sleeps = []

        def sleep_ms(ms):
            sleeps.append(ms)
            assert len(sleeps) < 20, "run did not return"
            clock.advance(ms)
            client.down = len(sleeps) < 5

        clock.sleep_ms = sleep_ms
        gw.run()
        # the source ran out at the second tick; the next three found the
        # store down, and the sixth drained the buffer
        assert sleeps == [2000] * 5
        assert history_seqs(client) == [0, 2]
        assert not gw.buffer and gw.dropped == 0


class TestPushLoopOverHttp(TestPushLoop):
    kind = "http"


class TestAlarmAck(OverStore):
    def test_ack_resets_flag_and_logs_event(self, client):
        gw, clock = make_gateway(client, trace_lines(1))
        client.store.patch(COMMANDS, {"alarm": 1, "issuedTs": 0})
        gw.tick()
        assert len(gw.alarm_events) == 1
        assert gw.alarm_events[0]["kind"] == "ALARM_TRIGGERED"
        assert client.get(COMMANDS)["alarm"] == 0

    def test_no_event_without_command(self, client):
        gw, clock = make_gateway(client, trace_lines(1))
        gw.tick()
        assert gw.alarm_events == []

    def test_event_log_file(self, tmp_path, client):
        clock = VirtualClock(0)
        client.store.patch(COMMANDS, {"alarm": 1})
        log = tmp_path / "events.jsonl"
        gw = Gateway(TraceSource([], 0), client, GatewayConfig(),
                     clock=clock, sinks=[NotificationLog(str(log))])
        gw.tick()
        # the bytes of the gateway's former hand-built event line
        assert log.read_bytes() == (
            b'{"ts": 0, "device": "BAG1", "kind": "ALARM_TRIGGERED", '
            b'"severity": "INFO", "activity": null, '
            b'"message": "find-my-bag alarm sounded"}\n')
        assert gw.alarm_events == [json.loads(log.read_text())]


class TestAlarmAckOverHttp(TestAlarmAck):
    kind = "http"
