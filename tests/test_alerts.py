import json

import numpy as np
import pytest

from smartbag import alerts, nn
from smartbag.alerts import (
    ALARM_TTL_MS, AlertEvent, AlertRuleSet, AlertService, AlertServiceConfig,
    NotificationLog, RecordSchemaError, WebhookSink, classify_record,
    eval_rules, record_features,
)
from smartbag.clock import VirtualClock
from smartbag.dataset import FEATURE_NAMES, default_profiles
from smartbag.frames import SensorFrame
from smartbag.gateway import to_record
from smartbag.store import HttpStoreClient, Store, StoreServer

from conftest import OverStore
from test_frames import random_frame


def record_from_features(features, device="BAG1", ts=0, sos=0):
    values = dict(zip(FEATURE_NAMES, features))
    frame = SensorFrame(device_id=device, ts=ts,
                        water=int(values.pop("water")),
                        sos=sos,
                        humidity=min(max(values.pop("humidity"), 0.0), 100.0),
                        **values)
    return to_record(frame, ts)


class TestRecordFeatures:
    def test_canonical_order(self):
        features = np.arange(13, dtype=float)
        features[-1] = 1.0  # water is binary
        record = record_from_features(features)
        assert np.array_equal(record_features(record), features)

    def test_features_of_a_record_are_the_frame_readings(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            frame = random_frame(rng)
            expected = [getattr(frame, name) for name in FEATURE_NAMES]
            assert record_features(to_record(frame, 0)).tolist() == expected

    def test_missing_field(self):
        record = record_from_features(np.zeros(13))
        del record["imu"]["az"]
        with pytest.raises(RecordSchemaError, match="imu.az"):
            record_features(record)

    def test_non_numeric_field(self):
        record = record_from_features(np.zeros(13))
        record["gas"]["mq2"] = "high"
        with pytest.raises(RecordSchemaError):
            record_features(record)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf"), 10 ** 400],
                             ids=["nan", "inf", "-inf", "huge-int"])
    def test_non_finite_field(self, value):
        record = record_from_features(np.zeros(13))
        record["env"]["temp"] = value
        with pytest.raises(RecordSchemaError, match="env.temp"):
            record_features(record)


class TestClassifyRecord:
    def test_zero_model_first_class(self):
        from smartbag.dataset import Normalizer

        sizes = (13, 4, 5)
        model = nn.ModelParams(
            [np.zeros((o, i)) for i, o in zip(sizes[:-1], sizes[1:])],
            [np.zeros(o) for o in sizes[1:]],
            Normalizer(np.zeros(13), np.ones(13)))
        vocab = ("Idle", "Walking", "Running", "Climbing", "Falling")
        activity, probs = classify_record(model, vocab,
                                          record_from_features(np.zeros(13)))
        assert activity == "Idle"
        assert np.allclose(probs, 0.2)

    def test_walking_mean_classified(self, trained_model_blob):
        model, _, vocab = nn.import_model(trained_model_blob)
        walking = default_profiles()[1]
        record = record_from_features(walking.mean)
        activity, _ = classify_record(model, vocab, record)
        assert activity == "Walking"

    def test_identical_records_identical_result(self, trained_model_blob):
        model, _, vocab = nn.import_model(trained_model_blob)
        record = record_from_features(default_profiles()[2].mean)
        a = classify_record(model, vocab, record)
        b = classify_record(model, vocab, record)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])


class TestEvalRules:
    def test_sos_event(self):
        record = record_from_features(np.zeros(13), sos=1)
        events = eval_rules(record, "Idle", AlertRuleSet(), {})
        assert len(events) == 1
        assert events[0].kind == "SOS" and events[0].severity == "EMERGENCY"

    def test_gas_boundary_is_quiet(self):
        features = np.zeros(13)
        features[8] = 300.0  # mq2 exactly at threshold
        record = record_from_features(features)
        assert eval_rules(record, "Idle", AlertRuleSet(), {}) == []
        features[8] = 300.0001
        record = record_from_features(features)
        events = eval_rules(record, "Idle", AlertRuleSet(), {})
        assert [e.kind for e in events] == ["GAS"]
        assert events[0].severity == "WARN"

    def test_water_event(self):
        features = np.zeros(13)
        features[-1] = 1.0
        record = record_from_features(features)
        events = eval_rules(record, "Idle", AlertRuleSet(), {})
        assert [e.kind for e in events] == ["WATER"]

    def test_activity_event(self):
        record = record_from_features(np.zeros(13))
        events = eval_rules(record, "Falling", AlertRuleSet(), {})
        assert [e.kind for e in events] == ["ACTIVITY"]
        assert events[0].severity == "EMERGENCY"
        assert events[0].activity == "Falling"

    def test_emission_order_fixed(self):
        features = np.zeros(13)
        features[8] = 999.0
        features[-1] = 1.0
        record = record_from_features(features, sos=1)
        events = eval_rules(record, "Falling", AlertRuleSet(), {})
        assert [e.kind for e in events] == ["SOS", "GAS", "WATER", "ACTIVITY"]

    def test_dedup_window(self):
        features = np.zeros(13)
        features[-1] = 1.0
        state = {}
        rules = AlertRuleSet(dedup_window_ms=30_000)
        first = eval_rules(record_from_features(features, ts=0), "Idle",
                           rules, state)
        second = eval_rules(record_from_features(features, ts=10_000), "Idle",
                            rules, state)
        third = eval_rules(record_from_features(features, ts=40_000), "Idle",
                           rules, state)
        assert len(first) == 1 and second == [] and len(third) == 1

    def test_dedup_is_per_device_and_kind(self):
        features = np.zeros(13)
        features[-1] = 1.0
        state = {}
        rules = AlertRuleSet()
        a = eval_rules(record_from_features(features, device="BAGA"),
                       "Idle", rules, state)
        b = eval_rules(record_from_features(features, device="BAGB"),
                       "Idle", rules, state)
        assert len(a) == 1 and len(b) == 1

    def test_dedup_after_a_clock_step_back(self):
        # a bag clock that steps back never silences an SOS; the window then
        # runs from the stepped-back time
        state, rules = {}, AlertRuleSet(dedup_window_ms=30_000)
        kinds = [[e.kind for e in eval_rules(
            record_from_features(np.zeros(13), ts=ts, sos=1), "Idle", rules,
            state)] for ts in (40_000, 10_000, 39_999, 40_000)]
        assert kinds == [["SOS"], ["SOS"], [], ["SOS"]]
        assert state == {("BAG1", "SOS"): 40_000}

    @pytest.mark.parametrize("ts", ["5", 5.0, True, None, "missing"])
    def test_time_must_be_an_integer(self, ts):
        record = record_from_features(np.zeros(13), sos=1)
        if ts == "missing":
            del record["ts"]
        else:
            record["ts"] = ts
        state = {("BAG1", "SOS"): -10 ** 9}
        with pytest.raises(RecordSchemaError, match="ts"):
            eval_rules(record, "Falling", AlertRuleSet(), state)
        assert state == {("BAG1", "SOS"): -10 ** 9}


@pytest.mark.parametrize("config_kw", [
    {"poll_interval_ms": 0}, {"poll_interval_ms": -1}, {"device_id": "a b"}])
def test_service_config_rejects_bad_values(config_kw):
    # a poll interval <= 0 would busy-poll or crash the clock's sleep, and a
    # device id with a space names no store path
    with pytest.raises(ValueError):
        AlertServiceConfig(**config_kw)


def append(client, record) -> str:
    """Appends a record to the device history past the client, as the
    gateway would; returns its push id."""
    return client.store.append_history("bags/BAG1/history", record)


def make_service(model_file, tmp_path, store=None):
    store = store or Store()
    log = NotificationLog(str(tmp_path / "notifications.jsonl"))
    clock = VirtualClock(0)
    service = AlertService(
        store, model_file,
        AlertServiceConfig(device_id="BAG1"),
        cursor_path=str(tmp_path / "cursor.json"),
        sinks=[log], clock=clock)
    return service, store, log, clock


class TestAlertService(OverStore):
    def test_refuses_model_of_wrong_width(self, narrow_model_file, tmp_path):
        with pytest.raises(nn.ShapeMismatch, match="input width 5"):
            make_service(narrow_model_file, tmp_path)

    def test_sos_in_history_produces_one_notification(self, model_file,
                                                      tmp_path, client):
        service, _, log, _ = make_service(model_file, tmp_path, client)
        idle = default_profiles()[0]
        append(client, record_from_features(idle.mean, sos=1))
        append(client, record_from_features(idle.mean))
        assert service.poll_once() == 2
        sos_lines = [e for e in log.read() if e["kind"] == "SOS"]
        assert len(sos_lines) == 1
        assert sos_lines[0]["severity"] == "EMERGENCY"

    def test_activity_written_back(self, model_file, tmp_path, client):
        service, _, log, _ = make_service(model_file, tmp_path, client)
        running = default_profiles()[2]
        append(client, record_from_features(running.mean))
        service.poll_once()
        assert client.get("bags/BAG1/latest")["activity"] == "Running"

    def test_restart_does_not_realert(self, model_file, tmp_path, client):
        service, _, log, _ = make_service(model_file, tmp_path, client)
        idle = default_profiles()[0]
        append(client, record_from_features(idle.mean, sos=1))
        service.poll_once()
        # new service instance, same cursor file
        service2, _, _, _ = make_service(model_file, tmp_path, client)
        assert service2.poll_once() == 0
        assert len([e for e in log.read() if e["kind"] == "SOS"]) == 1

    def test_one_poll_keeps_distinct_presses(self, model_file,
                                             tmp_path, client):
        service, _, log, _ = make_service(model_file, tmp_path, client)
        idle = default_profiles()[0]
        for ts in (3000, 20_000, 43_000):
            append(client, record_from_features(idle.mean, ts=ts, sos=1))
        # the whole backlog is read at one poll time
        assert service.poll_once() == 3
        assert [e["ts"] for e in log.read() if e["kind"] == "SOS"] == \
            [3000, 43_000]

    def test_processing_reads_no_clock(self, model_file, tmp_path, client):
        service, _, log, clock = make_service(model_file, tmp_path, client)

        def now_ms():
            raise AssertionError("the clock was read")

        clock.now_ms = now_ms
        idle = default_profiles()[0]
        for ts in (0, 1000):
            append(client, record_from_features(idle.mean, ts=ts, sos=1))
        assert service.poll_once() == 2
        assert [e["kind"] for e in log.read()] == ["SOS"]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 13: a service whose cursor file is lost notifies "
        "every SOS in the history again"))
    def test_lost_cursor_does_not_realert(self, model_file, tmp_path, client):
        service, _, log, _ = make_service(model_file, tmp_path, client)
        idle = default_profiles()[0]
        for _ in range(3):
            append(client, record_from_features(idle.mean, sos=1))
        assert service.poll_once() == 3
        (tmp_path / "cursor.json").write_text("")
        service2, _, _, _ = make_service(model_file, tmp_path, client)
        service2.poll_once()
        assert len([e for e in log.read() if e["kind"] == "SOS"]) == 1

    def test_record_without_an_integer_time_skipped(self, model_file,
                                                    tmp_path, client):
        service, _, log, _ = make_service(model_file, tmp_path, client)
        idle = default_profiles()[0]
        for ts in ("5", 5.0, True, None, "missing"):
            record = record_from_features(idle.mean, sos=1)
            if ts == "missing":
                del record["ts"]
            else:
                record["ts"] = ts
            append(client, record)
        last = append(client, record_from_features(idle.mean, sos=1))
        assert service.poll_once() == 6
        assert service.skipped == 5
        assert service.cursor == last
        assert [e["kind"] for e in log.read()] == ["SOS"]
        # a skipped record writes no activity back
        assert client.get("bags/BAG1/latest") == {"activity": "Idle"}

    def test_malformed_record_skipped(self, model_file, tmp_path, client):
        service, _, log, _ = make_service(model_file, tmp_path, client)
        append(client, {"bogus": True})
        idle = default_profiles()[0]
        append(client, record_from_features(idle.mean))
        assert service.poll_once() == 2
        assert service.skipped == 1

    def test_polls_past_nan_record(self, model_file, tmp_path, client):
        service, _, log, _ = make_service(model_file, tmp_path, client)
        idle = default_profiles()[0]
        # json.loads accepts NaN, so a stored document can carry one
        bad = record_from_features(idle.mean)
        bad["env"]["temp"] = float("nan")
        append(client, bad)
        last = append(client, record_from_features(idle.mean, sos=1))
        assert service.poll_once() == 2
        assert service.skipped == 1
        assert service.cursor == last
        assert service.poll_once() == 0
        assert [e["kind"] for e in log.read()] == ["SOS"]

    def test_torn_cursor_file_starts_without_cursor(self, model_file,
                                                    tmp_path):
        for torn in ("", '{"cur', "[]", '{"cursor": 7}',
                     '{"cursor": "1", "last": 5}',
                     '{"cursor": "1", "last": null}',
                     '{"cursor": "1", "last": [["BAG1", "SOS"]]}',
                     '{"cursor": "1", "last": [["BAG1", "SOS", 1.5]]}',
                     '{"cursor": "1", "last": [["BAG1", "SOS", true]]}',
                     '{"cursor": "1", "last": [["BAG1", 7, 0]]}',
                     '{"cursor": "1", "last": ["abc"]}'):
            (tmp_path / "cursor.json").write_text(torn)
            service, _, _, _ = make_service(model_file, tmp_path)
            assert service.cursor is None
            assert service.dedup_state == {}

    def test_cursor_file_without_dedup_state_is_read(self, model_file,
                                                     tmp_path, client):
        idle = default_profiles()[0]
        first = append(client, record_from_features(idle.mean))
        last = append(client, record_from_features(idle.mean, ts=9, sos=1))
        # the form written before the dedup state was kept
        (tmp_path / "cursor.json").write_text(json.dumps({"cursor": first}))
        service, _, log, _ = make_service(model_file, tmp_path, client)
        assert (service.cursor, service.dedup_state) == (first, {})
        assert service.poll_once() == 1
        assert [e["ts"] for e in log.read()] == [9]
        assert json.loads((tmp_path / "cursor.json").read_text()) == \
            {"cursor": last, "last": [["BAG1", "SOS", 9]]}

    def test_cursor_file_replaced_whole(self, model_file, tmp_path, client):
        service, _, _, _ = make_service(model_file, tmp_path, client)
        idle = default_profiles()[0]
        last = append(client, record_from_features(idle.mean, ts=7, sos=1))
        service.poll_once()
        assert json.loads((tmp_path / "cursor.json").read_text()) == \
            {"cursor": last, "last": [["BAG1", "SOS", 7]]}
        # no tmp file is left; the notification log is opened at start-up
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["cursor.json", "notifications.jsonl"]

    def test_falling_record_emits_activity_alert(self, model_file,
                                                 tmp_path, client):
        service, _, log, _ = make_service(model_file, tmp_path, client)
        falling = default_profiles()[4]
        append(client, record_from_features(falling.mean))
        service.poll_once()
        kinds = [e["kind"] for e in log.read()]
        assert kinds == ["ACTIVITY"]

    def test_poll_reads_history_in_pages(self, model_file, tmp_path,
                                         monkeypatch):
        monkeypatch.setattr(alerts, "HISTORY_PAGE", 3)
        pages = []

        class PageCountingStore(Store):
            def get_history(self, path, since=None, limit=None):
                pages.append(limit)
                return super().get_history(path, since=since, limit=limit)

        server = StoreServer(PageCountingStore()).start()
        client = HttpStoreClient(server.base_url)
        try:
            service, _, log, _ = make_service(model_file, tmp_path,
                                              store=client)
            idle = default_profiles()[0]
            ids = [server.store.append_history(
                "bags/BAG1/history", record_from_features(idle.mean,
                                                          sos=int(i == 5)))
                for i in range(8)]
            assert service.poll_once() == 8
            assert pages == [3, 3, 3]
            assert [e["kind"] for e in log.read()] == ["SOS"]
            assert service.cursor == ids[-1]
            assert json.loads((tmp_path / "cursor.json").read_text()) == \
                {"cursor": ids[-1], "last": [["BAG1", "SOS", 0]]}
            # nothing new: one short page
            assert service.poll_once() == 0
            assert pages == [3, 3, 3, 3]
        finally:
            client.close()
            server.stop()


class TestAlertServiceOverHttp(TestAlertService):
    kind = "http"
    # these reach no store through `client`
    test_refuses_model_of_wrong_width = None
    test_torn_cursor_file_starts_without_cursor = None
    test_poll_reads_history_in_pages = None


class Stop(Exception):
    pass


# the store down for six polls, up for two, then down again
STORE_DOWN = ([1] * 6 + [0, 0, 1], [2, 4, 8, 16, 32, 32, 1, 1, 2])
STORE_UP = ([0, 0, 0], [1, 1, 1])


@pytest.mark.parametrize("client, down, intervals", [
    ("store", *STORE_DOWN), ("store", *STORE_UP),
    ("http", *STORE_DOWN), ("http", *STORE_UP),
], ids=["store-down", "store-up", "store-down-over-http",
        "store-up-over-http"], indirect=["client"])
def test_run_sleeps_once_per_poll(model_file, tmp_path, client, down,
                                  intervals):
    """One interval after a poll, min(2**k, 32) after k failed polls in a
    row; stopped by a clock whose sleep raises after the last poll."""
    service, _, _, _ = make_service(model_file, tmp_path, client)
    client.down = bool(down[0])
    sleeps = []

    def sleep_ms(ms):
        sleeps.append(ms)
        if len(sleeps) == len(down):
            raise Stop
        client.down = bool(down[len(sleeps)])

    service.clock.sleep_ms = sleep_ms
    with pytest.raises(Stop):
        service.run()
    interval = service.config.poll_interval_ms
    assert sleeps == [interval * n for n in intervals]


class TestAlarm(OverStore):
    def test_trigger_then_ack(self, model_file, tmp_path, client):
        service, _, log, clock = make_service(model_file, tmp_path, client)
        issued = service.trigger_alarm()
        assert service.outstanding_alarm == issued
        assert client.get("bags/BAG1/commands")["alarm"] == 1
        # gateway-side ack
        client.store.patch("bags/BAG1/commands", {"alarm": 0, "ackTs": 5})
        service.poll_once()
        assert service.outstanding_alarm is None
        assert "ALARM_TRIGGERED" not in [e["kind"] for e in log.read()]

    def test_double_trigger_single_outstanding(self, model_file,
                                               tmp_path, client):
        service, _, _, clock = make_service(model_file, tmp_path, client)
        first = service.trigger_alarm()
        clock.advance(10)
        second = service.trigger_alarm()
        assert first == second

    def test_ttl_warn(self, model_file, tmp_path, client):
        service, _, log, clock = make_service(model_file, tmp_path, client)
        service.trigger_alarm()
        clock.advance(ALARM_TTL_MS - 1)
        service.poll_once()
        assert log.read() == []
        clock.advance(1)
        service.poll_once()
        events = log.read()
        assert [e["kind"] for e in events] == ["ALARM_TRIGGERED"]
        assert events[0]["severity"] == "WARN"
        assert service.outstanding_alarm is None


class TestAlarmOverHttp(TestAlarm):
    kind = "http"


class WaitLog(VirtualClock):
    """A virtual clock that keeps each wait it is asked for."""

    def __init__(self):
        super().__init__()
        self.waits = []

    def sleep_ms(self, ms):
        self.waits.append(ms)
        super().sleep_ms(ms)


class TestWebhook:
    # counting_server hangs up on every request until its status is set

    def test_retries_then_gives_up(self, counting_server):
        clock = WaitLog()
        sink = WebhookSink(counting_server.url + "/hook", clock=clock)
        sink.deliver(AlertEvent("SOS", "EMERGENCY", "BAG1", 0, "test"))
        sink.close()
        assert len(counting_server.requests) == 3
        assert clock.waits == [500, 1000]  # backs off while unreachable

    # the waits before each retry: Retry-After in seconds up to a cap, or
    # else a backoff that doubles; no wait after the last try
    @pytest.mark.parametrize("status, retry_after, waits", [
        pytest.param(400, None, [], id="400-1"),
        pytest.param(404, "1", [], id="404-1"),
        pytest.param(408, None, [500, 1000], id="408-3"),
        pytest.param(429, "1", [1000, 1000], id="429-3"),
        pytest.param(500, "Wed, 21 Oct 2026 07:28:00 GMT", [500, 1000],
                     id="500-3"),
        pytest.param(503, "3600", [2000, 2000], id="503-3"),
        pytest.param(503, "9" * 5000, [2000, 2000], id="503-3-long-wait"),
    ])
    def test_retries_only_what_can_succeed(self, counting_server, caplog,
                                           status, retry_after, waits):
        counting_server.status = status
        counting_server.retry_after = retry_after
        clock = WaitLog()
        sink = WebhookSink(counting_server.url + "/hook", clock=clock)
        with caplog.at_level("WARNING", logger="smartbag.alerts"):
            sink.deliver(AlertEvent("SOS", "EMERGENCY", "BAG1", 0, "test"))
        sink.close()
        tries = len(waits) + 1
        assert len(counting_server.requests) == tries
        assert clock.waits == waits
        [warning] = caplog.records
        if tries == 1:
            assert f"HTTP {status}" in warning.getMessage()

    def test_delivers_once_to_the_hook_url(self, counting_server):
        counting_server.status = 204
        sink = WebhookSink(counting_server.url + "/hooks/a b?key=x%2Fy")
        event = AlertEvent("SOS", "EMERGENCY", "BAG1", 0, "test")
        sink.deliver(event)
        sink.close()
        [(method, path, body)] = counting_server.requests
        assert (method, path) == ("POST", "/hooks/a%20b?key=x%2Fy")
        assert json.loads(body) == event.to_json()

    def test_log_still_written_when_webhook_down(self, model_file, tmp_path,
                                                 counting_server):
        store = Store()
        log = NotificationLog(str(tmp_path / "n.jsonl"))
        clock = VirtualClock(0)
        hook = WebhookSink(counting_server.url + "/h", clock=clock)
        service = AlertService(
            store, model_file, AlertServiceConfig(device_id="BAG1"),
            cursor_path=None, sinks=[log, hook], clock=clock)
        idle = default_profiles()[0]
        store.append_history("bags/BAG1/history",
                             record_from_features(idle.mean, sos=1))
        service.poll_once()
        hook.close()
        assert [e["kind"] for e in log.read()] == ["SOS"]
        assert len(counting_server.requests) == 3


class TestNotificationLogFormat:
    def test_one_json_object_per_line(self, model_file, tmp_path):
        service, store, log, _ = make_service(model_file, tmp_path)
        idle = default_profiles()[0]
        store.append_history("bags/BAG1/history",
                             record_from_features(idle.mean, sos=1))
        service.poll_once()
        lines = (tmp_path / "notifications.jsonl").read_text().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert set(entry) == {"ts", "device", "kind", "severity", "activity",
                              "message"}

    def test_torn_line_is_not_glued_to_the_next_event(self, tmp_path):
        # a crash in the middle of an append leaves half a line
        path = tmp_path / "n.jsonl"
        first = AlertEvent("SOS", "EMERGENCY", "BAG1", 1, "first")
        second = AlertEvent("WATER", "WARN", "BAG1", 2, "second")
        NotificationLog(str(path)).deliver(first)
        torn = json.dumps(second.to_json()).encode()
        with open(path, "ab") as fh:
            fh.write(torn[:len(torn) // 2])
        assert NotificationLog(str(path)).read() == [first.to_json()]
        NotificationLog(str(path)).deliver(second)
        assert NotificationLog(str(path)).read() == [first.to_json(),
                                                      second.to_json()]
