import json

import numpy as np
import pytest

from smartbag import nn
from smartbag.alerts import (
    ALARM_TTL_MS, AlertEvent, AlertRuleSet, AlertService, AlertServiceConfig,
    NotificationLog, RecordSchemaError, WebhookSink, classify_record,
    eval_rules, record_features,
)
from smartbag.clock import VirtualClock
from smartbag.dataset import FEATURE_NAMES, default_profiles
from smartbag.frames import SensorFrame
from smartbag.gateway import to_record
from smartbag.store import Store

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
        events = eval_rules(record, "Idle", AlertRuleSet(), {}, now_ms=0)
        assert len(events) == 1
        assert events[0].kind == "SOS" and events[0].severity == "EMERGENCY"

    def test_gas_boundary_is_quiet(self):
        features = np.zeros(13)
        features[8] = 300.0  # mq2 exactly at threshold
        record = record_from_features(features)
        assert eval_rules(record, "Idle", AlertRuleSet(), {}, 0) == []
        features[8] = 300.0001
        record = record_from_features(features)
        events = eval_rules(record, "Idle", AlertRuleSet(), {}, 0)
        assert [e.kind for e in events] == ["GAS"]
        assert events[0].severity == "WARN"

    def test_water_event(self):
        features = np.zeros(13)
        features[-1] = 1.0
        record = record_from_features(features)
        events = eval_rules(record, "Idle", AlertRuleSet(), {}, 0)
        assert [e.kind for e in events] == ["WATER"]

    def test_activity_event(self):
        record = record_from_features(np.zeros(13))
        events = eval_rules(record, "Falling", AlertRuleSet(), {}, 0)
        assert [e.kind for e in events] == ["ACTIVITY"]
        assert events[0].severity == "EMERGENCY"
        assert events[0].activity == "Falling"

    def test_emission_order_fixed(self):
        features = np.zeros(13)
        features[8] = 999.0
        features[-1] = 1.0
        record = record_from_features(features, sos=1)
        events = eval_rules(record, "Falling", AlertRuleSet(), {}, 0)
        assert [e.kind for e in events] == ["SOS", "GAS", "WATER", "ACTIVITY"]

    def test_dedup_window(self):
        features = np.zeros(13)
        features[-1] = 1.0
        state = {}
        rules = AlertRuleSet(dedup_window_ms=30_000)
        first = eval_rules(record_from_features(features), "Idle", rules,
                           state, now_ms=0)
        second = eval_rules(record_from_features(features), "Idle", rules,
                            state, now_ms=10_000)
        third = eval_rules(record_from_features(features), "Idle", rules,
                           state, now_ms=40_000)
        assert len(first) == 1 and second == [] and len(third) == 1

    def test_dedup_is_per_device_and_kind(self):
        features = np.zeros(13)
        features[-1] = 1.0
        state = {}
        rules = AlertRuleSet()
        a = eval_rules(record_from_features(features, device="BAGA"),
                       "Idle", rules, state, 0)
        b = eval_rules(record_from_features(features, device="BAGB"),
                       "Idle", rules, state, 0)
        assert len(a) == 1 and len(b) == 1


@pytest.mark.parametrize("config_kw", [
    {"poll_interval_ms": 0}, {"poll_interval_ms": -1}])
def test_service_config_rejects_bad_values(config_kw):
    # a poll interval <= 0 would busy-poll or crash the clock's sleep
    with pytest.raises(ValueError):
        AlertServiceConfig(**config_kw)


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


class TestAlertService:
    def test_refuses_model_of_wrong_width(self, narrow_model_file, tmp_path):
        with pytest.raises(nn.ShapeMismatch, match="input width 5"):
            make_service(narrow_model_file, tmp_path)

    def test_sos_in_history_produces_one_notification(self, model_file,
                                                      tmp_path):
        service, store, log, _ = make_service(model_file, tmp_path)
        idle = default_profiles()[0]
        store.append_history("bags/BAG1/history",
                             record_from_features(idle.mean, sos=1))
        store.append_history("bags/BAG1/history",
                             record_from_features(idle.mean))
        assert service.poll_once() == 2
        sos_lines = [e for e in log.read() if e["kind"] == "SOS"]
        assert len(sos_lines) == 1
        assert sos_lines[0]["severity"] == "EMERGENCY"

    def test_activity_written_back(self, model_file, tmp_path):
        service, store, log, _ = make_service(model_file, tmp_path)
        running = default_profiles()[2]
        store.append_history("bags/BAG1/history",
                             record_from_features(running.mean))
        service.poll_once()
        assert store.get("bags/BAG1/latest")["activity"] == "Running"

    def test_restart_does_not_realert(self, model_file, tmp_path):
        service, store, log, _ = make_service(model_file, tmp_path)
        idle = default_profiles()[0]
        store.append_history("bags/BAG1/history",
                             record_from_features(idle.mean, sos=1))
        service.poll_once()
        # new service instance, same cursor file
        service2, _, _, _ = make_service(model_file, tmp_path, store=store)
        assert service2.poll_once() == 0
        assert len([e for e in log.read() if e["kind"] == "SOS"]) == 1

    def test_malformed_record_skipped(self, model_file, tmp_path):
        service, store, log, _ = make_service(model_file, tmp_path)
        store.append_history("bags/BAG1/history", {"bogus": True})
        idle = default_profiles()[0]
        store.append_history("bags/BAG1/history",
                             record_from_features(idle.mean))
        assert service.poll_once() == 2
        assert service.skipped == 1

    def test_polls_past_nan_record(self, model_file, tmp_path):
        service, store, log, _ = make_service(model_file, tmp_path)
        idle = default_profiles()[0]
        # json.loads accepts NaN, so a stored document can carry one
        bad = record_from_features(idle.mean)
        bad["env"]["temp"] = float("nan")
        store.append_history("bags/BAG1/history", bad)
        last = store.append_history("bags/BAG1/history",
                                    record_from_features(idle.mean, sos=1))
        assert service.poll_once() == 2
        assert service.skipped == 1
        assert service.cursor == last
        assert service.poll_once() == 0
        assert [e["kind"] for e in log.read()] == ["SOS"]

    def test_torn_cursor_file_starts_without_cursor(self, model_file,
                                                    tmp_path):
        for torn in ("", '{"cur', "[]", '{"cursor": 7}'):
            (tmp_path / "cursor.json").write_text(torn)
            service, _, _, _ = make_service(model_file, tmp_path)
            assert service.cursor is None

    def test_cursor_file_replaced_whole(self, model_file, tmp_path):
        service, store, _, _ = make_service(model_file, tmp_path)
        idle = default_profiles()[0]
        last = store.append_history("bags/BAG1/history",
                                    record_from_features(idle.mean))
        service.poll_once()
        assert json.loads((tmp_path / "cursor.json").read_text()) == \
            {"cursor": last}
        assert [p.name for p in tmp_path.iterdir()] == ["cursor.json"]

    def test_falling_record_emits_activity_alert(self, model_file, tmp_path):
        service, store, log, _ = make_service(model_file, tmp_path)
        falling = default_profiles()[4]
        store.append_history("bags/BAG1/history",
                             record_from_features(falling.mean))
        service.poll_once()
        kinds = [e["kind"] for e in log.read()]
        assert kinds == ["ACTIVITY"]


class TestAlarm:
    def test_trigger_then_ack(self, model_file, tmp_path):
        service, store, log, clock = make_service(model_file, tmp_path)
        issued = service.trigger_alarm()
        assert service.outstanding_alarm == issued
        assert store.get("bags/BAG1/commands")["alarm"] == 1
        # gateway-side ack
        store.patch("bags/BAG1/commands", {"alarm": 0, "ackTs": 5})
        service.poll_once()
        assert service.outstanding_alarm is None
        assert "ALARM_TRIGGERED" not in [e["kind"] for e in log.read()]

    def test_double_trigger_single_outstanding(self, model_file, tmp_path):
        service, store, _, clock = make_service(model_file, tmp_path)
        first = service.trigger_alarm()
        clock.advance(10)
        second = service.trigger_alarm()
        assert first == second

    def test_ttl_warn(self, model_file, tmp_path):
        service, store, log, clock = make_service(model_file, tmp_path)
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


class TestWebhook:
    # counting_server hangs up on every request until its status is set

    def test_retries_then_gives_up(self, counting_server):
        sink = WebhookSink(counting_server.url + "/hook")
        sink.deliver(AlertEvent("SOS", "EMERGENCY", "BAG1", 0, "test"))
        sink.http.close()
        assert len(counting_server.requests) == 3

    @pytest.mark.parametrize("status, tries", [
        (400, 1), (404, 1), (408, 3), (429, 3), (500, 3), (503, 3)])
    def test_retries_only_what_can_succeed(self, counting_server, caplog,
                                           status, tries):
        counting_server.status = status
        sink = WebhookSink(counting_server.url + "/hook")
        with caplog.at_level("WARNING", logger="smartbag.alerts"):
            sink.deliver(AlertEvent("SOS", "EMERGENCY", "BAG1", 0, "test"))
        sink.http.close()
        assert len(counting_server.requests) == tries
        [warning] = caplog.records
        if tries == 1:
            assert f"HTTP {status}" in warning.getMessage()

    def test_delivers_once_to_the_hook_url(self, counting_server):
        counting_server.status = 204
        sink = WebhookSink(counting_server.url + "/hooks/a b?key=x%2Fy")
        event = AlertEvent("SOS", "EMERGENCY", "BAG1", 0, "test")
        sink.deliver(event)
        sink.http.close()
        [(method, path, body)] = counting_server.requests
        assert (method, path) == ("POST", "/hooks/a%20b?key=x%2Fy")
        assert json.loads(body) == event.to_json()

    def test_log_still_written_when_webhook_down(self, model_file, tmp_path,
                                                 counting_server):
        store = Store()
        log = NotificationLog(str(tmp_path / "n.jsonl"))
        hook = WebhookSink(counting_server.url + "/h")
        service = AlertService(
            store, model_file, AlertServiceConfig(device_id="BAG1"),
            cursor_path=None, sinks=[log, hook], clock=VirtualClock(0))
        idle = default_profiles()[0]
        store.append_history("bags/BAG1/history",
                             record_from_features(idle.mean, sos=1))
        service.poll_once()
        hook.http.close()
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
