"""Acceptance gate: one test per release criterion, each printing a
PASS line with its measured numbers when it holds."""

import time

import numpy as np
import pytest

from smartbag import nn
from smartbag.alerts import (
    AlertService, AlertServiceConfig, NotificationLog,
)
from smartbag.cli import main
from smartbag.clock import VirtualClock
from smartbag.dataset import default_profiles, generate, split
from smartbag.frames import (
    FrameError, SensorFrame, TraceSource, encode_frame, parse_frame,
)
from smartbag.gateway import Gateway, GatewayConfig
from smartbag.store import HttpStoreClient, Store, StoreServer

from test_frames import random_frame
from test_nn import (
    empty_grads, finite_difference_grads, make_params, max_rel_error,
)


_capman = None


@pytest.fixture(autouse=True)
def _live_output(request):
    """Let PASS lines through even when pytest captures stdout."""
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")
    yield


def report(name, detail=""):
    line = f"\nACCEPTANCE PASS: {name} {detail}".rstrip()
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line)


def test_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        depth = int(rng.integers(3, 6))  # <=5 layers
        sizes = [int(rng.integers(2, 9)) for _ in range(depth)]
        params = make_params(sizes, rng)
        m = int(rng.integers(1, 9))
        x = rng.normal(size=(m, sizes[0]))
        y = np.eye(sizes[-1])[rng.integers(0, sizes[-1], size=m)]
        lam = float(rng.choice([0.0, 0.5]))
        analytic = empty_grads(params)
        nn._backward_into(params, x, y, lam, *analytic)
        numeric = finite_difference_grads(params, x, y, lam)
        worst = max(worst, max_rel_error(analytic, numeric))
    elapsed = time.monotonic() - start
    assert worst <= 1e-5
    assert elapsed < 10.0
    report("gradient correctness",
           f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_softmax_relu_properties():
    rng = np.random.default_rng(7)
    for _ in range(500):
        z = rng.normal(0, rng.uniform(0.1, 100), size=rng.integers(1, 40))
        out = nn._softmax_inplace(z.copy())
        assert abs(out.sum() - 1.0) <= 1e-12
        shift = rng.normal(0, 200)
        assert np.all(np.abs(nn._softmax_inplace(z + shift) - out) <= 1e-12)
        r = nn._relu_inplace(z.copy())
        assert np.array_equal(nn._relu_inplace(r.copy()), r)
    report("softmax/relu properties", "(500 random vectors, zero failures)")


def test_scaled_accuracy_reproduction():
    start = time.monotonic()
    data = generate(default_profiles(), 1743, seed=0)
    train_set, test_set = split(data, 0.9, seed=0)
    _, rep = nn.train(train_set, nn.ModelSpec(), nn.Hyperparams(),
                      test_set=test_set)
    elapsed = time.monotonic() - start
    recalls = rep.confusion.diagonal() / rep.confusion.sum(axis=1)
    assert rep.test_accuracy >= 0.95
    assert np.all(recalls >= 0.90)
    assert elapsed < 60.0
    report("scaled accuracy reproduction",
           f"(test acc {rep.test_accuracy:.4f}, min recall "
           f"{recalls.min():.3f}, {elapsed:.1f}s)")


def test_training_determinism(tmp_path):
    data_csv = tmp_path / "d.csv"
    assert main(["gen", "--n", "1743", "--seed", "0",
                 "--out", str(data_csv)]) == 0
    blobs = []
    for name in ("a.bagm", "b.bagm"):
        out = tmp_path / name
        assert main(["train", "--data", str(data_csv), "--seed", "0",
                     "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    report("training determinism",
           f"(two runs, {len(blobs[0])} identical bytes)")


def test_model_round_trip(trained_model_blob):
    model, spec, vocab = nn.import_model(trained_model_blob)
    assert nn.export_model(model, spec, vocab) == trained_model_blob
    model2, _, _ = nn.import_model(nn.export_model(model, spec, vocab))
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.normal(0, 30, size=13)
        c1, p1 = nn.predict(model, x)
        c2, p2 = nn.predict(model2, x)
        assert c1 == c2 and np.array_equal(p1, p2)
    report("model round trip", "(byte-identical, 100 identical predictions)")


def test_protocol_round_trip_and_fuzz():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        frame = random_frame(rng)
        assert parse_frame(encode_frame(frame)) == frame
    crashes = 0
    for _ in range(10_000):
        blob = bytes(rng.integers(0, 256, size=rng.integers(0, 100)))
        try:
            parse_frame(blob)
        except FrameError:
            pass
        except Exception:
            crashes += 1
    assert crashes == 0
    rejected = 0
    trials = 500
    for _ in range(trials):
        line = bytearray(encode_frame(random_frame(rng)))
        star = bytes(line).rfind(b"*")
        pos = int(rng.integers(1, star))
        line[pos] ^= 1 << int(rng.integers(0, 8))
        try:
            parse_frame(bytes(line))
        except FrameError:
            rejected += 1
    assert rejected == trials
    report("protocol round trip and fuzz",
           f"(10k round trips, 10k fuzz lines, {trials}/{trials} "
           "bit flips rejected)")


def random_ops(rng, n):
    ops = []
    for _ in range(n):
        path = f"bags/dev{rng.integers(0, 3)}/{rng.choice(['latest', 'state'])}"
        doc = {f"k{rng.integers(0, 5)}": int(rng.integers(0, 100)),
               "nested": {f"x{rng.integers(0, 3)}": int(rng.integers(0, 10))}}
        if rng.random() < 0.5:
            ops.append(("patch", path, doc, None))
        else:
            # half the appends also merge into a document, as a push does
            latest = path if rng.random() < 0.5 else None
            ops.append(("append", f"bags/dev{rng.integers(0, 3)}/history",
                        doc, latest))
    return ops


def apply_ops(store, ops):
    for op, path, doc, latest in ops:
        if op == "patch":
            store.patch(path, doc)
        else:
            store.append_history(path, doc, latest=latest)


def test_store_durability(tmp_path, open_store):
    rng = np.random.default_rng(123)
    ops = random_ops(rng, 1000)
    log = tmp_path / "store.wal"
    durable = open_store(log)
    oracle = Store()
    apply_ops(durable, ops)
    apply_ops(oracle, ops)
    # kill without close, then restart from the log
    replayed = open_store(log)
    assert replayed.docs == oracle.docs
    assert {p: [e.doc for e in v] for p, v in replayed.history.items()} == \
        {p: [e.doc for e in v] for p, v in oracle.history.items()}
    replayed.close()

    truncated = log.read_bytes()[:-5]
    (tmp_path / "trunc.wal").write_bytes(truncated)
    prefix_store = open_store(tmp_path / "trunc.wal")
    total = sum(len(v) for v in prefix_store.history.values())
    oracle_total = sum(len(v) for v in oracle.history.values())
    assert total in (oracle_total, oracle_total - 1)
    report("store durability", "(1000 ops replayed == oracle, "
           "truncated tail -> prefix)")


def sos_trace_lines():
    profiles = default_profiles()
    idle = profiles[0].mean
    lines = []
    for i in range(5):
        values = dict(zip(
            ("ax", "ay", "az", "yaw", "pitch", "roll", "load_left",
             "load_right", "mq2", "mq135", "temp", "humidity"), idle[:12]))
        frame = SensorFrame(device_id="BAG1", seq=i, ts=i * 1000,
                            water=0, sos=1 if i == 2 else 0, **values)
        lines.append(encode_frame(frame))
    return lines


def test_end_to_end_sos_latency(model_file, tmp_path):
    start = time.monotonic()
    server = StoreServer(Store()).start()
    gateway_client = HttpStoreClient(server.base_url)
    service_client = HttpStoreClient(server.base_url)
    try:
        clock = VirtualClock(0)
        gateway = Gateway(
            TraceSource(sos_trace_lines(), start_ms=0), gateway_client,
            GatewayConfig(device_id="BAG1", period_ms=2000), clock=clock)
        log = NotificationLog(str(tmp_path / "n.jsonl"))
        service = AlertService(
            service_client, model_file,
            AlertServiceConfig(device_id="BAG1", poll_interval_ms=1000),
            cursor_path=str(tmp_path / "cursor.json"),
            sinks=[log], clock=clock)
        # run the virtual stack: the SOS frame (ts=2000) arrives on the
        # second tick; one poll interval later the alert must be out
        sos_seen_at = None
        for _ in range(5):
            gateway.tick()
            clock.advance(1000)
            service.poll_once()
            events = [e for e in log.read() if e["kind"] == "SOS"]
            if events and sos_seen_at is None:
                sos_seen_at = clock.now_ms()
            clock.advance(1000)
        events = [e for e in log.read() if e["kind"] == "SOS"]
        assert len(events) == 1
        assert events[0]["severity"] == "EMERGENCY"
        # SOS frame injected at virtual t=2000; budget is one push period
        # (2000) + one poll interval (1000)
        assert sos_seen_at is not None and sos_seen_at <= 2000 + 2000 + 1000
        latest = service.store.get("bags/BAG1/latest")
        assert "activity" in latest
    finally:
        gateway_client.close()
        service_client.close()
        server.stop()
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report("end-to-end SOS latency",
           f"(1 SOS event at virtual t={sos_seen_at}ms, {elapsed:.1f}s wall)")


def test_alarm_loop(tmp_path):
    server = StoreServer(Store()).start()
    client = HttpStoreClient(server.base_url)
    try:
        assert main(["alarm", "BAG1", "--store", server.base_url]) == 0
        clock = VirtualClock(0)
        gateway = Gateway(
            TraceSource([], start_ms=0), client,
            GatewayConfig(device_id="BAG1"), clock=clock)
        gateway.tick()
        gateway.tick()  # second tick must not re-fire
        triggered = [e for e in gateway.alarm_events
                     if e["kind"] == "ALARM_TRIGGERED"]
        assert len(triggered) == 1
        assert server.store.get("bags/BAG1/commands")["alarm"] == 0
    finally:
        client.close()
        server.stop()
    report("alarm loop", "(one ALARM_TRIGGERED event, flag reset to 0)")
