"""Walkthrough: the whole pipeline in one process on a virtual clock.

Simulated device -> gateway -> document store (real HTTP) -> alert
service, including the find-my-bag alarm round trip. The virtual clock
makes the run instant and deterministic.

Run with:  python3 demos/full_pipeline.py
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from smartbag import alerts, dataset, frames, nn
from smartbag.clock import VirtualClock
from smartbag.gateway import Gateway, GatewayConfig
from smartbag.store import HttpStoreClient, Store, StoreServer

workdir = Path(tempfile.mkdtemp(prefix="smartbag_demo_"))

# 1. Train a model to deploy into the alert service.
data = dataset.generate(dataset.default_profiles(), n=1743, seed=0)
train_set, test_set = dataset.split(data, 0.9, seed=0)
model, report = nn.train(train_set, nn.ModelSpec(), nn.Hyperparams(),
                         test_set=test_set)
model_path = workdir / "model.bagm"
model_path.write_bytes(nn.export_model(model, nn.ModelSpec(), data.classes))
print(f"model trained (test accuracy {report.test_accuracy:.3f})")

# 2. Stand up the store over real HTTP, WAL-backed.
store = Store(log_path=workdir / "store.wal")
server = StoreServer(store).start()
print(f"store at {server.base_url}")

# 3. A scripted frame source: normal walking, then an SOS press.
sim = frames.SimulatorSource(dataset.default_profiles(), seed=4,
                             interval_ms=1000)
tape = sim.poll(0) + sim.poll(7000)
# put the SOS on a frame that lands exactly on a 2 s gateway tick, so it
# is the newest frame in its push window and reaches the store
tape[6] = replace(tape[6], sos=1)
trace_path = workdir / "trace.txt"
frames.write_trace(tape, trace_path)

# 4. Gateway and alert service share one virtual clock.
clock = VirtualClock()
gateway = Gateway(frames.TraceSource.from_file(trace_path, start_ms=0),
                  HttpStoreClient(server.base_url),
                  GatewayConfig(period_ms=2000), clock=clock)
log = alerts.NotificationLog(workdir / "notifications.jsonl")
service = alerts.AlertService(HttpStoreClient(server.base_url), model_path,
                              alerts.AlertServiceConfig(),
                              cursor_path=workdir / "alerts.cursor",
                              sinks=[log], clock=clock)

# 5. Interleave: the gateway pushes every 2 s, the service polls every 1 s.
for step in range(9):
    if clock.now_ms() % 2000 == 0:
        gateway.tick()
    service.poll_once()
    clock.advance(1000)
print(f"gateway pushed {gateway.pushed_history} records")
for event in log.read():
    print(f"  alert: {event['kind']:8s} {event['severity']:9s} "
          f"activity={event['activity']}")

# 6. Find-my-bag: the app requests the alarm, the gateway acknowledges.
service.trigger_alarm()
gateway.tick()
print("alarm events:", [e["kind"] for e in gateway.alarm_events])
print("alarm flag after ack:",
      store.get("bags/BAG1/commands")["alarm"])

server.stop()
store.close()
print(f"artifacts in {workdir}")
