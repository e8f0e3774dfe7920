"""A seeded simulation of the gateway and the alert service under store
faults, run by hypothesis as a state machine.

One VirtualClock drives the chain: a list-backed frame source, a
`Gateway`, a WAL-backed store, and an `AlertService` with its
`NotificationLog` and cursor file. The store is an in-process `Store`, or
a `StoreServer` reached through `HttpStoreClient`; each service reaches it
through its own `FaultyClient`.

The rules:
- a tick draws the frames that arrived in its period, advances the clock
  one period and ticks the gateway;
- a poll draws the history page size and polls the service;
- each draws a fault for its own service's client, cleared after the
  step: the store down, or the next call of a method refused, its reply
  lost, or interrupted once the store applied it. After an interrupt the
  rule does what the CLI does: the gateway pushes what it can of its
  buffer, and the alert service is started again on its cursor file and
  log;
- the store restarts on its WAL, the server on the same port; or the
  alert service restarts.
A frame or a fault drawn as a step of its own would act only at the next
tick or poll of its service; drawn with that call, a fault meets a
buffered record or a new entry far more often in the same examples.

After every step: stored push ids and seqs strictly increase; the
notification log is the `eval_rules` fold over the stored history up to
the service's cursor; the cursor never moves back; and every record the
gateway buffered is still buffered, pushed or trimmed, the oldest first.
At teardown one more frame is pushed and polled without a fault; then the
stored records are the buffered ones less those trimmed unstored,
`latest` is the newest with its class as `activity`, and the cursor is
the last push id.
"""

import contextlib
import os
import shutil
import sys
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, rule,
    run_state_machine_as_test,
)

from smartbag import alerts, nn
from smartbag.alerts import (
    AlertRuleSet, AlertService, NotificationLog, classify_record, eval_rules,
)
from smartbag.clock import VirtualClock
from smartbag.dataset import FEATURE_NAMES, default_profiles
from smartbag.frames import SensorFrame, to_record
from smartbag.gateway import Gateway, GatewayConfig
from smartbag.store import HttpStoreClient, Store, StoreUnavailable

from conftest import FaultyClient, serve

HISTORY, LATEST = "bags/BAG1/history", "bags/BAG1/latest"
PERIOD_MS = 2000
PROFILES = default_profiles()  # Idle through Falling
# a frame: the step from the previous frame's ts (a step back is a bag
# clock set back; 29 999 and 30 000 sit at the edge of the dedup window),
# and its class profile with its SOS and water flags, drawn as one choice:
# hypothesis's own time grows with the choices a step draws
FRAMES = st.tuples(
    st.one_of(st.integers(0, 60_000), st.integers(-60_000, -1),
              st.sampled_from([29_999, 30_000])),
    st.sampled_from([(profile, sos, water) for profile in PROFILES
                     for sos in (0, 1) for water in (0, 1)]))


def faults(*methods):
    """A fault on one of `methods`, or none, as one choice; the first
    fault is the simplest value, which hypothesis draws most."""
    return st.sampled_from([(kind, method) for kind in (
        "down", "refuse", "lose_reply", "interrupt") for method in methods]
        + [None])


class ListSource:
    """A frame source that hands out the frames put in `pending`."""

    def __init__(self):
        self.pending = []

    def poll(self, now_ms):
        frames, self.pending = self.pending, []
        return frames


class ServicesModel(RuleBasedStateMachine):
    def __init__(self, kind, model_file, model):
        super().__init__()
        self.model_file = model_file
        self.model, _, self.vocabulary = model
        self.dir = tempfile.mkdtemp()
        self.wal = os.path.join(self.dir, "store.wal")
        self.clock = VirtualClock(0)
        store = Store(log_path=self.wal, clock=self.clock)
        self.server = None if kind == "store" else serve(store)
        self.clients = {side: FaultyClient(
            store if self.server is None
            else HttpStoreClient(self.server.base_url), store)
            for side in ("gateway", "alerts")}
        self.source = ListSource()
        self.gateway = None  # `start_gateway` draws its capacity
        self.log = NotificationLog(os.path.join(self.dir, "n.jsonl"))
        self.service = self.start_service()
        self.pages = pytest.MonkeyPatch()
        self.ts, self.seq, self.profile = 10 ** 6, 0, PROFILES[0]
        self.sent = []       # each record the gateway buffered, in order
        self.gone = 0        # how many of them left the buffer
        self.unstored = set()  # seqs of those trimmed before they landed
        self.cursor = None   # the furthest cursor the service held
        self.decoded = {}    # entry text -> (document, class)

    def teardown(self):
        try:  # after a failed step, only the clean-up
            if self.gateway is not None and sys.exc_info()[0] is None:
                self.last_round()
        finally:
            self.pages.undo()
            if self.server is None:
                self.store.close()
            else:
                for client in self.clients.values():
                    client.client.close()
                self.server.stop()
            shutil.rmtree(self.dir)

    @property
    def store(self) -> Store:
        return self.clients["gateway"].store

    def start_service(self) -> AlertService:
        return AlertService(self.clients["alerts"], self.model_file,
                            cursor_path=os.path.join(self.dir, "cursor"),
                            sinks=[self.log], clock=self.clock)

    def history(self) -> list:
        """(push id, document, class) of each stored entry; the text of an
        entry is decoded and classified once."""
        out = []
        for entry in self.store.get_history(HISTORY):
            if entry.text not in self.decoded:
                doc = entry.doc
                self.decoded[entry.text] = doc, classify_record(
                    self.model, self.vocabulary, doc)[0]
            out.append((entry.push_id, *self.decoded[entry.text]))
        return out

    @contextlib.contextmanager
    def faulty(self, side, fault):
        """`fault` set on the side's client, and cleared after."""
        client = self.clients[side]
        if fault is not None:
            kind, method = fault
            if kind == "down":
                client.down = True
            else:
                getattr(client, kind)[method] = 1
        try:
            yield
        finally:
            client.down = False
            for counts in (client.refuse, client.lose_reply, client.interrupt):
                counts.clear()

    @initialize(capacity=st.integers(1, 2))
    def start_gateway(self, capacity):
        self.gateway = Gateway(
            self.source, self.clients["gateway"],
            GatewayConfig(period_ms=PERIOD_MS, buffer_capacity=capacity),
            clock=self.clock)

    @rule(frames=st.lists(FRAMES, max_size=2), fault=faults("post", "get"))
    def tick(self, frames, fault):
        for step, (profile, sos, water) in frames:
            self.ts += step
            self.profile = profile
            readings = dict(zip(FEATURE_NAMES, profile.mean.tolist()))
            readings.update(water=water, sos=sos, humidity=min(
                max(readings["humidity"], 0.0), 100.0))
            self.source.pending.append(
                SensorFrame(seq=self.seq, ts=self.ts, **readings))
            self.seq += 1
        self.clock.advance(PERIOD_MS)
        if frames:  # the record the tick buffers, flags latched
            pending = self.source.pending
            record = to_record(pending[-1], self.clock.now_ms())
            record["sos"] = int(any(f.sos for f in pending))
            record["water"] = int(any(f.water for f in pending))
            self.sent.append(record)
        gw = self.gateway
        pushed, dropped = gw.pushed_history, gw.dropped
        with self.faulty("gateway", fault):
            try:
                gw.tick()
            except KeyboardInterrupt:  # as cmd_gateway does
                gw.flush()
            else:
                assert len(gw.buffer) <= gw.config.buffer_capacity
        # the buffer keeps the newest records; of those that left it this
        # step, the flush pushed the oldest and the trim dropped the rest
        left = len(self.sent) - len(gw.buffer)
        assert list(gw.buffer) == self.sent[left:]
        flushed = gw.pushed_history - pushed
        trimmed = gw.dropped - dropped
        assert flushed + trimmed == left - self.gone
        assert not trimmed or gw.buffer, \
            "a tick that emptied the buffer dropped a record"
        stored = {doc["seq"] for _, doc, _ in self.history()}
        pushed_to = self.gone + flushed
        assert all(r["seq"] in stored for r in self.sent[self.gone:pushed_to])
        self.unstored.update(r["seq"] for r in self.sent[pushed_to:left]
                             if r["seq"] not in stored)
        self.gone = left

    @rule(page=st.integers(1, 4), fault=faults("get_history", "patch"))
    def poll(self, page, fault):
        self.pages.setattr(alerts, "HISTORY_PAGE", page)
        with self.faulty("alerts", fault):
            try:
                self.service.poll_once()
            except StoreUnavailable:
                pass  # `run` polls again later
            except KeyboardInterrupt:  # the CLI exits, and is started again
                self.service = self.start_service()

    @rule(what=st.sampled_from(["store", "service"]))
    def restart(self, what):
        if what == "service":
            self.service = self.start_service()
            return
        if self.server is None:
            self.store.close()
            store = Store(log_path=self.wal, clock=self.clock)
            for client in self.clients.values():
                client.client = store
        else:
            port = self.server.httpd.server_address[1]
            self.server.stop()
            self.server = serve(Store(log_path=self.wal, clock=self.clock),
                                port)
            store = self.server.store
        for client in self.clients.values():
            client.store = store

    @invariant()
    def history_holds_each_record_once(self):
        history = self.history()
        for (older, old, _), (newer, new, _) in zip(history, history[1:]):
            assert older < newer
            assert old["seq"] < new["seq"], "a record stored twice"

    @invariant()
    def log_is_the_fold_up_to_the_cursor(self):
        cursor, state, expected = self.service.cursor, {}, []
        for push_id, doc, activity in self.history():
            if cursor is None or push_id > cursor:
                break
            expected += [event.to_json() for event in eval_rules(
                doc, activity, AlertRuleSet(), state)]
        assert self.log.read() == expected

    @invariant()
    def cursor_never_moves_back(self):
        cursor = self.service.cursor
        if self.cursor is not None:
            assert cursor is not None and cursor >= self.cursor
        self.cursor = cursor

    def last_round(self):
        """Push one more frame and poll it, with no fault; then every
        record the gateway kept is stored, and the service is caught up."""
        self.tick([(0, (self.profile, 0, 0))], None)
        self.poll(alerts.HISTORY_PAGE, None)
        history = self.history()
        assert not self.gateway.buffer
        assert [doc for _, doc, _ in history] == [
            r for r in self.sent if r["seq"] not in self.unstored]
        push_id, doc, activity = history[-1]
        assert self.store.get(LATEST) == {**doc, "activity": activity}
        assert self.service.cursor == push_id
        self.log_is_the_fold_up_to_the_cursor()


# an example over HTTP takes about six times as long as one in process
@pytest.mark.parametrize("kind, examples", [("store", 60), ("http", 10)],
                         ids=["store", "http"])
def test_services_under_store_faults(kind, examples, model_file,
                                     trained_model_blob):
    model = nn.import_model(trained_model_blob)
    run_state_machine_as_test(
        lambda: ServicesModel(kind, model_file, model),
        settings=settings(max_examples=examples, stateful_step_count=50,
                          deadline=None, database=None))
