"""A stateful model of `Store`, run by hypothesis against a dict oracle.

Random patches, posts with and without `latest`, reads, history pages,
clock stalls and steps back, and restarts from the WAL. The oracle holds
the JSON form of every document written, since that is what a store keeps:
documents may hold tuples and int keys. After every step the live state
must equal the oracle, a restart must recover exactly the live state, and
push ids must keep growing across restarts.
"""

import json
import os
import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from smartbag.clock import VirtualClock
from smartbag.store import Store

# a path may hold both a document and a history
PATHS = st.sampled_from(["bags/a/latest", "bags/a/history", "b/state"])
KEYS = st.one_of(st.sampled_from(["a", "b", "gps"]), st.integers(0, 2))
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2**40, 2**40),
                   st.floats(allow_nan=False), st.text(max_size=3))
VALUES = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.tuples(inner, inner),
    st.dictionaries(KEYS, inner, max_size=3)), max_leaves=6)
DOCS = st.dictionaries(KEYS, VALUES, max_size=4)


def json_form(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


def merged(base: dict, patch: dict) -> dict:
    out = dict(base)
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            value = merged(out[key], value)
        out[key] = value
    return out


class StoreModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp()
        self.log = os.path.join(self.dir, "store.wal")
        self.clock = VirtualClock(1000)
        self.store = Store(log_path=self.log, clock=self.clock)
        self.docs = {}     # path -> the merged document
        self.history = {}  # path -> [(push id, document)], oldest first
        self.ids = []      # every push id issued, in order

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.dir)

    @rule(ms=st.sampled_from([0, 0, 1, 5, -3]))
    def move_clock(self, ms):
        self.clock.advance(ms)

    @rule(path=PATHS, doc=DOCS)
    def patch(self, path, doc):
        self.docs[path] = merged(self.docs.get(path, {}), json_form(doc))
        assert self.store.patch(path, doc) == self.docs[path]

    @rule(path=PATHS, doc=DOCS, latest=st.none() | PATHS)
    def post(self, path, doc, latest):
        push_id = self.store.post(path, doc, latest=latest)["name"]
        assert len(push_id) == 20
        assert not self.ids or push_id > self.ids[-1]
        self.ids.append(push_id)
        self.history.setdefault(path, []).append((push_id, json_form(doc)))
        if latest is not None:
            self.docs[latest] = merged(self.docs.get(latest, {}),
                                       json_form(doc))

    @rule(path=PATHS)
    def get(self, path):
        assert self.store.get(path) == self.docs.get(path)

    @rule(path=PATHS, since=st.none() | st.just("") | st.integers(0, 40),
          limit=st.none() | st.integers(0, 3))
    def get_history(self, path, since, limit):
        if isinstance(since, int):  # an issued id, or one before or after all
            known = self.ids + ["0" * 20, "9" * 20]
            since = known[since % len(known)]
        expected = [(i, d) for i, d in self.history.get(path, [])
                    if since is None or i > since][:limit]
        assert [(e.push_id, e.doc) for e in self.store.get_history(
            path, since=since, limit=limit)] == expected

    @rule()
    def restart(self):
        live = (self.store.docs, self.store.history)
        self.store.close()
        self.store = Store(log_path=self.log, clock=self.clock)
        assert (self.store.docs, self.store.history) == live

    @invariant()
    def live_state_is_the_oracle(self):
        assert self.store.docs == {
            tuple(path.split("/")): doc for path, doc in self.docs.items()}
        assert {"/".join(path): [(e.push_id, e.doc) for e in entries]
                for path, entries in self.store.history.items()} \
            == self.history


StoreModel.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None, database=None)
TestStoreModel = StoreModel.TestCase
