"""A stateful model of the store-client contract, run by hypothesis on both
clients in lockstep against a dict oracle.

Each rule runs through an in-process `Store` and through an
`HttpStoreClient` to a `StoreServer`; the two stores share one VirtualClock
and each has its own WAL. Paths may hold a segment no path may (a trailing
newline, an escape, a dot, an empty segment, a space, non-ASCII text), and
documents what JSON text gets wrong or cannot keep as it is, or nest as
deep as the store allows, or deeper. Both clients must give the same reply
as `json.dumps` text, push ids included, and a call the oracle refuses
must raise ValueError through both and write nothing. The documents sent
and returned are then scribbled on, so a store that shares structure with
its caller shows in the next check. After every step both stores equal the
oracle, which holds the JSON form of what was written, as text; a restart
reopens both WALs, the server on the same port under the same client.
"""

import json
import os
import pickle
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from smartbag.clock import VirtualClock
from smartbag.store import MAX_DOC_DEPTH, HttpStoreClient, Store

from conftest import TRICKY_DOCS, nested, serve

# a path may hold both a document and a history
GOOD_PATHS = ["bags/a/latest", "bags/a/history", "b/state"]
# segments no path may hold, each put inside a good path
EDGE_SEGMENTS = ["a\n", "%41", ".", "", " ", "é"]
BAD_PATHS = st.builds(lambda path, edge: path.replace("/", f"/{edge}/", 1),
                      st.sampled_from(GOOD_PATHS), st.sampled_from(EDGE_SEGMENTS))
PATHS = st.one_of(st.sampled_from(GOOD_PATHS), st.sampled_from(GOOD_PATHS),
                  BAD_PATHS)
KEYS = st.one_of(st.sampled_from(["a", "b", "gps"]), st.integers(0, 2))
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**40, 2**40),
    st.sampled_from([2**64, -(2**70), 10**30]), st.floats(allow_nan=False),
    st.sampled_from([-0.0, 1e-300]), st.text(max_size=3))
VALUES = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.tuples(inner, inner),
    st.dictionaries(KEYS, inner, max_size=3)), max_leaves=6)
TOO_DEEP = [nested(MAX_DOC_DEPTH + 1), nested(520)]
# objects and arrays by the dozen, but shallow, with brackets in the text
WIDE = {"rows": [{"i": [i]} for i in range(2 * MAX_DOC_DEPTH)],
        "text": "{[" * MAX_DOC_DEPTH}
DOCS = st.one_of(
    st.dictionaries(KEYS, VALUES, max_size=4),
    st.dictionaries(KEYS, VALUES, max_size=4),
    st.sampled_from([*TRICKY_DOCS.values(), WIDE, nested(MAX_DOC_DEPTH),
                     *TOO_DEEP]))


def json_form(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


def merged(base: dict, patch: dict) -> dict:
    out = dict(base)
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            value = merged(out[key], value)
        out[key] = value
    return out


def scribble(value) -> None:
    """Change every object and array in `value` in place."""
    if isinstance(value, dict):
        for child in value.values():
            scribble(child)
        value["scribbled"] = True
    elif isinstance(value, (list, tuple)):
        for child in value:
            scribble(child)
        if isinstance(value, list):
            value.append("scribbled")


def entries(history: list) -> list:
    return [[e.push_id, e.server_ts, e.doc] for e in history]


class StoreModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp()
        self.logs = [os.path.join(self.dir, f"{side}.wal")
                     for side in ("store", "http")]
        self.clock = VirtualClock(1000)
        self.server = serve(Store(log_path=self.logs[1], clock=self.clock))
        self.http = HttpStoreClient(self.server.base_url)
        self.stores = [Store(log_path=self.logs[0], clock=self.clock),
                       self.server.store]
        self.docs = {}     # path -> the merged document
        self.history = {}  # path -> [[push id, ts, document]], oldest first
        self.ids = []      # every push id issued, in order

    def teardown(self):
        self.http.close()
        self.server.stop()
        self.stores[0].close()
        shutil.rmtree(self.dir)

    def both(self, ok: bool, method: str, path: str, *args, **kwargs):
        """The reply of `method` as `json.dumps` text, which must be the
        same through both clients, each called with its own copy of the
        arguments. A call the oracle refuses (`ok` false) must raise
        ValueError through both. The documents sent and returned are then
        scribbled on."""
        replies = []
        for client in (self.stores[0], self.http):
            sent = pickle.loads(pickle.dumps(args))  # keeps tuples, int keys
            if not ok:
                with pytest.raises(ValueError):
                    getattr(client, method)(path, *sent, **kwargs)
                continue
            reply = getattr(client, method)(path, *sent, **kwargs)
            if method == "get_history":
                reply = entries(reply)
            replies.append(json.dumps(reply))
            scribble([sent, reply])
        if ok:
            assert replies[0] == replies[1]
            return replies[0]

    @rule(ms=st.sampled_from([0, 0, 1, 5, -3]))
    def move_clock(self, ms):
        self.clock.advance(ms)

    @rule(path=PATHS, doc=DOCS)
    def patch(self, path, doc):
        ok = path in GOOD_PATHS and doc not in TOO_DEEP
        reply = self.both(ok, "patch", path, doc)
        if ok:
            # the merged document is checked against the oracle after
            # every step, and read by the `get` rule
            assert reply == "null"
            self.docs[path] = merged(self.docs.get(path, {}), json_form(doc))

    @rule(path=PATHS, doc=DOCS, latest=st.none() | st.just("") | PATHS)
    def post(self, path, doc, latest):
        ok = (path in GOOD_PATHS and latest in GOOD_PATHS + [None]
              and doc not in TOO_DEEP)
        reply = self.both(ok, "post", path, doc, latest=latest)
        if not ok:
            return
        push_id = json.loads(reply)["name"]
        assert len(push_id) == 20
        assert not self.ids or push_id > self.ids[-1]
        self.ids.append(push_id)
        self.history.setdefault(path, []).append(
            [push_id, self.clock.now_ms(), json_form(doc)])
        if latest is not None:
            self.docs[latest] = merged(self.docs.get(latest, {}),
                                       json_form(doc))

    @rule(path=PATHS)
    def get(self, path):
        ok = path in GOOD_PATHS
        reply = self.both(ok, "get", path)
        if ok:
            assert reply == json.dumps(self.docs.get(path))

    @rule(path=PATHS, since=st.none() | st.just("") | st.integers(0, 40),
          limit=st.sampled_from([None, -1, 0, 1, 2, 3]))
    def get_history(self, path, since, limit):
        if isinstance(since, int):  # an issued id, or one before or after all
            known = self.ids + ["0" * 20, "9" * 20]
            since = known[since % len(known)]
        ok = path in GOOD_PATHS and (limit is None or limit >= 0)
        reply = self.both(ok, "get_history", path, since=since, limit=limit)
        if ok:
            assert reply == json.dumps([e for e in self.history.get(path, [])
                                        if not since or e[0] > since][:limit])

    @rule()
    def restart(self):
        live = [self.state(store) for store in self.stores]
        self.stores[0].close()
        self.stores[0] = Store(log_path=self.logs[0], clock=self.clock)
        port = self.server.httpd.server_address[1]
        self.server.stop()
        self.server = serve(Store(log_path=self.logs[1], clock=self.clock),
                            port)
        self.stores[1] = self.server.store
        assert [self.state(store) for store in self.stores] == live

    @staticmethod
    def state(store: Store) -> str:
        """A store's documents and histories as text, paths in order."""
        return json.dumps([
            dict(sorted(("/".join(path), doc)
                        for path, doc in store.docs.items())),
            dict(sorted(("/".join(path), entries(history))
                        for path, history in store.history.items()))])

    @invariant()
    def both_stores_are_the_oracle(self):
        oracle = json.dumps([dict(sorted(self.docs.items())),
                             dict(sorted(self.history.items()))])
        assert self.state(self.stores[0]) == oracle
        assert self.state(self.stores[1]) == oracle


StoreModel.TestCase.settings = settings(
    max_examples=50, stateful_step_count=20, deadline=None, database=None)
TestStoreModel = StoreModel.TestCase
