import json
import struct
import threading
import zlib

import numpy as np
import pytest
import requests

from smartbag.clock import VirtualClock
from smartbag.store import (
    BadDocument, BadPath, HttpStoreClient, Store, StoreServer, merge_docs,
)


class TestMerge:
    def test_flat_merge(self):
        store = Store()
        store.patch("bags/a/latest", {"a": 1})
        store.patch("bags/a/latest", {"b": 2})
        assert store.get("bags/a/latest") == {"a": 1, "b": 2}

    def test_deep_merge(self):
        store = Store()
        store.patch("p/x", {"a": {"x": 1}})
        store.patch("p/x", {"a": {"y": 2}})
        assert store.get("p/x") == {"a": {"x": 1, "y": 2}}

    def test_overwrite(self):
        store = Store()
        store.patch("p/x", {"a": 1})
        assert store.patch("p/x", {"a": 2}) == {"a": 2}
        assert store.get("p/x") == {"a": 2}

    def test_non_object_rejected(self):
        with pytest.raises(BadDocument):
            Store().patch("p/x", [1, 2])

    def test_merge_is_last_writer_wins_per_leaf(self):
        base = {"a": {"x": 1, "y": 1}, "b": 3}
        assert merge_docs(base, {"a": {"y": 2}, "c": 4}) == {
            "a": {"x": 1, "y": 2}, "b": 3, "c": 4}


class TestGet:
    def test_never_written_is_not_found(self):
        assert Store().get("bags/nope/latest") is None

    def test_not_found_distinct_from_empty(self):
        store = Store()
        store.patch("p/e", {})
        assert store.get("p/e") == {}
        assert store.get("p/other") is None

    def test_malformed_path(self):
        with pytest.raises(BadPath):
            Store().get("bags//latest")
        with pytest.raises(BadPath):
            Store().get("bags/x y/latest")


class TestHistory:
    def test_append_order(self):
        store = Store()
        ids = [store.append_history("h/s", {"n": i}) for i in range(3)]
        entries = store.get_history("h/s")
        assert [e.doc["n"] for e in entries] == [0, 1, 2]
        assert [e.push_id for e in entries] == ids
        assert ids == sorted(ids)
        assert len(set(ids)) == 3

    def test_since_exclusive(self):
        store = Store()
        ids = [store.append_history("h/s", {"n": i}) for i in range(3)]
        entries = store.get_history("h/s", since=ids[1])
        assert [e.doc["n"] for e in entries] == [2]

    def test_limit_oldest_first(self):
        store = Store()
        for i in range(5):
            store.append_history("h/s", {"n": i})
        entries = store.get_history("h/s", limit=2)
        assert [e.doc["n"] for e in entries] == [0, 1]

    def test_unknown_path_empty(self):
        assert Store().get_history("h/none") == []

    def test_stalled_clock_stays_monotonic(self):
        store = Store(clock=VirtualClock(1000))
        ids = [store.append_history("h/s", {"n": i}) for i in range(100)]
        assert ids == sorted(ids) and len(set(ids)) == 100

    def test_concurrent_appends_unique_and_ordered(self):
        store = Store()
        results = [[] for _ in range(8)]

        def worker(out):
            for i in range(50):
                out.append(store.append_history("h/c", {"i": i}))

        threads = [threading.Thread(target=worker, args=(r,)) for r in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        all_ids = [i for r in results for i in r]
        assert len(set(all_ids)) == 400
        entries = store.get_history("h/c")
        assert [e.push_id for e in entries] == sorted(all_ids)


def random_ops(rng, n):
    ops = []
    for _ in range(n):
        path = f"bags/dev{rng.integers(0, 3)}/{rng.choice(['latest', 'state'])}"
        doc = {f"k{rng.integers(0, 5)}": int(rng.integers(0, 100)),
               "nested": {f"x{rng.integers(0, 3)}": int(rng.integers(0, 10))}}
        if rng.random() < 0.5:
            ops.append(("patch", path, doc))
        else:
            ops.append(("append", f"bags/dev{rng.integers(0, 3)}/history", doc))
    return ops


def apply_ops(store, ops):
    for op, path, doc in ops:
        if op == "patch":
            store.patch(path, doc)
        else:
            store.append_history(path, doc)


class TestDurability:
    def test_restart_replays_acknowledged_writes(self, tmp_path):
        log = tmp_path / "store.wal"
        store = Store(log_path=str(log))
        store.patch("bags/a/latest", {"v": 1})
        pid = store.append_history("bags/a/history", {"v": 2})
        # simulated crash: no close, reopen from the log file
        reopened = Store(log_path=str(log))
        assert reopened.get("bags/a/latest") == {"v": 1}
        entries = reopened.get_history("bags/a/history")
        assert [e.push_id for e in entries] == [pid]

    def test_replay_matches_in_memory_oracle(self, tmp_path):
        rng = np.random.default_rng(10)
        ops = random_ops(rng, 1000)
        log = tmp_path / "store.wal"
        durable = Store(log_path=str(log))
        oracle = Store()
        apply_ops(durable, ops)
        apply_ops(oracle, ops)
        replayed = Store(log_path=str(log))
        assert replayed.docs == oracle.docs
        for path in oracle.history:
            assert [e.doc for e in replayed.history[path]] == \
                [e.doc for e in oracle.history[path]]

    def test_truncated_tail_yields_prefix(self, tmp_path):
        log = tmp_path / "store.wal"
        store = Store(log_path=str(log))
        for i in range(5):
            store.patch("p/x", {f"k{i}": i})
        store.close()
        data = log.read_bytes()
        log.write_bytes(data[:-3])  # chop into the final record
        reopened = Store(log_path=str(log))
        assert reopened.get("p/x") == {f"k{i}": i for i in range(4)}

    def test_writes_after_torn_tail_survive_restart(self, tmp_path):
        log = tmp_path / "store.wal"
        store = Store(log_path=str(log))
        for i in range(3):
            store.append_history("h/s", {"i": i})
        store.close()
        log.write_bytes(log.read_bytes()[:-3])  # tear the last record
        store = Store(log_path=str(log))
        for i in range(3, 6):
            store.append_history("h/s", {"i": i})
        store.close()
        reopened = Store(log_path=str(log))
        assert [e.doc["i"] for e in reopened.get_history("h/s")] == \
            [0, 1, 3, 4, 5]

    def test_corrupt_interior_record_stops_replay(self, tmp_path):
        log = tmp_path / "store.wal"
        store = Store(log_path=str(log))
        for i in range(5):
            store.patch("p/x", {f"k{i}": i})
        store.close()
        data = bytearray(log.read_bytes())
        # flip a payload byte of the second record
        (len0,) = struct.unpack_from("<I", data, 0)
        second = 4 + len0 + 4
        data[second + 4 + 2] ^= 0xFF
        log.write_bytes(bytes(data))
        reopened = Store(log_path=str(log))
        assert reopened.get("p/x") == {"k0": 0}

    def test_empty_log_empty_store(self, tmp_path):
        log = tmp_path / "store.wal"
        log.write_bytes(b"")
        store = Store(log_path=str(log))
        assert store.docs == {} and store.history == {}

    def test_log_record_format(self, tmp_path):
        log = tmp_path / "store.wal"
        store = Store(log_path=str(log))
        store.patch("p/x", {"a": 1})
        store.close()
        data = log.read_bytes()
        (length,) = struct.unpack_from("<I", data, 0)
        payload = data[4:4 + length]
        (crc,) = struct.unpack_from("<I", data, 4 + length)
        assert zlib.crc32(payload) == crc
        record = json.loads(payload)
        assert record["op"] == "patch" and record["path"] == ["p", "x"]


@pytest.fixture
def server():
    srv = StoreServer(Store()).start()
    yield srv
    srv.stop()


class TestHttp:
    def test_patch_get(self, server):
        url = f"{server.base_url}/bags/b1/latest.json"
        resp = requests.patch(url, json={"a": 1})
        assert resp.status_code == 200
        requests.patch(url, json={"b": {"x": 2}})
        assert requests.get(url).json() == {"a": 1, "b": {"x": 2}}

    def test_missing_json_suffix(self, server):
        resp = requests.get(f"{server.base_url}/bags/b1/latest")
        assert resp.status_code == 400

    def test_get_not_found(self, server):
        resp = requests.get(f"{server.base_url}/bags/none/latest.json")
        assert resp.status_code == 404

    def test_non_object_body(self, server):
        url = f"{server.base_url}/bags/b1/latest.json"
        assert requests.patch(url, json=[1]).status_code == 400
        assert requests.patch(url, data=b"not json").status_code == 400

    def test_history_roundtrip(self, server):
        url = f"{server.base_url}/bags/b1/history.json"
        ids = [requests.post(url, json={"n": i}).json()["name"] for i in range(3)]
        listing = requests.get(url).json()
        assert [e["doc"]["n"] for e in listing] == [0, 1, 2]
        after = requests.get(url, params={"since": ids[0]}).json()
        assert [e["doc"]["n"] for e in after] == [1, 2]
        capped = requests.get(url, params={"limit": "1"}).json()
        assert len(capped) == 1


@pytest.fixture(params=["store", "http"])
def client(request):
    """Each implementation of the store's client methods."""
    if request.param == "store":
        yield Store()
        return
    srv = StoreServer(Store()).start()
    yield HttpStoreClient(srv.base_url)
    srv.stop()


def test_client_contract(client):
    # merge-PATCH returns the merged document
    assert client.patch("bags/c/latest", {"a": 1, "n": {"x": 1}}) == \
        {"a": 1, "n": {"x": 1}}
    assert client.patch("bags/c/latest", {"n": {"y": 2}}) == \
        {"a": 1, "n": {"x": 1, "y": 2}}
    assert client.get("bags/c/latest") == {"a": 1, "n": {"x": 1, "y": 2}}
    assert client.get("bags/none/latest") is None

    ids = [client.post("bags/c/history", {"i": i})["name"] for i in range(4)]
    assert all(a < b for a, b in zip(ids, ids[1:]))
    history = client.get_history("bags/c/history")
    assert [e.push_id for e in history] == ids
    assert [e.doc for e in history] == [{"i": i} for i in range(4)]
    assert [e.push_id for e in client.get_history(
        "bags/c/history", since=ids[1])] == ids[2:]
    assert [e.push_id for e in client.get_history(
        "bags/c/history", since=ids[0], limit=2)] == ids[1:3]
    assert [e.push_id for e in client.get_history(
        "bags/c/history", limit=1)] == ids[:1]
    assert client.get_history("bags/c/history", since=ids[-1]) == []
    assert client.get_history("bags/none/history") == []

    bad = "bags/no such/latest"
    for call in (lambda: client.get(bad), lambda: client.patch(bad, {}),
                 lambda: client.post(bad, {}),
                 lambda: client.get_history(bad)):
        with pytest.raises(ValueError):
            call()

    # no aliasing: documents passed in or handed out are the caller's own
    sent = {"n": {"x": 1}}
    returned = client.patch("bags/d/latest", sent)
    sent["n"]["x"] = 2
    returned["n"]["x"] = 3
    client.get("bags/d/latest")["n"]["x"] = 4
    assert client.get("bags/d/latest") == {"n": {"x": 1}}
    entry = {"n": {"x": 1}}
    client.post("bags/d/history", entry)
    entry["n"]["x"] = 2
    assert client.get_history("bags/d/history")[0].doc == {"n": {"x": 1}}
