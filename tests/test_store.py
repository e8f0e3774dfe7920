import http.client
import json
import socket
import struct
import threading
import zlib

import numpy as np
import pytest
import requests

from smartbag.clock import VirtualClock
from smartbag.store import (
    MAX_BODY_BYTES, BadDocument, BadPath, HttpStoreClient, Store, StoreServer,
    StoreUnavailable, merge_docs,
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

    @staticmethod
    def spaced_history():
        """A history whose push ids are 10 ms apart, and those ids."""
        store = Store(clock=VirtualClock(1000))
        ids = []
        for i in range(5):
            ids.append(store.append_history("h/s", {"n": i}))
            store.clock.advance(10)
        return store, ids

    @pytest.mark.parametrize("since, first", [
        (f"{999:015d}{0:05d}", 0),   # before the first id
        (f"{1015:015d}{0:05d}", 2),  # between the second and third ids
        (f"{1040:015d}{0:05d}", 5),  # equal to the last id
        (f"{9999:015d}{0:05d}", 5),  # past the end
    ])
    def test_since_not_in_history(self, since, first):
        store, ids = self.spaced_history()
        assert [e.push_id for e in store.get_history("h/s", since=since)] \
            == ids[first:]
        assert [e.push_id for e in store.get_history(
            "h/s", since=since, limit=2)] == ids[first:first + 2]

    def test_limit_zero(self):
        store, ids = self.spaced_history()
        assert store.get_history("h/s", limit=0) == []
        assert store.get_history("h/s", since=ids[1], limit=0) == []

    def test_negative_limit_rejected(self):
        store, _ = self.spaced_history()
        with pytest.raises(ValueError):
            store.get_history("h/s", limit=-1)

    def test_stalled_clock_stays_monotonic(self):
        store = Store(clock=VirtualClock(1000))
        ids = [store.append_history("h/s", {"n": i}) for i in range(100)]
        assert ids == sorted(ids) and len(set(ids)) == 100

    def test_full_counter_carries_into_milliseconds(self, tmp_path,
                                                    open_store):
        # a log whose last id used up its millisecond's counter
        log = tmp_path / "store.wal"
        last = f"{1000:015d}{99999:05d}"
        payload = json.dumps({"op": "append", "path": ["h", "s"],
                              "doc": {"n": 0}, "id": last, "ts": 1000}).encode()
        log.write_bytes(struct.pack("<I", len(payload)) + payload
                        + struct.pack("<I", zlib.crc32(payload)))
        store = Store(log_path=str(log), clock=VirtualClock(1000))
        ids = [store.append_history("h/s", {"n": i}) for i in range(1, 4)]
        store.close()
        assert all(len(i) == 20 for i in ids)
        assert [last] + ids == sorted(set([last] + ids))
        assert [e.push_id for e in store.get_history("h/s", since=last)] == ids
        # replay observes the carried ids: the next id still sorts last
        reopened = open_store(log)
        reopened.clock = VirtualClock(1000)
        following = reopened.append_history("h/s", {"n": 4})
        assert len(following) == 20 and following > ids[-1]

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
    def test_restart_replays_acknowledged_writes(self, tmp_path, open_store):
        log = tmp_path / "store.wal"
        store = open_store(log)
        store.patch("bags/a/latest", {"v": 1})
        pid = store.append_history("bags/a/history", {"v": 2})
        # simulated crash: no close, reopen from the log file
        reopened = open_store(log)
        assert reopened.get("bags/a/latest") == {"v": 1}
        entries = reopened.get_history("bags/a/history")
        assert [e.push_id for e in entries] == [pid]

    def test_replay_matches_in_memory_oracle(self, tmp_path, open_store):
        rng = np.random.default_rng(10)
        ops = random_ops(rng, 1000)
        log = tmp_path / "store.wal"
        durable = open_store(log)
        oracle = Store()
        apply_ops(durable, ops)
        apply_ops(oracle, ops)
        replayed = open_store(log)
        assert replayed.docs == oracle.docs
        for path in oracle.history:
            assert [e.doc for e in replayed.history[path]] == \
                [e.doc for e in oracle.history[path]]

    def test_truncated_tail_yields_prefix(self, tmp_path, open_store):
        log = tmp_path / "store.wal"
        store = open_store(log)
        for i in range(5):
            store.patch("p/x", {f"k{i}": i})
        store.close()
        data = log.read_bytes()
        log.write_bytes(data[:-3])  # chop into the final record
        reopened = open_store(log)
        assert reopened.get("p/x") == {f"k{i}": i for i in range(4)}

    def test_writes_after_torn_tail_survive_restart(self, tmp_path, open_store):
        log = tmp_path / "store.wal"
        store = open_store(log)
        for i in range(3):
            store.append_history("h/s", {"i": i})
        store.close()
        log.write_bytes(log.read_bytes()[:-3])  # tear the last record
        store = open_store(log)
        for i in range(3, 6):
            store.append_history("h/s", {"i": i})
        store.close()
        reopened = open_store(log)
        assert [e.doc["i"] for e in reopened.get_history("h/s")] == \
            [0, 1, 3, 4, 5]

    def test_corrupt_interior_record_stops_replay(self, tmp_path, open_store):
        log = tmp_path / "store.wal"
        store = open_store(log)
        for i in range(5):
            store.patch("p/x", {f"k{i}": i})
        store.close()
        data = bytearray(log.read_bytes())
        # flip a payload byte of the second record
        (len0,) = struct.unpack_from("<I", data, 0)
        second = 4 + len0 + 4
        data[second + 4 + 2] ^= 0xFF
        log.write_bytes(bytes(data))
        reopened = open_store(log)
        assert reopened.get("p/x") == {"k0": 0}

    def test_empty_log_empty_store(self, tmp_path, open_store):
        log = tmp_path / "store.wal"
        log.write_bytes(b"")
        store = open_store(log)
        assert store.docs == {} and store.history == {}

    def test_log_record_format(self, tmp_path, open_store):
        log = tmp_path / "store.wal"
        store = open_store(log)
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
        listing = requests.get(url, params={"since": ""}).json()
        assert [e["doc"]["n"] for e in listing] == [0, 1, 2]
        after = requests.get(url, params={"since": ids[0]}).json()
        assert [e["doc"]["n"] for e in after] == [1, 2]
        capped = requests.get(url, params={"limit": "1"}).json()
        assert len(capped) == 1

    def test_bare_get_reads_the_document(self, server):
        url = f"{server.base_url}/bags/b1/history.json"
        requests.post(url, json={"n": 0})
        assert requests.get(url).status_code == 404

    def test_history_query_is_percent_decoded(self, server):
        url = f"{server.base_url}/bags/b1/history.json"
        for i in range(3):
            requests.post(url, json={"n": i})
        # http.client sends the target as given; requests would unescape %31
        conn = http.client.HTTPConnection(*server.httpd.server_address[:2])
        try:
            conn.request("GET", "/bags/b1/history.json?limit=%31")
            capped = conn.getresponse()
            assert capped.status == 200
            assert [e["doc"]["n"] for e in json.loads(capped.read())] == [0]
        finally:
            conn.close()

    def test_non_numeric_limit_refused(self, server):
        url = f"{server.base_url}/bags/b1/history.json"
        requests.post(url, json={"n": 0})
        assert requests.get(url, params={"limit": "abc"}).status_code == 400

    def test_refused_path_leaves_no_body_unread(self, server):
        host, port = server.httpd.server_address[:2]
        body = b'{"a": 1}'
        with socket.create_connection((host, port), timeout=5) as sock:
            # two requests on one connection: the first path lacks .json
            sock.sendall(b"PATCH /bags/b1/latest HTTP/1.1\r\n"
                         b"Host: x\r\nContent-Length: %d\r\n\r\n%s"
                         b"GET /bags/b1/latest.json HTTP/1.1\r\n"
                         b"Host: x\r\nConnection: close\r\n\r\n"
                         % (len(body), body))
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        statuses = [part[:3] for part in reply.split(b"HTTP/1.1 ")[1:]]
        assert statuses == [b"400", b"404"]

    @pytest.mark.parametrize("length, status", [
        ("abc", 400), ("-1", 400), (str(MAX_BODY_BYTES + 1), 413)])
    def test_bad_content_length_refused(self, server, length, status):
        host, port = server.httpd.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(f"POST /bags/b1/history.json HTTP/1.1\r\n"
                         f"Host: {host}\r\nContent-Length: {length}\r\n"
                         f"\r\n".encode())
            # read to EOF: the server must close, since the body it did
            # not read would otherwise be parsed as the next request
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        assert reply.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"Connection: close" in reply
        assert server.store.get_history("bags/b1/history") == []
        url = f"{server.base_url}/bags/b1/history.json"
        assert requests.post(url, json={"n": 1}).status_code == 200


def unused_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture
def make_client():
    """HttpStoreClient factory; closes what it made after the test."""
    clients = []

    def make(url, **kwargs):
        clients.append(HttpStoreClient(url, **kwargs))
        return clients[-1]

    yield make
    for client in clients:
        client.close()


class TestHttpClientFailures:
    def test_connection_refused(self, make_client):
        client = make_client(f"http://127.0.0.1:{unused_port()}")
        with pytest.raises(StoreUnavailable):
            client.get("bags/a/latest")

    @pytest.mark.parametrize("status", [500, 503])
    def test_server_error(self, counting_server, make_client, status):
        counting_server.status = status
        client = make_client(counting_server.url)
        for call in (lambda: client.get("bags/a/latest"),
                     lambda: client.patch("bags/a/latest", {}),
                     lambda: client.post("bags/a/history", {}),
                     lambda: client.get_history("bags/a/history")):
            with pytest.raises(StoreUnavailable):
                call()

    def test_read_timeout(self, make_client):
        with socket.socket() as listener:  # accepts, never answers
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            client = make_client(
                "http://127.0.0.1:%d" % listener.getsockname()[1],
                timeout=0.2)
            with pytest.raises(StoreUnavailable):
                client.get("bags/a/latest")

    @pytest.mark.parametrize("status", [None, 500])
    def test_failed_post_sent_once(self, counting_server, make_client,
                                   status):
        counting_server.status = status
        client = make_client(counting_server.url)
        with pytest.raises(StoreUnavailable):
            client.post("bags/a/history", {"n": 1})
        assert len(counting_server.requests) == 1
        counting_server.status = 200
        assert client.post("bags/a/history", {"n": 2}) == {}
        assert [r[2] for r in counting_server.requests] == \
            [b'{"n": 1}', b'{"n": 2}']

    def test_store_restart_on_same_port(self, tmp_path, make_client):
        log = str(tmp_path / "s.wal")
        first = StoreServer(Store(log_path=log)).start()
        port = first.httpd.server_address[1]
        client = make_client(first.base_url)
        client.patch("bags/a/latest", {"v": 1})
        first.stop()
        second = StoreServer(Store(log_path=log), port=port).start()
        try:
            # the kept-alive connection died with the first server; the
            # write must reach the running store and its log
            assert client.patch("bags/a/latest", {"w": 2}) == {"v": 1, "w": 2}
            assert second.store.get("bags/a/latest") == {"v": 1, "w": 2}
        finally:
            second.stop()
        replayed = Store(log_path=log)
        assert replayed.get("bags/a/latest") == {"v": 1, "w": 2}
        replayed.close()


@pytest.fixture(params=["store", "http"])
def client(request):
    """Each implementation of the store's client methods."""
    if request.param == "store":
        yield Store()
        return
    srv = StoreServer(Store()).start()
    client = HttpStoreClient(srv.base_url)
    yield client
    client.close()
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
    assert client.get_history("bags/c/history", limit=0) == []
    assert client.get_history("bags/none/history") == []
    with pytest.raises(ValueError):
        client.get_history("bags/c/history", limit=-1)

    # one path with both a document and a history: each read gets its own
    client.patch("bags/c/both", {"d": 1})
    both = client.post("bags/c/both", {"h": 1})["name"]
    assert client.get("bags/c/both") == {"d": 1}
    assert [(e.push_id, e.doc) for e in client.get_history("bags/c/both")] \
        == [(both, {"h": 1})]

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


class RecordingStore(Store):
    """A Store that records the name of each public method called on it."""

    def __init__(self):
        super().__init__()
        self.called = set()

    def __getattribute__(self, name):
        value = super().__getattribute__(name)
        if not name.startswith("_") and callable(value):
            super().__getattribute__("called").add(name)
        return value


def test_server_calls_only_the_probed_store_methods(make_client):
    # perfbench measures the store layer by wrapping these four methods;
    # a request served through any other method would escape its metrics
    store = RecordingStore()
    srv = StoreServer(store).start()
    try:
        client = make_client(srv.base_url)
        client.patch("bags/r/latest", {"a": 1})
        client.get("bags/r/latest")
        client.get("bags/r/none")
        first = client.post("bags/r/history", {"n": 0})["name"]
        client.post("bags/r/history", {"n": 1})
        client.get("bags/r/history")
        client.get_history("bags/r/history")
        client.get_history("bags/r/history", since=first, limit=1)
        client.get_history("bags/r/none")
        called = set(store.called)
    finally:
        srv.stop()
    assert called == {"patch", "get", "append_history", "get_history"}
