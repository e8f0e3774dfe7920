import copy
import errno
import gc
import http.client
import inspect
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
import requests

from smartbag import store as store_module
from smartbag.clock import VirtualClock
from smartbag.dataset import default_profiles
from smartbag.frames import SimulatorSource
from smartbag.gateway import Gateway, GatewayConfig, to_record
from smartbag.store import (
    MAX_BODY_BYTES, BadDocument, BadPath, HttpStoreClient, JsonConnection,
    Store, StoreServer, StoreUnavailable, merge_docs,
)

from conftest import (
    TRICKY_DOCS, FaultyClient, nested, run_python, serve, unused_port,
)


def wal(records) -> bytes:
    """A whole WAL file holding `records`."""
    data = b""
    for record in records:
        payload = json.dumps(record).encode()
        data += (struct.pack("<I", len(payload)) + payload
                 + struct.pack("<I", zlib.crc32(payload)))
    return data


def former_push_ids(last_id, clock_ms) -> list:
    """Push ids by the store's former two-field rule, kept as a reference:
    a 15-digit millisecond field and a 5-digit counter that counts ids
    while the clock stalls or goes back, and carries into the milliseconds
    when it is full. `last_id` is the last id replayed, if any; one id is
    issued at each time in `clock_ms`."""
    last_ms, counter = (-1, 0) if last_id is None else \
        (int(last_id[:15]), int(last_id[15:]))
    ids = []
    for now in clock_ms:
        if now > last_ms:
            last_ms, counter = now, 0
        elif counter < 99999:
            counter += 1
        else:
            last_ms, counter = last_ms + 1, 0
        ids.append(f"{last_ms:015d}{counter:05d}")
    return ids


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
        assert store.patch("p/x", {"a": 2}) is None
        assert store.get("p/x") == {"a": 2}

    def test_non_object_rejected(self):
        with pytest.raises(BadDocument):
            Store().patch("p/x", [1, 2])

    def test_merge_is_last_writer_wins_per_leaf(self):
        base = {"a": {"x": 1, "y": 1}, "b": 3}
        assert merge_docs(base, {"a": {"y": 2}, "c": 4}) == {
            "a": {"x": 1, "y": 2}, "b": 3, "c": 4}

    def test_merge_mutates_neither_input(self):
        # the store lets a history entry and a document share subtrees
        base = {"a": {"x": 1}, "b": {"y": 1}}
        patch = {"a": {"x": 2}, "c": {"z": 1}}
        before = copy.deepcopy((base, patch))
        merge_docs(base, patch)
        assert (base, patch) == before


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
        log.write_bytes(wal([{"op": "append", "path": ["h", "s"],
                              "doc": {"n": 0}, "id": last, "ts": 1000}]))
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

    def test_push_ids_match_the_former_rule(self, tmp_path):
        # one integer, max(last + 1, ms * 100000), gives the former ids
        # under stalls, a clock that goes back, full counters, replayed ids
        # and restarts
        rng = np.random.default_rng(7)
        for trial in range(40):
            log = tmp_path / f"{trial}.wal"
            clock = VirtualClock(int(rng.integers(0, 10**6)))
            replayed = None
            if trial % 2:  # a log whose last id is near a full counter
                replayed = (f"{clock.now_ms() + int(rng.integers(-3, 3)):015d}"
                            f"{99999 - int(rng.integers(0, 150)):05d}")
                log.write_bytes(wal([{"op": "append", "path": ["h", "s"],
                                      "doc": {}, "id": replayed, "ts": 0}]))
            store = Store(log_path=str(log), clock=clock)
            times, ids = [], []
            for _ in range(200):
                clock.advance(int(rng.choice([0, 0, 0, 0, 1, 7, -2, -40])))
                if rng.random() < 0.02:
                    store.close()
                    store = Store(log_path=str(log), clock=clock)
                times.append(clock.now_ms())
                ids.append(store.append_history("h/s", {}))
            store.close()
            assert ids == former_push_ids(replayed, times), trial

    def test_concurrent_appends_unique_and_ordered(self):
        store = Store()
        results = [[] for _ in range(8)]
        merged = []
        # a large subtree makes each merge into `latest` long enough for a
        # thread switch to land inside it
        pad = {f"k{k}": k for k in range(1000)}

        def worker(w, out):
            for i in range(50):
                out.append(store.append_history(
                    "h/c", {f"w{w}": i, "pad": pad}, latest="h/latest"))
                # only this worker writes its key: a lost merge shows here
                merged.append(store.get("h/latest").get(f"w{w}") == i)

        threads = [threading.Thread(target=worker, args=(w, r))
                   for w, r in enumerate(results)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        all_ids = [i for r in results for i in r]
        assert len(set(all_ids)) == 400
        entries = store.get_history("h/c")
        assert [e.push_id for e in entries] == sorted(all_ids)
        assert len(merged) == 400 and all(merged)
        assert store.get("h/latest") == {
            **{f"w{w}": 49 for w in range(8)}, "pad": pad}


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


def log_records(log) -> list:
    """The decoded records of a whole, untorn WAL file."""
    data, pos, records = log.read_bytes(), 0, []
    while pos < len(data):
        (length,) = struct.unpack_from("<I", data, pos)
        records.append(json.loads(data[pos + 4:pos + 4 + length]))
        pos += 4 + length + 4
    return records


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

    @pytest.mark.parametrize("tail", [
        b"\x10\x00",  # cut inside the next record's length prefix
        struct.pack("<I", 0xFFFFFFF0) + b"x" * 16,  # a garbage length
    ], ids=["cut-length-prefix", "garbage-length"])
    def test_torn_tail_after_valid_records(self, tmp_path, open_store, tail):
        log = tmp_path / "store.wal"
        store = open_store(log)
        for i in range(3):
            store.append_history("h/s", {"i": i})
        store.close()
        log.write_bytes(log.read_bytes() + tail)
        tracemalloc.start()
        try:
            store = open_store(log)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the length is checked against the file before anything is read
        assert peak < 4 << 20
        for i in range(3, 5):
            store.append_history("h/s", {"i": i})
        store.close()
        reopened = open_store(log)
        assert [e.doc["i"] for e in reopened.get_history("h/s")] == \
            [0, 1, 2, 3, 4]

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

    def test_combined_write_replays_whole_or_not_at_all(self, tmp_path,
                                                        open_store):
        log = tmp_path / "store.wal"
        store = open_store(log)
        store.patch("bags/a/latest", {"activity": "Walking"})
        before = log.stat().st_size
        push_id = store.post("bags/a/history", {"seq": 1, "gps": {"lat": 2}},
                             latest="bags/a/latest")["name"]
        store.close()
        data = log.read_bytes()
        assert [r["op"] for r in log_records(log)] == ["patch", "append"]
        # a crash anywhere inside the combined record loses both effects
        for cut in range(before, len(data)):
            log.write_bytes(data[:cut])
            torn = open_store(log)
            assert torn.get_history("bags/a/history") == []
            assert torn.get("bags/a/latest") == {"activity": "Walking"}
            torn.close()
        # the whole record replays to both
        log.write_bytes(data)
        whole = open_store(log)
        assert [(e.push_id, e.doc) for e in whole.get_history(
            "bags/a/history")] == [(push_id, {"seq": 1, "gps": {"lat": 2}})]
        assert whole.get("bags/a/latest") == \
            {"activity": "Walking", "seq": 1, "gps": {"lat": 2}}

    def test_bad_latest_path_writes_nothing(self, tmp_path, open_store):
        log = tmp_path / "store.wal"
        store = open_store(log)
        store.append_history("h/s", {"i": 0})
        size = log.stat().st_size
        with pytest.raises(BadPath):
            store.append_history("h/s", {"i": 1}, latest="bad path/latest")
        assert log.stat().st_size == size
        assert [e.doc for e in store.get_history("h/s")] == [{"i": 0}]
        assert store.docs == {}

    def test_log_holds_one_record_per_push(self, tmp_path, open_store):
        log = tmp_path / "store.wal"
        store = open_store(log)
        source = SimulatorSource(default_profiles(), seed=0)
        clock = VirtualClock(0)
        gw = Gateway(source, store, GatewayConfig(device_id="W"), clock=clock)
        for _ in range(5):
            gw.tick()
            clock.advance(2000)
        records = log_records(log)
        assert [(r["op"], r["path"], r["latest"]) for r in records] == \
            [("append", ["bags", "W", "history"], ["bags", "W", "latest"])] * 5
        replayed = open_store(log)
        assert replayed.get("bags/W/latest") == records[-1]["doc"]
        assert replayed.docs == store.docs
        assert replayed.history == store.history

    def test_live_state_is_the_replayed_state(self, tmp_path, open_store):
        # a store keeps the JSON form of what it logged, with or without a
        # log: a tuple is kept as a list, an int key as a string
        log = tmp_path / "store.wal"
        stores = (Store(), open_store(log))
        for store in stores:
            store.patch("p/x", {"pair": (1, 2), 7: "int key"})
            assert store.get("p/x") == {"pair": [1, 2], "7": "int key"}
            store.append_history("h/s", {"pair": (3, 4), 8: {9: "nested"}},
                                 latest="p/y")
            assert store.get("p/y") == {"pair": [3, 4], "8": {"9": "nested"}}
            assert store.get_history("h/s")[0].doc == store.get("p/y")
        replayed = open_store(log)
        for store in stores:
            assert store.docs == replayed.docs
            assert [e.doc for e in store.history[("h", "s")]] == \
                [e.doc for e in replayed.history[("h", "s")]]

    @pytest.mark.parametrize("doc", TRICKY_DOCS.values(),
                             ids=TRICKY_DOCS.keys())
    def test_live_text_is_the_replayed_text(self, tmp_path, open_store, doc):
        log = tmp_path / "store.wal"
        store = open_store(log)
        store.append_history("h/s", doc, latest="p/y")
        replayed = open_store(log)
        assert replayed.history == store.history
        assert replayed.docs == store.docs
        (entry,) = store.history[("h", "s")]
        assert entry.text == json.dumps(doc, separators=(",", ":"))
        assert entry.doc == json.loads(entry.text)

    @pytest.mark.parametrize("over_http", [False, True], ids=["store", "http"])
    def test_history_reads_are_copies(self, tmp_path, open_store, make_client,
                                      over_http):
        log = tmp_path / "store.wal"
        store = client = open_store(log)
        srv = StoreServer(store).start() if over_http else None
        try:
            if srv is not None:
                client = make_client(srv.base_url)
            client.post("h/s", {"gps": {"lat": 1.5}, "seq": 1}, latest="p/y")
            (entry,) = client.get_history("h/s")
            assert entry.doc is not entry.doc
            doc = entry.doc
            doc["seq"] = 99
            doc["gps"]["lat"] = -1.0
            del doc["gps"]
            assert entry.doc == {"gps": {"lat": 1.5}, "seq": 1}
            (again,) = client.get_history("h/s")
            assert again.doc == {"gps": {"lat": 1.5}, "seq": 1}
            assert client.get("p/y") == {"gps": {"lat": 1.5}, "seq": 1}
        finally:
            if srv is not None:
                srv.stop()
        assert open_store(log).history == store.history

    def test_replay_skips_records_too_deep(self, tmp_path, open_store,
                                           caplog, make_client):
        # a log written before MAX_DOC_DEPTH can hold deeper documents; the
        # records after one were acknowledged, so replay skips it and goes on
        deep = wal([{"op": "patch", "path": ["bags", "deep", "latest"],
                     "doc": nested(520)}])
        log = tmp_path / "store.wal"
        log.write_bytes(
            deep + wal([{"op": "patch", "path": ["bags", "ok", "latest"],
                         "doc": {"a": 1}}]))
        with caplog.at_level("WARNING", logger="smartbag.store"):
            store = open_store(log)
        assert store.docs == {("bags", "ok", "latest"): {"a": 1}}
        assert ["offset 0" in r.getMessage() for r in caplog.records] == [True]
        # a later write follows the kept records, and the skipped one stays
        # skipped at the next replay
        store.append_history("bags/ok/history", {"b": 2})
        reopened = open_store(log)
        assert reopened.docs == store.docs
        assert reopened.history == store.history
        srv = StoreServer(reopened).start()
        try:
            client = make_client(srv.base_url)
            assert client.get("bags/deep/latest") is None  # a 404
            assert client.get("bags/ok/latest") == {"a": 1}
        finally:
            srv.stop()

    def test_replay_skips_records_too_deep_to_decode(self, tmp_path,
                                                     open_store):
        depth = 100_000  # past the JSON decoder's recursion limit
        payload = ('{"op":"patch","path":["p","deep"],"doc":'
                   + '{"n":' * depth + "0" + "}" * (depth + 1)).encode()
        log = tmp_path / "store.wal"
        log.write_bytes(
            struct.pack("<I", len(payload)) + payload
            + struct.pack("<I", zlib.crc32(payload))
            + wal([{"op": "patch", "path": ["p", "x"], "doc": {"a": 1}}]))
        assert open_store(log).docs == {("p", "x"): {"a": 1}}

    @pytest.mark.parametrize("doc", [
        {"s": {1, 2}}, {(1, 2): "tuple key"}, "cycle", "deep"],
        ids=["set", "tuple-key", "cycle", "deep"])
    def test_non_json_document_refused_alike(self, tmp_path, open_store, doc):
        if doc == "cycle":
            doc = {}
            doc["self"] = doc
        elif doc == "deep":  # past the JSON encoder's recursion limit
            doc = nested(100_000)
        log = tmp_path / "store.wal"
        for store in (Store(), open_store(log)):
            with pytest.raises(BadDocument):
                store.patch("p/x", doc)
            with pytest.raises(BadDocument):
                store.append_history("h/s", doc, latest="p/x")
            assert store.docs == {} and store.history == {}
            store.patch("p/x", {"n": 1})
            assert store.get("p/x") == {"n": 1}
        assert open_store(log).docs == {("p", "x"): {"n": 1}}

    @pytest.mark.parametrize("room", [0, 100],
                             ids=["limit-at-file-size", "torn-record"])
    def test_failed_log_write_leaves_no_trace(self, tmp_path, room):
        # the store process lowers its own file-size limit so that one
        # patch's log append fails with EFBIG, as a full disk fails with
        # ENOSPC, after `room` of its bytes are written
        code = textwrap.dedent("""
            import json, os, resource, signal, sys
            from smartbag.store import Store
            log, room = sys.argv[1], int(sys.argv[2])
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            store = Store(log_path=log)
            store.patch("p/x", {"n": 1})
            limits = resource.getrlimit(resource.RLIMIT_FSIZE)
            resource.setrlimit(resource.RLIMIT_FSIZE,
                               (os.path.getsize(log) + room, limits[1]))
            try:
                store.patch("p/x", {"pad": "x" * 1000})
                refused = None
            except Exception as e:
                refused = type(e).__name__
            resource.setrlimit(resource.RLIMIT_FSIZE, limits)
            store.patch("p/x", {"n": 2})
            store.patch("p/x", {"n": 3})
            live = store.get("p/x")
            store.close()
            print(json.dumps([refused, live, Store(log_path=log).get("p/x")]))
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(store_module.__file__).parents[1]),
                        env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "store.wal"),
             str(room)], env=env, capture_output=True, check=True, timeout=60)
        # [exception raised by the failed patch, live document, document
        # after a restart]
        assert json.loads(proc.stdout) == ["StoreUnavailable", {"n": 3},
                                           {"n": 3}]

    def test_failed_undo_refuses_writes_until_restart(self, tmp_path,
                                                      open_store):
        class BrokenDisk:
            def write(self, data):
                raise OSError(errno.EIO, "I/O error")

            truncate = write

        log = tmp_path / "store.wal"
        store = open_store(log)
        store.patch("p/x", {"n": 1})
        good = store._log._file
        store._log._file = BrokenDisk()
        with pytest.raises(StoreUnavailable):
            store.patch("p/x", {"n": 2})
        # the disk recovers, but the store cannot know what the failed
        # write left in the log
        store._log._file = good
        with pytest.raises(StoreUnavailable):
            store.append_history("h/s", {"n": 3})
        assert store.get("p/x") == {"n": 1} and store.history == {}
        restarted = open_store(log)
        assert restarted.get("p/x") == {"n": 1}
        restarted.patch("p/x", {"n": 4})
        assert restarted.get("p/x") == {"n": 4}

    def test_closed_store_refuses_writes(self, tmp_path, open_store):
        log = tmp_path / "store.wal"
        store = open_store(log)
        store.patch("p/x", {"n": 1})
        store.append_history("h/s", {"n": 1})
        store.close()
        # a write acknowledged after close would be lost at the restart
        with pytest.raises(StoreUnavailable):
            store.patch("p/x", {"n": 2})
        with pytest.raises(StoreUnavailable):
            store.append_history("h/s", {"n": 2}, latest="p/x")
        assert store.get("p/x") == {"n": 1}
        assert len(store.get_history("h/s")) == 1
        reopened = open_store(log)
        assert reopened.docs == store.docs
        assert reopened.history == store.history

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

    def test_patch_replies_null(self, server):
        url = f"{server.base_url}/bags/b1/latest.json"
        requests.patch(url, json={"a": 1, "b": {"x": 1}})
        resp = requests.patch(url, json={"b": {"y": 2}})
        assert resp.status_code == 200
        assert resp.content == b"null"
        assert resp.headers["Content-Length"] == "4"
        assert requests.get(url).json() == {"a": 1, "b": {"x": 1, "y": 2}}

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

    def test_history_reply_holds_the_logged_text(self, tmp_path):
        # an entry replayed from a log written with spaces, and whose id is
        # any text int() accepts, and one written live
        log = tmp_path / "store.wal"
        log.write_bytes(wal([{"op": "append", "path": ["bags", "x", "history"],
                              "id": " 12\n", "ts": 5,
                              "doc": {"a": 1, "b": [1.5, {"c": "\u00e9"}]}}]))
        srv = StoreServer(Store(log_path=str(log))).start()
        try:
            url = f"{srv.base_url}/bags/x/history.json"
            requests.post(url, json={"n": {"x": 1, "y": [2, 3]}, "t": "\u2603"})
            resp = requests.get(url + "?since=")
        finally:
            srv.stop()
        entries = srv.store.history[("bags", "x", "history")]
        assert entries[0].text == '{"a": 1, "b": [1.5, {"c": "\\u00e9"}]}'
        assert resp.status_code == 200
        for entry in entries:
            assert entry.text in resp.text
        assert resp.json() == [{"id": e.push_id, "ts": e.server_ts,
                                "doc": e.doc} for e in entries]

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

    def test_get_with_body_refused(self, server):
        host, port = server.httpd.server_address[:2]
        body = b'{"a": 1}'
        with socket.create_connection((host, port), timeout=5) as sock:
            # a GET body left unread would be parsed as the second request
            sock.sendall(b"GET /bags/b1/latest.json HTTP/1.1\r\n"
                         b"Host: x\r\nContent-Length: %d\r\n\r\n%s"
                         b"GET /bags/b1/latest.json HTTP/1.1\r\n"
                         b"Host: x\r\nConnection: close\r\n\r\n"
                         % (len(body), body))
            reply = b""
            try:
                while chunk := sock.recv(4096):
                    reply += chunk
            except ConnectionResetError:  # closed with our bytes unread
                pass
        statuses = [part[:3] for part in reply.split(b"HTTP/1.1 ")[1:]]
        assert statuses == [b"400"]
        assert b"Connection: close" in reply

    def test_chunked_body_refused(self, server):
        host, port = server.httpd.server_address[:2]
        body = b'{"a": 1}'
        with socket.create_connection((host, port), timeout=5) as sock:
            # chunks left unread would be parsed as the second request
            sock.sendall(b"POST /bags/b1/history.json HTTP/1.1\r\n"
                         b"Host: x\r\nTransfer-Encoding: chunked\r\n\r\n"
                         b"%x\r\n%s\r\n0\r\n\r\n"
                         b"GET /bags/b1/latest.json HTTP/1.1\r\n"
                         b"Host: x\r\nConnection: close\r\n\r\n"
                         % (len(body), body))
            reply = b""
            try:
                while chunk := sock.recv(4096):
                    reply += chunk
            except ConnectionResetError:  # closed with our bytes unread
                pass
        statuses = [part[:3] for part in reply.split(b"HTTP/1.1 ")[1:]]
        assert statuses == [b"400"]
        assert b"Connection: close" in reply
        assert server.store.get_history("bags/b1/history") == []

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


def raw_request(method: str, target: str, body: bytes = b"",
                headers: str = "") -> bytes:
    """One HTTP/1.1 request as bytes; a body gets its Content-Length."""
    if body:
        headers += f"Content-Length: {len(body)}\r\n"
    return (f"{method} {target} HTTP/1.1\r\nHost: x\r\n{headers}\r\n"
            .encode() + body)


def read_replies(sock) -> list:
    """Every reply the server sends on `sock` until it closes the
    connection, as (status, header block, body)."""
    data = b""
    try:
        while chunk := sock.recv(65536):
            data += chunk
    except ConnectionResetError:  # closed with our bytes unread
        pass
    replies = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
        replies.append((int(head[9:12]), head, rest[:length]))
        data = rest[length:]
    return replies


@pytest.fixture(scope="module")
def refusing_server(tmp_path_factory):
    """A server whose store holds bags/b1/latest = {"ok": 1} and refuses
    every write with 503, as after a log write it could not undo. Every
    other refusal is decided before a write reaches the log. Shared by the
    rows of the table: each row checks that it left the store as it was."""
    log = tmp_path_factory.mktemp("refusals") / "s.wal"
    srv = StoreServer(Store(log_path=str(log))).start()
    srv.store.patch("bags/b1/latest", {"ok": 1})
    srv.store._log._end = None  # the log is unusable until a restart
    yield srv
    srv.stop()


DOC = b'{"a": 1}'

# (request, status, whether the reply closes the connection). A refusal
# that leaves a body unread must close: the body would be parsed as the
# next request. The closing requests send no body at all, so the server
# is seen to refuse without waiting for one.
REFUSALS = {
    "missing-json-suffix": (raw_request("PATCH", "/bags/b1/latest", DOC),
                            400, False),
    "invalid-json": (raw_request("PATCH", "/bags/b1/latest.json",
                                 b"not json"), 400, False),
    "invalid-utf8": (raw_request("PATCH", "/bags/b1/latest.json",
                                 b'{"a": "\xff"}'), 400, False),
    "nested-json": (raw_request("PATCH", "/bags/b1/latest.json",
                                b"[" * 100_000 + b"]" * 100_000), 400, False),
    "array-patch": (raw_request("PATCH", "/bags/b1/latest.json", b"[1]"),
                    400, False),
    "array-post": (raw_request("POST", "/bags/b1/history.json", b"[1]"),
                   400, False),
    "bad-segment": (raw_request("GET", "/bags/no%20such/latest.json"),
                    400, False),
    "bad-latest": (raw_request(
        "POST", "/bags/b1/history.json?latest=bags/no%20such", DOC),
        400, False),
    "limit-abc": (raw_request("GET", "/bags/b1/history.json?limit=abc"),
                  400, False),
    "limit-negative": (raw_request("GET", "/bags/b1/history.json?limit=-1"),
                       400, False),
    "not-found": (raw_request("GET", "/bags/none/latest.json"), 404, False),
    "unavailable": (raw_request("PATCH", "/bags/b1/latest.json", DOC),
                    503, False),
    "content-length-abc": (raw_request(
        "POST", "/bags/b1/history.json", headers="Content-Length: abc\r\n"),
        400, True),
    "content-length-negative": (raw_request(
        "POST", "/bags/b1/history.json", headers="Content-Length: -1\r\n"),
        400, True),
    "content-length-oversized": (raw_request(
        "POST", "/bags/b1/history.json",
        headers=f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"), 413, True),
    "chunked": (raw_request("POST", "/bags/b1/history.json",
                            headers="Transfer-Encoding: chunked\r\n"),
                400, True),
    "get-with-body": (raw_request("GET", "/bags/b1/latest.json",
                                  headers="Content-Length: 8\r\n"), 400, True),
}


@pytest.mark.parametrize("request_, status, close", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_refusal_table(refusing_server, request_, status, close):
    # a connection kept open must answer a second request on its own
    follow_up = raw_request("GET", "/bags/b1/latest.json",
                            headers="Connection: close\r\n")
    with socket.create_connection(
            refusing_server.httpd.server_address[:2], timeout=5) as sock:
        sock.sendall(request_ if close else request_ + follow_up)
        replies = read_replies(sock)
    assert [r[0] for r in replies] == ([status] if close else [status, 200])
    assert (b"Connection: close" in replies[0][1]) == close
    assert list(json.loads(replies[0][2])) == ["error"]
    if not close:
        assert json.loads(replies[1][2]) == {"ok": 1}
    assert refusing_server.store.get("bags/b1/latest") == {"ok": 1}
    assert refusing_server.store.history == {}


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


class FailsOnce:
    """Stands in for a store's log file: its first write fails, as on a
    full disk; the rest go to the real file."""

    def __init__(self, log):
        self.log = log
        self.failed = False

    def write(self, data):
        if not self.failed:
            self.failed = True
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.log.write(data)

    def truncate(self, size):
        return self.log.truncate(size)

    def close(self):
        self.log.close()


class TestHttpClientFailures:
    def test_failed_log_write_answers_503(self, tmp_path, make_client):
        log = str(tmp_path / "s.wal")
        srv = StoreServer(Store(log_path=log, clock=VirtualClock(7))).start()
        srv.store._log._file = FailsOnce(srv.store._log._file)
        url = f"{srv.base_url}/bags/a/history.json?latest=bags/a/latest"
        try:
            # nothing was written, so the client may send the record again
            assert requests.post(url, json={"n": 1}).status_code == 503
            client = make_client(srv.base_url)
            pushed = client.post("bags/a/history", {"n": 1},
                                 latest="bags/a/latest")["name"]
            # the refused write did not use up a push id either
            assert pushed == f"{7:015d}{0:05d}"
            assert [(e.push_id, e.doc) for e in client.get_history(
                "bags/a/history")] == [(pushed, {"n": 1})]
        finally:
            srv.stop()
        replayed = Store(log_path=log)
        assert replayed.get("bags/a/latest") == {"n": 1}
        assert len(replayed.get_history("bags/a/history")) == 1
        replayed.close()

    def test_unexpected_fault_answers_500(self, tmp_path, make_client,
                                          caplog):
        # a document too deep for `Store.get` to copy, put in place past the
        # write and replay checks, which would refuse it
        log = tmp_path / "s.wal"
        log.write_bytes(wal([
            {"op": "patch", "path": ["bags", "ok", "latest"], "doc": {"a": 1}},
        ]))
        srv = StoreServer(Store(log_path=str(log))).start()
        srv.store.docs[("bags", "deep", "latest")] = nested(520)
        try:
            client = make_client(srv.base_url)
            with pytest.raises(StoreUnavailable, match="HTTP 500"):
                client.get("bags/deep/latest")
            sock = client.http._conn.sock
            # the connection stays open and answers the next request
            assert client.get("bags/ok/latest") == {"a": 1}
            assert client.http._conn.sock is sock
        finally:
            srv.stop()
        assert any(r.exc_info and r.exc_info[0] is RecursionError
                   for r in caplog.records)

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
            client.patch("bags/a/latest", {"w": 2})
            assert client.get("bags/a/latest") == {"v": 1, "w": 2}
            assert second.store.get("bags/a/latest") == {"v": 1, "w": 2}
        finally:
            second.stop()
        replayed = Store(log_path=log)
        assert replayed.get("bags/a/latest") == {"v": 1, "w": 2}
        replayed.close()

    def test_socket_past_fd_1023(self):
        """With 1100 other files open the client's socket gets a number
        past select()'s limit; it still sends, and still replaces a socket
        the peer closed. Runs in its own process, which raises its own
        soft file limit."""
        out = run_python(textwrap.dedent("""
            import os, resource
            from smartbag.store import HttpStoreClient, Store, StoreServer
            soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
            if hard != resource.RLIM_INFINITY and hard < 1200:
                print("low hard limit")
                raise SystemExit
            resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
            held = [os.open(os.devnull, os.O_RDONLY) for _ in range(1100)]
            first = StoreServer(Store()).start()
            client = HttpStoreClient(first.base_url)
            client.patch("bags/a/latest", {"v": 1})
            assert client.http._conn.sock.fileno() > 1023
            assert client.get("bags/a/latest") == {"v": 1}
            port = first.httpd.server_address[1]
            first.stop()
            second = StoreServer(Store(), port=port).start()
            client.patch("bags/a/latest", {"w": 2})
            assert client.get("bags/a/latest") == {"w": 2}
            client.close()
            second.stop()
            for fd in held:
                os.close(fd)
            print("ok")
            """))
        if out.startswith("low hard limit"):
            pytest.skip("hard RLIMIT_NOFILE below 1200")
        assert out == "ok\n"


class SlowStore(Store):
    """Holds each history append until `go` is set; `holding` is set once
    an append waits."""

    def __init__(self):
        super().__init__()
        self.holding, self.go = threading.Event(), threading.Event()

    def append_history(self, *args, **kwargs):
        self.holding.set()
        assert self.go.wait(10)
        return super().append_history(*args, **kwargs)


@pytest.fixture
def slow_server():
    srv = serve(SlowStore())
    yield srv
    srv.store.go.set()
    srv.stop()


def handlers() -> list:
    return [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)]


@pytest.fixture
def sigterm_interrupts():
    """SIGTERM raises KeyboardInterrupt for the test, as `cli.main` sets it
    for a service."""
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    yield
    signal.signal(signal.SIGTERM, previous)


def kill_when(event: threading.Event, signum, delay=0.0,
              then=None) -> threading.Thread:
    """A started thread that sends `signum` to this process `delay` seconds
    after `event` is set, and then calls `then`."""
    def run():
        assert event.wait(10)
        time.sleep(delay)
        os.kill(os.getpid(), signum)
        if then is not None:
            then()
    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


class TestSignalDuringExchange:
    """A SIGINT or SIGTERM that arrives while a request is on the wire
    waits for the exchange to end, so the read-back after it gets its own
    reply on the same connection and sees the write once."""

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_raised_once_the_reply_is_read(self, slow_server, make_client,
                                           sigterm_interrupts, signum):
        before = handlers()
        client = make_client(slow_server.base_url)
        assert client.get("bags/a/latest") is None  # opens the connection
        sock = client.http._conn.sock
        store = slow_server.store

        def release():  # a while after the signal
            time.sleep(0.2)
            store.go.set()
        killer = kill_when(store.holding, signum, then=release)
        with pytest.raises(KeyboardInterrupt):
            try:
                client.post("bags/a/history", {"n": 1}, latest="bags/a/latest")
            except KeyboardInterrupt:
                assert store.go.is_set()  # raised after the store answered
                raise
        killer.join(5)
        assert client.http._conn.sock is sock
        assert client.get("bags/a/latest") == {"n": 1}
        assert [e.doc for e in client.get_history("bags/a/history")] == \
            [{"n": 1}]
        assert handlers() == before

    def test_request_still_being_sent(self):
        # the listener reads nothing until the signal has landed, so the
        # 8 MiB body, past what the socket buffers hold, is still going out
        body = {"blob": "x" * (8 << 20)}
        accepted, signalled, received = (threading.Event(), threading.Event(),
                                         [])
        with socket.socket() as listener:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)
            listener.bind(("127.0.0.1", 0))
            listener.listen()

            def answer_two():  # each reply names its request
                peer, _ = listener.accept()
                accepted.set()
                assert signalled.wait(10)
                with peer, peer.makefile("rb") as reader:
                    for n in (1, 2):
                        length = 0
                        while (line := reader.readline()) not in (b"\r\n", b""):
                            if line.lower().startswith(b"content-length:"):
                                length = int(line.split(b":")[1])
                        received.append(len(reader.read(length)))
                        peer.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 7"
                                     b"\r\n\r\n" + b'{"n":%d}' % n)

            server = threading.Thread(target=answer_two, daemon=True)
            server.start()
            conn = JsonConnection(
                "http://127.0.0.1:%d" % listener.getsockname()[1])
            killer = kill_when(accepted, signal.SIGINT, delay=0.2,
                               then=signalled.set)
            try:
                with pytest.raises(KeyboardInterrupt):
                    try:
                        conn.request("POST", "/big", body)
                    except KeyboardInterrupt:
                        # raised once the whole request was read and answered
                        assert received[:1] == [len(json.dumps(body))]
                        raise
                killer.join(5)
                assert conn.request("GET", "/next")[:2] == (200, b'{"n":2}')
            finally:
                conn.close()
            server.join(5)
        assert received == [len(json.dumps(body)), 0]

    def test_worker_thread_holds_nothing(self, server, make_client):
        # signal.signal raises ValueError off the main thread, so the
        # request would fail if it tried to swap a handler
        before, results = handlers(), []
        client = make_client(server.base_url)
        worker = threading.Thread(target=lambda: results.append(
            client.post("bags/a/history", {"n": 1})))
        worker.start()
        worker.join(10)
        assert not worker.is_alive()
        assert len(results) == 1 and "name" in results[0]
        assert handlers() == before


class TestServerErrors:
    def test_client_hang_up_is_one_debug_line(self, slow_server, make_client,
                                              capfd, caplog):
        # the client sends a POST and resets the connection while the store
        # holds it, so the reply meets a reset socket
        store, httpd = slow_server.store, slow_server.httpd
        with socket.create_connection(httpd.server_address[:2]) as sock:
            sock.sendall(b"POST /bags/a/history.json HTTP/1.1\r\n"
                         b"Content-Length: 2\r\n\r\n{}")
            assert store.holding.wait(5)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))  # close with an RST
        with caplog.at_level("DEBUG", logger="smartbag.store"):
            store.go.set()
            deadline = time.monotonic() + 5
            while httpd._connections and time.monotonic() < deadline:
                time.sleep(0.01)
        assert not httpd._connections
        assert "Exception occurred" not in capfd.readouterr().err
        [hung_up] = [r for r in caplog.records if "hung up" in r.getMessage()]
        assert hung_up.levelname == "DEBUG" and hung_up.exc_info is None
        # the server keeps serving, and the write was applied
        client = make_client(slow_server.base_url)
        assert [e.doc for e in client.get_history("bags/a/history")] == [{}]

    def test_other_faults_keep_their_traceback(self, server, capfd, caplog):
        try:
            raise RuntimeError("boom")
        except RuntimeError:
            server.httpd.handle_error(None, ("127.0.0.1", 1))
        [record] = caplog.records
        assert record.levelname == "ERROR"
        assert record.exc_info[0] is RuntimeError
        assert "Exception occurred" not in capfd.readouterr().err


def test_clients_hand_out_the_logged_text(tmp_path, make_client):
    # an entry replayed from a log written with spaces, and one written
    # live; both documents hold "doc" keys of their own
    log = tmp_path / "store.wal"
    log.write_bytes(wal([{"op": "append", "path": ["h", "s"], "id": "12",
                          "ts": 5, "doc": {"a": 1, "b": [1, 2],
                                           "doc": {"doc": 0}}}]))
    srv = StoreServer(Store(log_path=str(log))).start()
    try:
        client = make_client(srv.base_url)
        client.post("h/s", {"doc": '"doc": 1', "n": [1.5, -0.0]})
        over_http = client.get_history("h/s")
    finally:
        srv.stop()
    in_process = srv.store.get_history("h/s")
    assert in_process[0].text == '{"a": 1, "b": [1, 2], "doc": {"doc": 0}}'
    assert over_http == in_process


@pytest.mark.parametrize("method", ["patch", "get", "post", "get_history"])
def test_clients_share_signatures(method):
    # the gateway and the alert service run against any of the three
    expected = inspect.signature(getattr(Store, method))
    for cls in (HttpStoreClient, FaultyClient):
        assert inspect.signature(getattr(cls, method)) == expected, cls


def telemetry(n: int) -> list:
    """n gateway records, as the gateway builds them from simulated frames."""
    source = SimulatorSource(default_profiles(), seed=0)
    return [to_record(source.poll(i * 1000)[0], i * 1000) for i in range(n)]


class TestHistoryMemory:
    def test_store_memory_per_history_record(self, make_client):
        records = telemetry(2000)
        srv = StoreServer(Store())
        # one request per record, without the replies' delayed-ACK stall,
        # which this test does not measure
        srv.httpd.RequestHandlerClass.disable_nagle_algorithm = True
        srv.start()
        client = make_client(srv.base_url)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for record in records:
                client.post("bags/m/history", record)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            srv.stop()
        assert len(srv.store.get_history("bags/m/history")) == 2000
        assert held / 2000 <= 1000


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
