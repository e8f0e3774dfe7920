"""Crash states of every file a service writes.

A recorder stands in for the `open` and `os` that `smartbag.files` calls,
so each write, truncate, rename and removal of a scripted run is recorded
as an operation on a directory's files, by name, as it reaches the real
file. From the record, `crash_states` rebuilds every state a crash of the
process can leave: the files after each prefix of the operations, and with
the write after that prefix torn at each byte. Each state is written out
and recovered through the file's real reader. Nothing here models a power
loss: nothing is fsynced, so a rename or a write may reach the disk before
the data written ahead of it.
"""

import contextlib
import errno
import os
from pathlib import Path

import numpy as np
import pytest

from smartbag import files, frames, nn
from smartbag.alerts import AlertEvent, AlertService, NotificationLog
from smartbag.cli import main
from smartbag.clock import VirtualClock
from smartbag.dataset import default_profiles, generate, load_csv, save_csv
from smartbag.store import Store, StoreUnavailable

from test_alerts import record_from_features
from test_gateway import trace_lines


class RecordedFile:
    """A file `smartbag.files` opened for writing; its writes and truncates
    are recorded, then done."""

    def __init__(self, recorder, name, fh):
        self.recorder, self.name, self.fh = recorder, name, fh

    def write(self, data):
        data = bytes(data)
        torn, self.recorder.tear_next_write = self.recorder.tear_next_write, None
        if torn is not None:  # part of the write lands, then it fails
            self.recorder.ops.append(("write", self.name, data[:torn]))
            self.fh.write(data[:torn])
            raise OSError(errno.ENOSPC, "No space left on device")
        self.recorder.ops.append(("write", self.name, data))
        return self.fh.write(data)

    def truncate(self, size):
        self.recorder.ops.append(("truncate", self.name, size))
        return self.fh.truncate(size)

    def __getattr__(self, attr):  # fileno, close
        return getattr(self.fh, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class Recorder:
    """Stands in for `open` and for `os` in `smartbag.files`. Operations
    name files by their base name: every file of a run is in one directory.
    Set `tear_next_write` to a byte count to make the next write fail after
    that many of its bytes."""

    def __init__(self):
        self.ops = []
        self.tear_next_write = None

    def open(self, path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        if "r" in mode:
            return fh
        name = Path(os.fsdecode(path)).name
        self.ops.append(("create" if "w" in mode else "open", name))
        return RecordedFile(self, name, fh)

    def replace(self, src, dst):
        os.replace(src, dst)
        self.ops.append(("rename", Path(src).name, Path(dst).name))

    def remove(self, path):
        os.remove(path)
        self.ops.append(("remove", Path(path).name))

    def __getattr__(self, attr):  # the os functions that change no file
        return getattr(os, attr)


@contextlib.contextmanager
def recording(monkeypatch):
    recorder = Recorder()
    with monkeypatch.context() as patch:
        patch.setattr(files, "open", recorder.open, raising=False)
        patch.setattr(files, "os", recorder)
        yield recorder


def apply(state: dict, op) -> dict:
    """The files after `op`, as a new dict of name -> bytes."""
    state = dict(state)
    kind, name = op[:2]
    if kind == "open":  # for appending: made empty when missing
        state.setdefault(name, b"")
    elif kind == "create":
        state[name] = b""
    elif kind == "write":
        state[name] += op[2]
    elif kind == "truncate":
        state[name] = state[name][:op[2]]
    elif kind == "rename":
        state[op[2]] = state.pop(name)
    elif kind == "remove":
        del state[name]
    return state


def crash_states(ops):
    """Every state a process crash can leave, as (operations done, files):
    after each prefix of `ops`, and with the write after it torn at each
    byte."""
    state = {}
    for done, op in enumerate(ops):
        yield done, state
        if op[0] == "write":
            name, data = op[1], op[2]
            for cut in range(1, len(data)):
                yield done, {**state, name: state[name] + data[:cut]}
        state = apply(state, op)
    yield len(ops), state


def final_state(ops, directory) -> dict:
    """The files the record rebuilds after the whole run, checked against
    the directory the run wrote: a write the recorder missed fails here."""
    *_, (_, state) = crash_states(ops)
    assert state == {p.name: p.read_bytes() for p in directory.iterdir()}
    return state


def recover_each(ops, names, directory, recover):
    """Call `recover(done, path)` once for each distinct content of the
    files in `names` among the crash states of `ops`, with those files
    written to `directory` and `path` the first of them. Returns how many
    states there were."""
    seen, count = set(), 0
    for done, state in crash_states(ops):
        count += 1
        visible = tuple(state.get(name) for name in names)
        if visible in seen:
            continue
        seen.add(visible)
        for p in directory.iterdir():
            p.unlink()
        for name, data in zip(names, visible):
            if data is not None:
                (directory / name).write_bytes(data)
        recover(done, directory / names[0])
    return count


def acknowledged(marks, done) -> int:
    """How many writes had returned once `done` operations were done;
    `marks` holds the operation count as each write returned."""
    return sum(mark <= done for mark in marks)


def renamed(ops, name, done) -> int:
    """How many renames onto `name` are among the first `done` ops."""
    return sum(op[0] == "rename" and op[2] == name for op in ops[:done])


@pytest.fixture
def dirs(tmp_path):
    run, crash = tmp_path / "run", tmp_path / "crash"
    run.mkdir()
    crash.mkdir()
    return run, crash


# -- append logs --------------------------------------------------------------

# (method, path, document, latest); the write at FAILED_WRITE fails after
# 10 of its bytes reach the log
WAL_WRITES = [
    ("patch", "bags/a/latest", {"n": 1}, None),
    ("post", "bags/a/history", {"seq": 1, "gps": {"lat": 2.5}},
     "bags/a/latest"),
    ("patch", "bags/a/commands", {"alarm": 1}, None),
    ("post", "bags/a/history", {"seq": 2, "note": "é"}, None),
    ("post", "bags/a/history", {"seq": 3}, "bags/a/latest"),
]
FAILED_WRITE = 2


def write(store, clock, method, path, doc, latest):
    clock.advance(1)
    if method == "patch":
        store.patch(path, doc)
    else:
        store.post(path, doc, latest)


def test_wal_replays_an_acknowledged_prefix(dirs, monkeypatch):
    run, crash = dirs
    clock = VirtualClock(1000)
    marks = []
    with recording(monkeypatch) as rec:
        store = Store(log_path=run / "s.wal", clock=clock)
        for i, args in enumerate(WAL_WRITES):
            if i == FAILED_WRITE:
                rec.tear_next_write = 10
                with pytest.raises(StoreUnavailable):
                    write(store, clock, *args)
                continue
            write(store, clock, *args)
            marks.append(len(rec.ops))
        store.close()
    final_state(rec.ops, run)
    assert [op[0] for op in rec.ops].count("truncate") == 1  # the undo

    # the state after each prefix of the writes, as an in-memory store on
    # the same clock has it
    oracle_clock = VirtualClock(1000)
    oracle = Store(clock=oracle_clock)
    prefixes = [({}, {})]
    for i, args in enumerate(WAL_WRITES):
        if i == FAILED_WRITE:
            oracle_clock.advance(1)
            continue
        write(oracle, oracle_clock, *args)
        prefixes.append((dict(oracle.docs),
                         {k: list(v) for k, v in oracle.history.items()}))

    def recover(done, log):
        replayed = Store(log_path=log)
        docs, history = dict(replayed.docs), dict(replayed.history)
        assert prefixes.index((docs, history)) >= acknowledged(marks, done)
        # a write after recovery follows the valid prefix, and survives
        replayed.patch("bags/z/latest", {"after": done})
        replayed.close()
        reopened = Store(log_path=log)
        reopened.close()
        assert reopened.docs == {**docs, ("bags", "z", "latest"): {"after": done}}
        assert reopened.history == history

    assert recover_each(rec.ops, ["s.wal"], crash, recover) > 100


def event(i: int) -> AlertEvent:
    return AlertEvent("SOS", "EMERGENCY", "BAG1", i, f"event {i}")


def test_notification_log_reads_every_complete_line(dirs, monkeypatch):
    run, crash = dirs
    marks, delivered = [], []
    with recording(monkeypatch) as rec:
        log = NotificationLog(run / "n.jsonl")
        for i in range(4):
            if i == 2:  # fails after 5 of its bytes reach the file
                rec.tear_next_write = 5
                with pytest.raises(OSError):
                    log.deliver(event(i))
                continue
            log.deliver(event(i))
            marks.append(len(rec.ops))
            delivered.append(event(i).to_json())
    final_state(rec.ops, run)

    # built before the crash states are laid down, so its reads see each
    # state as it is: opening a log for an append cuts a torn line
    reader = NotificationLog(crash / "n.jsonl")

    def recover(done, path):
        events = reader.read()
        assert events == delivered[:len(events)], done
        assert len(events) >= acknowledged(marks, done)
        # a torn line is cut, never glued to the next event
        NotificationLog(path).deliver(event(9))
        assert reader.read() == events + [event(9).to_json()]

    assert recover_each(rec.ops, ["n.jsonl"], crash, recover) > 100


# -- files replaced whole -----------------------------------------------------

def check_replaced(ops, name, versions, directory, read) -> None:
    """In every crash state the file `name` is absent before the first
    rename onto it, and after that holds the version of the last rename,
    which `read` returns whole."""
    def recover(done, path):
        count = renamed(ops, name, done)
        if count == 0:
            assert not path.exists(), done
        else:
            assert read(path) == versions[count - 1], done

    assert recover_each(ops, [name], directory, recover) > len(versions)


def test_cursor_is_the_old_or_the_new_one(dirs, monkeypatch, model_file):
    run, crash = dirs
    store, clock = Store(), VirtualClock(0)
    idle = default_profiles()[0]
    with recording(monkeypatch) as rec:
        service = AlertService(store, model_file, cursor_path=run / "c.json",
                               clock=clock)
        saved = []
        for _ in range(2):
            for _ in range(2):
                clock.advance(1)
                saved.append(store.append_history(
                    "bags/BAG1/history", record_from_features(idle.mean)))
            service.poll_once()
    final_state(rec.ops, run)

    def read(path):
        return AlertService(Store(), model_file, cursor_path=path).cursor

    check_replaced(rec.ops, "c.json", saved, crash, read)


def test_model_is_the_old_or_the_new_one(dirs, monkeypatch, tmp_path,
                                         capsys):
    run, crash = dirs
    data = tmp_path / "d.csv"
    save_csv(generate(default_profiles(), 60, seed=0), data)
    with recording(monkeypatch) as rec:
        for seed in (0, 1):
            assert main(["train", "--data", str(data), "--epochs", "1",
                         "--seed", str(seed), "--out", str(run / "m.bagm")]) == 0
    capsys.readouterr()
    final_state(rec.ops, run)
    blobs = [op[2] for op in rec.ops if op[0] == "write"]
    assert len(blobs) == 2 and blobs[0] != blobs[1]

    def read(path):
        blob = path.read_bytes()
        nn.import_model(blob)  # a model the alert service can load
        return blob

    check_replaced(rec.ops, "m.bagm", blobs, crash, read)


def test_csv_is_the_old_or_the_new_one(dirs, monkeypatch):
    run, crash = dirs
    versions = [generate(default_profiles(), 12, seed=s) for s in (0, 1)]
    with recording(monkeypatch) as rec:
        for data in versions:
            save_csv(data, run / "d.csv")
    final_state(rec.ops, run)

    def read(path):
        data = load_csv(path)
        return next(i for i, v in enumerate(versions)
                    if np.array_equal(v.features, data.features)
                    and np.array_equal(v.labels, data.labels))

    check_replaced(rec.ops, "d.csv", [0, 1], crash, read)


def test_trace_is_the_old_or_the_new_one(dirs, monkeypatch):
    run, crash = dirs
    versions = [[frames.parse_frame(line) for line in trace_lines(n)]
                for n in (2, 3)]
    with recording(monkeypatch) as rec:
        for recorded in versions:
            frames.write_trace(recorded, run / "t.txt")
    final_state(rec.ops, run)

    def read(path):
        return frames.TraceSource.from_file(path, start_ms=0).poll(10 ** 9)

    check_replaced(rec.ops, "t.txt", versions, crash, read)


# -- the primitives -----------------------------------------------------------

def test_append_log_cuts_to_the_scanned_prefix(tmp_path, caplog):
    path = tmp_path / "log"
    path.write_bytes(b"good\ntorn")
    log = files.AppendLog(path, lambda fh: fh.read().rfind(b"\n") + 1)
    log.append(b"next\n")
    log.close()
    assert path.read_bytes() == b"good\nnext\n"
    assert "discarding 4 bytes after offset 5" in caplog.text


def test_check_replaceable_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "cursor"
    path.write_bytes(b"old")
    files.check_replaceable(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cursor"]
    assert path.read_bytes() == b"old"
    with pytest.raises(FileNotFoundError):
        files.check_replaceable(tmp_path / "missing" / "cursor")
