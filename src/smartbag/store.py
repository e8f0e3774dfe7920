"""Firebase-style document store.

Path-addressed JSON documents with merge-on-PATCH semantics plus per-path
append-only history streams. Every mutation is written to an append-only
log (length-prefixed, CRC32-tailed records) before it is acknowledged, and
the log is replayed on startup; a truncated or corrupt tail yields the
longest valid prefix.

Services talk to a store through four client methods, which `Store` and
`HttpStoreClient` both implement: `patch(path, doc)` returns the merged
document, `get(path)` returns it or None, `post(path, doc)` appends to a
history and returns `{"name": push_id}`, and `get_history(path, since=None,
limit=None)` returns `HistoryEntry`s oldest first. A malformed path raises
ValueError; an unreachable store raises StoreUnavailable. `Store` copies
the documents that `patch`, `post` and `get` take and return, so a caller
never shares state with it; `get_history` entries are shared, read-only.

HTTP dialect (the `.json` suffix is mandatory; this module owns both ends):

    PATCH /bags/{id}/latest.json          merge body into the document
    GET   /bags/{id}/latest.json          current document or 404
    POST  /bags/{id}/history.json         append, returns {"name": pushId}
    GET   /bags/{id}/history.json?since=<pushId>&limit=<n>
"""

from __future__ import annotations

import copy
import json
import logging
import re
import struct
import threading
import zlib
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import requests

from .clock import RealClock

logger = logging.getLogger(__name__)

_SEGMENT_RE = re.compile(r"^[A-Za-z0-9_-]+$")


class StoreError(ValueError):
    pass


class StoreUnavailable(Exception):
    pass


class BadPath(StoreError):
    pass


class BadDocument(StoreError):
    pass


def parse_path(path: str) -> tuple:
    """Split and validate a slash path into segments."""
    segments = tuple(s for s in path.strip("/").split("/"))
    if not segments or any(not _SEGMENT_RE.match(s) for s in segments):
        raise BadPath(f"malformed path {path!r}")
    return segments


def merge_docs(base, patch):
    """Shallow merge per top-level key, recursing into nested objects."""
    out = dict(base)
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge_docs(out[key], value)
        else:
            out[key] = value
    return out


@dataclass(frozen=True)
class HistoryEntry:
    push_id: str
    doc: dict
    server_ts: int


class Store:
    """In-memory state backed by an append-only log file."""

    def __init__(self, log_path=None, clock=None):
        self.clock = clock or RealClock()
        self.docs = {}
        self.history = {}
        self._lock = threading.Lock()
        self._last_ms = -1
        self._counter = 0
        self._log = None
        if log_path is not None:
            try:
                with open(log_path, "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:
                data = b""
            valid = self._replay(data)
            self._log = open(log_path, "ab")
            if valid < len(data):
                # new records must follow the valid prefix, or the next
                # replay would stop at the torn tail before reaching them
                logger.warning("store log: discarding %d bytes after offset %d",
                               len(data) - valid, valid)
                self._log.truncate(valid)

    # -- push ids ---------------------------------------------------------

    def _next_push_id(self) -> str:
        now = self.clock.now_ms()
        if now > self._last_ms:
            self._last_ms = now
            self._counter = 0
        else:
            # wall clock stalled or went backwards: fall back to the counter
            self._counter += 1
        return f"{self._last_ms:015d}{self._counter:05d}"

    def _observe_push_id(self, push_id: str) -> None:
        ms, counter = int(push_id[:15]), int(push_id[15:])
        if (ms, counter) > (self._last_ms, self._counter):
            self._last_ms, self._counter = ms, counter

    # -- log --------------------------------------------------------------

    def _log_record(self, record: dict) -> None:
        if self._log is None:
            return
        payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
        self._log.write(struct.pack("<I", len(payload)) + payload
                        + struct.pack("<I", zlib.crc32(payload)))
        self._log.flush()

    def _replay(self, data: bytes) -> int:
        """Apply the longest valid prefix of the log; returns its length."""
        pos = 0
        while True:
            if pos + 4 > len(data):
                break
            (length,) = struct.unpack_from("<I", data, pos)
            if pos + 4 + length + 4 > len(data):
                break  # truncated tail: keep the prefix
            payload = data[pos + 4:pos + 4 + length]
            (crc,) = struct.unpack_from("<I", data, pos + 4 + length)
            if zlib.crc32(payload) != crc:
                logger.warning("store log corrupt at offset %d; stopping replay", pos)
                break
            record = json.loads(payload.decode("utf-8"))
            self._apply(record)
            pos += 4 + length + 4
        return pos

    def _apply(self, record: dict) -> None:
        path = tuple(record["path"])
        if record["op"] == "patch":
            self.docs[path] = merge_docs(self.docs.get(path, {}), record["doc"])
        elif record["op"] == "append":
            entry = HistoryEntry(record["id"], record["doc"], record["ts"])
            self.history.setdefault(path, []).append(entry)
            self._observe_push_id(record["id"])
        else:
            logger.warning("unknown log op %r", record["op"])

    # -- operations -------------------------------------------------------

    def patch(self, path: str, doc: dict) -> dict:
        if not isinstance(doc, dict):
            raise BadDocument("PATCH body must be a JSON object")
        segments = parse_path(path)
        doc = copy.deepcopy(doc)
        with self._lock:
            self._log_record({"op": "patch", "path": list(segments), "doc": doc})
            merged = merge_docs(self.docs.get(segments, {}), doc)
            self.docs[segments] = merged
            return copy.deepcopy(merged)

    def get(self, path: str):
        """Last merged document, or None when the path was never written."""
        segments = parse_path(path)
        with self._lock:
            return copy.deepcopy(self.docs.get(segments))

    def append_history(self, path: str, doc: dict) -> str:
        if not isinstance(doc, dict):
            raise BadDocument("history entry must be a JSON object")
        segments = parse_path(path)
        doc = copy.deepcopy(doc)
        with self._lock:
            push_id = self._next_push_id()
            ts = self.clock.now_ms()
            self._log_record({"op": "append", "path": list(segments),
                              "doc": doc, "id": push_id, "ts": ts})
            self.history.setdefault(segments, []).append(
                HistoryEntry(push_id, doc, ts))
            return push_id

    def post(self, path: str, doc: dict) -> dict:
        return {"name": self.append_history(path, doc)}

    def get_history(self, path: str, since: str | None = None,
                    limit: int | None = None):
        """Entries after `since` (exclusive), oldest first, capped at limit."""
        segments = parse_path(path)
        with self._lock:
            entries = list(self.history.get(segments, []))
        if since is not None:
            entries = [e for e in entries if e.push_id > since]
        if limit is not None:
            entries = entries[:limit]
        return entries

    def has_history(self, path: str) -> bool:
        return parse_path(path) in self.history

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None


# --- HTTP layer ----------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    store: Store = None
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):
        logger.debug("http: " + fmt, *args)

    def _reply(self, code: int, body) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _path_and_query(self):
        path, _, query = self.path.partition("?")
        if not path.endswith(".json"):
            self._reply(400, {"error": "path must end with .json"})
            return None, None
        params = {}
        for part in query.split("&"):
            if "=" in part:
                key, value = part.split("=", 1)
                params[key] = value
        return path[:-len(".json")], params

    def _read_doc(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._reply(400, {"error": "body is not valid JSON"})
            return None
        if not isinstance(doc, dict):
            self._reply(400, {"error": "body must be a JSON object"})
            return None
        return doc

    def do_PATCH(self):
        path, _ = self._path_and_query()
        if path is None:
            return
        doc = self._read_doc()
        if doc is None:
            return
        try:
            merged = self.store.patch(path, doc)
        except StoreError as e:
            self._reply(400, {"error": str(e)})
            return
        self._reply(200, merged)

    def do_POST(self):
        path, _ = self._path_and_query()
        if path is None:
            return
        doc = self._read_doc()
        if doc is None:
            return
        try:
            push_id = self.store.append_history(path, doc)
        except StoreError as e:
            self._reply(400, {"error": str(e)})
            return
        self._reply(200, {"name": push_id})

    def do_GET(self):
        path, params = self._path_and_query()
        if path is None:
            return
        try:
            is_history = self.store.has_history(path)
            if is_history or "since" in params or "limit" in params:
                limit = int(params["limit"]) if "limit" in params else None
                entries = self.store.get_history(
                    path, since=params.get("since"), limit=limit)
                self._reply(200, [
                    {"id": e.push_id, "ts": e.server_ts, "doc": e.doc}
                    for e in entries])
                return
            doc = self.store.get(path)
        except ValueError as e:  # StoreError, or a bad limit
            self._reply(400, {"error": str(e)})
            return
        if doc is None:
            self._reply(404, {"error": "not found"})
        else:
            self._reply(200, doc)


class HttpStoreClient:
    """The store's client methods over HTTP."""

    def __init__(self, base_url: str, timeout: float = 5.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.session = requests.Session()

    def _request(self, method: str, path: str, doc=None, params=None):
        url = f"{self.base_url}/{path.strip('/')}.json"
        try:
            resp = self.session.request(method, url, json=doc, params=params,
                                        timeout=self.timeout)
        except requests.RequestException as e:
            raise StoreUnavailable(str(e)) from None
        if resp.status_code == 404:
            return None
        if resp.status_code >= 500:
            raise StoreUnavailable(f"{method} {url}: HTTP {resp.status_code}")
        if resp.status_code >= 400:
            raise ValueError(f"{method} {url}: {resp.text}")
        return resp.json()

    def patch(self, path: str, doc: dict):
        return self._request("PATCH", path, doc)

    def post(self, path: str, doc: dict):
        return self._request("POST", path, doc)

    def get(self, path: str):
        return self._request("GET", path)

    def get_history(self, path: str, since=None, limit=None):
        params = {}
        if since is not None:
            params["since"] = since
        if limit is not None:
            params["limit"] = str(limit)
        entries = self._request("GET", path, params=params or {"limit": "1000000"})
        if entries is None:
            return []
        return [HistoryEntry(e["id"], e["doc"], e["ts"]) for e in entries]


class StoreServer:
    """Threaded HTTP front end over a Store."""

    def __init__(self, store: Store, host: str = "127.0.0.1", port: int = 0):
        handler = type("BoundHandler", (_Handler,), {"store": store})
        self.store = store
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self._thread = None

    @property
    def base_url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "StoreServer":
        self._thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join()
        self.store.close()
