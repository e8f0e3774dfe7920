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

Transport: `HttpStoreClient` (and the alert webhook) sends each request
through a `JsonConnection`, one kept-alive HTTP/1.1 connection per client
object, built on the standard library's `http.client`. A client is not
shared between threads; give each thread its own. A request is never sent
twice on the client's own initiative: a refused, reset or timed-out
exchange and any 5xx reply raise StoreUnavailable, and the caller decides
whether to retry.

HTTP dialect (the `.json` suffix is mandatory; this module owns both ends):

    PATCH /bags/{id}/latest.json          merge body into the document
    GET   /bags/{id}/latest.json          current document or 404
    POST  /bags/{id}/history.json         append, returns {"name": pushId}
    GET   /bags/{id}/history.json?since=<pushId>&limit=<n>

A GET is a history read exactly when it carries `since` or `limit`; any
other GET reads the document. A history read always answers with a list,
empty for a path with no history. `since=` (empty) reads from the start,
since the empty string sorts before every push id.
"""

from __future__ import annotations

import bisect
import copy
import json
import logging
import re
import select
import socket
import struct
import threading
import zlib
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from operator import attrgetter
from urllib.parse import parse_qsl, quote, urlencode, urlsplit

from .clock import RealClock

logger = logging.getLogger(__name__)

_SEGMENT_RE = re.compile(r"^[A-Za-z0-9_-]+$")

# the largest request body the server reads; a longer one gets 413
MAX_BODY_BYTES = 1 << 20


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


_push_id = attrgetter("push_id")


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
        """A 20-digit id greater than every id issued or replayed before."""
        now = self.clock.now_ms()
        if now > self._last_ms:
            self._last_ms = now
            self._counter = 0
        elif self._counter < 99999:
            # wall clock stalled or went backwards: fall back to the counter
            self._counter += 1
        else:
            # the counter is full: carry into the millisecond field, so the
            # id keeps its width and still sorts after the ones before it
            self._last_ms += 1
            self._counter = 0
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
        """Entries after `since` (exclusive), oldest first, capped at limit.

        Push ids within a history only grow, so the first entry after
        `since` is found by bisection and only the returned slice is copied.
        """
        segments = parse_path(path)
        if limit is not None and limit < 0:
            raise ValueError("limit must be >= 0")
        with self._lock:
            entries = self.history.get(segments, [])
            start = 0 if since is None else bisect.bisect_right(
                entries, since, key=_push_id)
            end = len(entries) if limit is None else start + limit
            return entries[start:end]

    # no product caller: perfbench/pipeline.py probes it by name, so it goes
    # with that workload's next change (ROADMAP.md, item 1)
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

    def _reply(self, code: int, body, close: bool = False) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(code)
        if close:
            self.send_header("Connection", "close")  # also ends handle()
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _path_and_query(self):
        path, _, query = self.path.partition("?")
        if not path.endswith(".json"):
            self._reply(400, {"error": "path must end with .json"})
            return None, None
        # keep_blank_values: `since=` means "from the start"
        return path[:-len(".json")], dict(parse_qsl(query, keep_blank_values=True))

    def _read_doc(self):
        # a body left unread would be parsed as the next request, so each
        # refusal here also closes the connection
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0:
            self._reply(400, {"error": "bad Content-Length"}, close=True)
            return None
        if length > MAX_BODY_BYTES:
            self._reply(413, {"error": f"body over {MAX_BODY_BYTES} bytes"},
                        close=True)
            return None
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

    def _write(self, write):
        """Reply with `write(path, body)`, or 400 if the store refuses it.
        The body is read first, so a refused path leaves none of it unread."""
        doc = self._read_doc()
        if doc is None:
            return
        path, _ = self._path_and_query()
        if path is None:
            return
        try:
            result = write(path, doc)
        except StoreError as e:
            self._reply(400, {"error": str(e)})
            return
        self._reply(200, result)

    def do_PATCH(self):
        self._write(self.store.patch)

    def do_POST(self):
        self._write(lambda path, doc: {"name": self.store.append_history(path, doc)})

    def do_GET(self):
        path, params = self._path_and_query()
        if path is None:
            return
        try:
            if "since" in params or "limit" in params:
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


class JsonConnection:
    """JSON requests to one http(s) URL over one kept-alive connection.

    Paths given to `request` are appended to the URL's path and
    percent-quoted. Not safe to share between threads.
    """

    # characters left as they are in a request path; `%` keeps an escape
    # already in the URL from being quoted twice
    _PATH_SAFE = "/%!$&'()*+,;=:@~"

    def __init__(self, url: str, timeout: float = 5.0):
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"not an http(s) URL: {url!r}")
        conn_class = HTTPSConnection if parts.scheme == "https" else HTTPConnection
        self._prefix = parts.path.rstrip("/")
        self._query = parts.query
        self._conn = conn_class(parts.hostname, parts.port, timeout=timeout)

    def request(self, method: str, path: str = "", doc=None, query=None):
        """Send one request with `doc` as its JSON body; returns the reply's
        (status, body bytes). Raises StoreUnavailable when the exchange
        fails, without sending the request again."""
        target = quote(self._prefix + path, safe=self._PATH_SAFE) or "/"
        query = "&".join(q for q in (self._query, urlencode(query or {})) if q)
        if query:
            target += "?" + query
        body, headers = None, {}
        if doc is not None:
            body = json.dumps(doc).encode("utf-8")
            headers["Content-Type"] = "application/json"
        sock = self._conn.sock
        if sock is not None and select.select([sock], [], [], 0)[0]:
            # an idle kept-alive socket that reads ready was closed by the
            # peer; open a new one rather than send into it
            self._conn.close()
        try:
            self._conn.request(method, target, body=body, headers=headers)
            resp = self._conn.getresponse()
            return resp.status, resp.read()
        except (OSError, HTTPException) as e:
            self._conn.close()
            raise StoreUnavailable(f"{method} {target}: {e!r}") from None

    def close(self) -> None:
        self._conn.close()


class HttpStoreClient:
    """The store's client methods over HTTP."""

    def __init__(self, base_url: str, timeout: float = 5.0):
        self.http = JsonConnection(base_url, timeout)

    def _request(self, method: str, path: str, doc=None, query=None):
        path = f"/{path.strip('/')}.json"
        status, body = self.http.request(method, path, doc, query)
        if status == 404:
            return None
        if status >= 500:
            raise StoreUnavailable(f"{method} {path}: HTTP {status}")
        if status >= 400:
            raise ValueError(f"{method} {path}: "
                             f"{body.decode('utf-8', 'replace')}")
        return json.loads(body)

    def patch(self, path: str, doc: dict):
        return self._request("PATCH", path, doc)

    def post(self, path: str, doc: dict):
        return self._request("POST", path, doc)

    def get(self, path: str):
        return self._request("GET", path)

    def get_history(self, path: str, since=None, limit=None):
        # `since` makes this a history read; "" reads from the start
        query = {"since": since or ""}
        if limit is not None:
            query["limit"] = limit
        return [HistoryEntry(e["id"], e["doc"], e["ts"])
                for e in self._request("GET", path, query=query)]

    def close(self) -> None:
        self.http.close()


class _HttpServer(ThreadingHTTPServer):
    """Ends its open connections when it closes: a handler thread otherwise
    keeps serving a kept-alive connection, and the store behind it, until
    the client hangs up."""

    def __init__(self, address, handler):
        self._connections = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        super().server_close()
        with self._connections_lock:
            for request in self._connections:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:  # the client hung up already
                    pass


class StoreServer:
    """Threaded HTTP front end over a Store."""

    def __init__(self, store: Store, host: str = "127.0.0.1", port: int = 0):
        handler = type("BoundHandler", (_Handler,), {"store": store})
        self.store = store
        self.httpd = _HttpServer((host, port), handler)
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
