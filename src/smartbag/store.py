"""Firebase-style document store.

Path-addressed JSON documents with merge-on-PATCH semantics plus per-path
append-only history streams. Every mutation is written to an append-only
log (length-prefixed, CRC32-tailed records) before it is acknowledged, and
the log is replayed on startup; a truncated or corrupt tail yields the
longest valid prefix. Replay reads the log one record at a time, so
recovery holds one record in memory beyond the state it rebuilds, and a
garbage length prefix longer than the rest of the file ends the valid
prefix instead of being read.

A `Store` keeps each history entry as its push id, its server timestamp
and the JSON text of its document, exactly as the log record holds it, so
that writes and replay keep the same text. For the gateway's telemetry
record, with about 30 keys, an entry holds about 0.76 KB, against 2.2 KB as
a tree of dicts and floats.

Services talk to a store through four client methods, which `Store` and
`HttpStoreClient` both implement with the same signatures: `patch(path,
doc)` returns the merged document, `get(path)` returns it or None,
`post(path, doc, latest=None)` appends to a history and returns `{"name":
push_id}`, and `get_history(path, since=None, limit=None)` returns
`HistoryEntry`s oldest first. A `post` that names a `latest` document path
also merges the entry into that document, as a `patch` would, under the
same lock and in the same log record: a crash leaves both effects or
neither, and the gateway pushes a reading with one request. A malformed
path, `latest` included, raises ValueError before anything is written; an
unreachable store raises StoreUnavailable. A store keeps the JSON form of
what it logged, with or without a log: each write serializes its record
once, logs it, and applies the object decoded from those bytes, as replay
does, so a tuple is kept as a list and an int key as a string. A refused
write is undone: a document JSON cannot hold, or one that nests objects and
arrays deeper than MAX_DOC_DEPTH (64) levels, raises BadDocument, and a
failed log append is cut from the log and raises StoreUnavailable. A closed
store with a log refuses every write with StoreUnavailable. `patch`, `get`
and `get_history` return copies: `get_history` decodes the page it returns
on every call, so changing an entry's `doc` changes nothing in the store.
Replay skips a record whose document nests deeper than MAX_DOC_DEPTH, which
only a log written before that bound can hold, with a warning that gives
its offset; the records after it replay as usual.

Transport: `HttpStoreClient` (and the alert webhook) sends each request
through a `JsonConnection`, one kept-alive HTTP/1.1 connection per client
object, built on the standard library's `http.client`. A client is not
shared between threads; give each thread its own. A request is never sent
twice on the client's own initiative: a refused, reset or timed-out
exchange and any 5xx reply raise StoreUnavailable, and the caller decides
whether to retry. The HTTP stack loads only when a connection or server is
built: `http.client` (which loads `ssl`) in `JsonConnection`, `http.server`
(which loads `email`) in `StoreServer`. A process that builds or evaluates
models, or uses an in-process `Store`, imports neither.

HTTP dialect (the `.json` suffix is mandatory; this module owns both ends):

    PATCH /bags/{id}/latest.json          merge body into the document
    GET   /bags/{id}/latest.json          current document or 404
    POST  /bags/{id}/history.json         append, returns {"name": pushId}
    POST  /bags/{id}/history.json?latest=bags/{id}/latest
                                          append and merge into `latest`
    GET   /bags/{id}/history.json?since=<pushId>&limit=<n>

A GET is a history read exactly when it carries `since` or `limit`; any
other GET reads the document. A history read always answers with a list,
empty for a path with no history. `since=` (empty) reads from the start,
since the empty string sorts before every push id.

The server answers 200 with the result; 404 to a GET of a document never
written; 413 to a body over MAX_BODY_BYTES; 503 when the store cannot log a
write, which wrote nothing and is safe to resend; 500 to any other fault,
which it logs, and where a write may have been applied; and 400 to a path
without `.json`, a malformed path or `latest`, a bad `limit`, a body that
is not UTF-8 JSON or not an object, a document over MAX_DOC_DEPTH levels
deep, a bad `Content-Length`, a chunked body, or a GET with a body, where
the last three and the 413, which leave a body unread, also close the
connection.
"""

from __future__ import annotations

import bisect
import copy
import json
import logging
import os
import re
import select
import socket
import struct
import threading
import zlib
from dataclasses import dataclass
from operator import attrgetter
from urllib.parse import parse_qsl, quote, urlencode, urlsplit

from .clock import RealClock

logger = logging.getLogger(__name__)

_SEGMENT_RE = re.compile(r"^[A-Za-z0-9_-]+$")

# the largest request body the server reads; a longer one gets 413
MAX_BODY_BYTES = 1 << 20

# the deepest nesting of objects and arrays a stored document may have; a
# deeper one raises BadDocument. Copying and encoding a document recurse
# once per level, and a gateway record is 2 levels deep.
MAX_DOC_DEPTH = 64

# a log record's "doc" key, up to its value; the keys logged before it hold
# only an op name and path segments, so the first match is the key
_DOC_KEY = re.compile(r'"doc"[ \t\n\r]*:[ \t\n\r]*')
_raw_decode = json.JSONDecoder().raw_decode


def _parse_record(payload: str) -> tuple:
    """A log record's JSON text as (record, doc text): the record decoded,
    and the text of its "doc" value exactly as it was logged."""
    start = _DOC_KEY.search(payload).end()
    doc, end = _raw_decode(payload, start)
    record, _ = _raw_decode(payload[:start] + "0" + payload[end:])
    record["doc"] = doc
    return record, payload[start:end]


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


def _check_depth(doc: dict, text: str) -> None:
    """Raise BadDocument when `doc`, whose JSON is `text`, nests objects and
    arrays deeper than MAX_DOC_DEPTH. The walk is skipped when the text
    opens too few objects and arrays to nest that deep."""
    if text.count("{") + text.count("[") <= MAX_DOC_DEPTH:
        return
    stack = [(doc, 1)]
    while stack:
        node, depth = stack.pop()
        for child in node.values() if isinstance(node, dict) else node:
            if isinstance(child, (dict, list)):
                if depth == MAX_DOC_DEPTH:
                    raise BadDocument(f"document over {MAX_DOC_DEPTH} levels deep")
                stack.append((child, depth + 1))


def merge_docs(base, patch):
    """Shallow merge per top-level key, recursing into nested objects.

    Builds new dicts along the merged paths and mutates neither input. The
    result shares no dict with `patch` and may share values with `base`."""
    out = dict(base)
    for key, value in patch.items():
        if isinstance(value, dict):
            old = out.get(key)
            value = merge_docs(old if isinstance(old, dict) else {}, value)
        out[key] = value
    return out


@dataclass(frozen=True, slots=True)
class HistoryEntry:
    push_id: str
    doc: dict
    server_ts: int


@dataclass(frozen=True, slots=True)
class StoredEntry:
    """A history entry as a `Store` keeps it: `text` is the JSON of its
    document exactly as the log record holds it."""
    push_id: str
    text: str
    server_ts: int

    @property
    def doc(self) -> dict:
        """A new copy of the document, decoded from `text`."""
        return json.loads(self.text)


_push_id = attrgetter("push_id")


class Store:
    """In-memory state backed by an append-only log file."""

    def __init__(self, log_path=None, clock=None):
        self.clock = clock or RealClock()
        self.docs = {}
        self.history = {}
        self._lock = threading.Lock()
        # the last push id issued or replayed, as an integer: milliseconds
        # times 100000 plus a counter for ids within one millisecond
        self._last_id = -1
        self._log = None
        if log_path is not None:
            try:
                with open(log_path, "rb") as fh:
                    valid, size = self._replay(fh)
            except FileNotFoundError:
                valid = size = 0
            # unbuffered, so a failed write leaves no bytes behind to go out
            # with the next one
            self._log = open(log_path, "ab", buffering=0)
            if valid < size:
                # new records must follow the valid prefix, or the next
                # replay would stop at the torn tail before reaching them
                logger.warning("store log: discarding %d bytes after offset %d",
                               size - valid, valid)
                self._log.truncate(valid)
            self._log_end = valid  # where the last good record ends

    # -- log --------------------------------------------------------------

    def _commit(self, record: dict) -> None:
        """Log `record` with one write, then apply what replay parses from
        the same bytes. Runs under the lock. A record that is not JSON or
        nests too deep, or whose write fails, changes nothing: a failed
        write is cut from the log, and if that fails too, every later write
        is refused until a restart."""
        try:
            payload = json.dumps(record, separators=(",", ":"))
            record, text = _parse_record(payload)
        except RecursionError:  # nested past the encoder's limit
            raise BadDocument(f"document over {MAX_DOC_DEPTH} levels deep") from None
        except (TypeError, ValueError) as e:  # a set, a tuple key, a cycle
            raise BadDocument(f"document is not JSON: {e}") from None
        _check_depth(record["doc"], text)
        if self._log is not None:
            if self._log_end is None:
                raise StoreUnavailable("store log unusable until restart")
            data = payload.encode("utf-8")
            data = (struct.pack("<I", len(data)) + data
                    + struct.pack("<I", zlib.crc32(data)))
            try:
                if self._log.write(data) != len(data):
                    raise OSError("short write")
            except OSError as e:
                try:
                    self._log.truncate(self._log_end)
                except OSError:
                    logger.error("store log: cannot undo a failed write")
                    self._log_end = None
                raise StoreUnavailable(f"store log write failed: {e}") from None
            self._log_end += len(data)
        self._apply(record, text)

    def _replay(self, fh) -> tuple:
        """Apply the longest valid prefix of the log open in `fh`, one
        record at a time; returns (prefix length, file length). A record
        whose document nests deeper than MAX_DOC_DEPTH, which only a log
        written before that bound can hold, is skipped: the records after
        it were acknowledged too."""
        size = os.fstat(fh.fileno()).st_size
        pos = 0
        while pos + 4 <= size:
            (length,) = struct.unpack("<I", fh.read(4))
            if pos + 4 + length + 4 > size:
                break  # truncated tail, or a garbage length: keep the prefix
            body = fh.read(length + 4)
            payload = memoryview(body)[:length]
            (crc,) = struct.unpack_from("<I", body, length)
            if zlib.crc32(payload) != crc:
                logger.warning("store log corrupt at offset %d; stopping replay", pos)
                break
            try:
                record, text = _parse_record(str(payload, "utf-8"))
                _check_depth(record["doc"], text)
            except (BadDocument, RecursionError):
                logger.warning("store log: skipping the record at offset %d, "
                               "over %d levels deep", pos, MAX_DOC_DEPTH)
            else:
                self._apply(record, text)
            pos += 4 + length + 4
        return pos, size

    def _apply(self, record: dict, text: str) -> None:
        """The effects of one log record, as `_parse_record` returns it;
        writes and replay both run it."""
        path = tuple(record["path"])
        if record["op"] == "patch":
            self.docs[path] = merge_docs(self.docs.get(path, {}), record["doc"])
        elif record["op"] == "append":
            entry = StoredEntry(record["id"], text, record["ts"])
            self.history.setdefault(path, []).append(entry)
            self._last_id = max(self._last_id, int(record["id"]))
            if "latest" in record:  # absent from logs written before it
                latest = tuple(record["latest"])
                self.docs[latest] = merge_docs(self.docs.get(latest, {}),
                                               record["doc"])
        else:
            logger.warning("unknown log op %r", record["op"])

    # -- operations -------------------------------------------------------

    def patch(self, path: str, doc: dict) -> dict:
        if not isinstance(doc, dict):
            raise BadDocument("PATCH body must be a JSON object")
        segments = parse_path(path)
        record = {"op": "patch", "path": list(segments), "doc": doc}
        with self._lock:
            self._commit(record)
            return copy.deepcopy(self.docs[segments])

    def get(self, path: str) -> dict | None:
        """Last merged document, or None when the path was never written."""
        segments = parse_path(path)
        with self._lock:
            return copy.deepcopy(self.docs.get(segments))

    def append_history(self, path: str, doc: dict,
                       latest: str | None = None) -> str:
        """Append `doc` to the history at `path`; with `latest`, also merge
        it into that document, in the same log record."""
        if not isinstance(doc, dict):
            raise BadDocument("history entry must be a JSON object")
        record = {"op": "append", "path": list(parse_path(path))}
        if latest is not None:
            record["latest"] = list(parse_path(latest))
        record["doc"] = doc
        with self._lock:
            # greater than every id issued or replayed before: the clock's
            # millisecond, or one past the last id when the clock stalled,
            # went back or filled its millisecond's counter. `_apply` moves
            # `_last_id` to it once the write is committed.
            last = max(self._last_id + 1, self.clock.now_ms() * 100000)
            record["id"] = push_id = f"{last:020d}"
            record["ts"] = self.clock.now_ms()
            self._commit(record)
            return push_id

    def post(self, path: str, doc: dict, latest: str | None = None) -> dict:
        return {"name": self.append_history(path, doc, latest)}

    def get_history(self, path: str, since: str | None = None,
                    limit: int | None = None) -> list:
        """Entries after `since` (exclusive), oldest first, capped at limit.

        Push ids within a history only grow, so the first entry after
        `since` is found by bisection and only the returned page is decoded,
        into new documents on every call.
        """
        segments = parse_path(path)
        if limit is not None and limit < 0:
            raise ValueError("limit must be >= 0")
        with self._lock:
            entries = self.history.get(segments, [])
            start = 0 if since is None else bisect.bisect_right(
                entries, since, key=_push_id)
            end = len(entries) if limit is None else start + limit
            page = entries[start:end]
        return [HistoryEntry(e.push_id, e.doc, e.server_ts) for e in page]

    # no product caller: perfbench/pipeline.py probes it by name, so it goes
    # with that workload's next change (ROADMAP.md, item 1)
    def has_history(self, path: str) -> bool:
        return parse_path(path) in self.history

    def close(self) -> None:
        """Close the log; a store with a log then refuses every write."""
        if self._log is not None:
            self._log.close()
            self._log_end = None


# --- HTTP layer ----------------------------------------------------------


class _Refused(Exception):
    """A request answered with `status`; `close` also ends the connection."""

    def __init__(self, status: int, message: str, close: bool = False):
        super().__init__(message)
        self.status, self.close = status, close


class _Handler:
    """The store's request handling; `StoreServer` mixes it into
    `http.server.BaseHTTPRequestHandler`."""

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

    def _serve(self, answer) -> None:
        """Reply 200 with `answer()`, or with the error status for what it
        raises; the only caller of `_reply`."""
        try:
            body = answer()
        except _Refused as e:
            self._reply(e.status, {"error": str(e)}, close=e.close)
        except StoreUnavailable as e:  # nothing was written: safe to resend
            self._reply(503, {"error": str(e)})
        except ValueError as e:  # StoreError, or a bad limit
            self._reply(400, {"error": str(e)})
        except Exception as e:  # a fault of the store, not of the request
            logger.exception("%s %s failed", self.command, self.path)
            self._reply(500, {"error": f"internal error: {type(e).__name__}"})
        else:
            self._reply(200, body)

    def _path(self) -> tuple:
        """The store path and the query parameters of the request."""
        path, _, query = self.path.partition("?")
        if not path.endswith(".json"):
            raise _Refused(400, "path must end with .json")
        # keep_blank_values: `since=` means "from the start"
        return path[:-len(".json")], dict(parse_qsl(query, keep_blank_values=True))

    def _body(self):
        """The request's JSON body, read before the path is checked. A body
        left unread would be parsed as the next request, so each refusal to
        read one also closes the connection."""
        if "Transfer-Encoding" in self.headers:
            raise _Refused(400, "Transfer-Encoding is not supported",
                           close=True)
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0:
            raise _Refused(400, "bad Content-Length", close=True)
        if length > MAX_BODY_BYTES:
            raise _Refused(413, f"body over {MAX_BODY_BYTES} bytes",
                           close=True)
        try:
            return json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, RecursionError):  # bad UTF-8, or nested too deep
            raise _Refused(400, "body is not valid JSON") from None

    def do_PATCH(self):
        def patch():
            doc = self._body()
            return self.store.patch(self._path()[0], doc)
        self._serve(patch)

    def do_POST(self):
        def append():
            doc = self._body()
            path, query = self._path()
            return {"name": self.store.append_history(
                path, doc, latest=query.get("latest"))}
        self._serve(append)

    def do_GET(self):
        def read():
            # no GET reads a body, so one that carries a body closes the
            # connection, as `_body` does
            if (self.headers.get("Content-Length", "0").strip() != "0"
                    or "Transfer-Encoding" in self.headers):
                raise _Refused(400, "GET takes no body", close=True)
            path, query = self._path()
            if "since" in query or "limit" in query:
                limit = int(query["limit"]) if "limit" in query else None
                return [{"id": e.push_id, "ts": e.server_ts, "doc": e.doc}
                        for e in self.store.get_history(
                            path, since=query.get("since"), limit=limit)]
            doc = self.store.get(path)
            if doc is None:
                raise _Refused(404, "not found")
            return doc
        self._serve(read)


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
        # imported here, not at module level: http.client loads ssl
        from http.client import HTTPConnection, HTTPException, HTTPSConnection
        conn_class = HTTPSConnection if parts.scheme == "https" else HTTPConnection
        self._prefix = parts.path.rstrip("/")
        self._query = parts.query
        self._conn = conn_class(parts.hostname, parts.port, timeout=timeout)
        self._failures = (OSError, HTTPException)

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
        if sock is not None:
            # an idle kept-alive socket that polls ready was closed by the
            # peer; open a new one rather than send into it. poll, unlike
            # select, takes file descriptors past 1023.
            idle = select.poll()
            idle.register(sock, select.POLLIN)
            if idle.poll(0):
                self._conn.close()
        try:
            self._conn.request(method, target, body=body, headers=headers)
            resp = self._conn.getresponse()
            return resp.status, resp.read()
        except self._failures as e:
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
        return json.loads(body.decode("utf-8"))

    def patch(self, path: str, doc: dict) -> dict:
        return self._request("PATCH", path, doc)

    def post(self, path: str, doc: dict, latest: str | None = None) -> dict:
        query = None if latest is None else {"latest": latest}
        return self._request("POST", path, doc, query)

    def get(self, path: str) -> dict | None:
        return self._request("GET", path)

    def get_history(self, path: str, since: str | None = None,
                    limit: int | None = None) -> list:
        # `since` makes this a history read; "" reads from the start
        query = {"since": since or ""}
        if limit is not None:
            query["limit"] = limit
        return [HistoryEntry(e["id"], e["doc"], e["ts"])
                for e in self._request("GET", path, query=query)]

    def close(self) -> None:
        self.http.close()


class _HttpServer:
    """Ends its open connections when it closes: a handler thread otherwise
    keeps serving a kept-alive connection, and the store behind it, until
    the client hangs up. `StoreServer` mixes it into
    `http.server.ThreadingHTTPServer`."""

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


# how often, in seconds, a serving loop checks whether `stop` was called
POLL_INTERVAL_S = 0.05


class StoreServer:
    """Threaded HTTP front end over a Store."""

    def __init__(self, store: Store, host: str = "127.0.0.1", port: int = 0):
        # imported here, not at module level: http.server loads email
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
        handler = type("BoundHandler", (_Handler, BaseHTTPRequestHandler),
                       {"store": store})
        server = type("HttpServer", (_HttpServer, ThreadingHTTPServer), {})
        self.store = store
        self.httpd = server((host, port), handler)
        self._thread = None

    @property
    def base_url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "StoreServer":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self.httpd.serve_forever(POLL_INTERVAL_S)

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join()
        self.store.close()
