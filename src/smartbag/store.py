"""Firebase-style document store.

Path-addressed JSON documents with merge-on-PATCH semantics plus per-path
append-only history streams. Every mutation is written to a log of
length-prefixed, CRC32-tailed records before it is acknowledged, and the
log is replayed on startup; a truncated or corrupt tail yields the longest
valid prefix. The log is a `files.AppendLog`: each record goes out in one
write, a failed write is cut from the file, and at open the file is cut to
the prefix replay reached, so a later record never follows a torn one. No
write is fsynced: an acknowledged write survives a crash of the process,
not a power loss. Replay reads the log one record at a time, so recovery
holds one record in memory beyond the state it rebuilds, and a garbage
length prefix longer than the rest of the file ends the valid prefix
instead of being read.

A history entry, `HistoryEntry(push_id, text, server_ts)`, holds the JSON
text of its document as the log record holds it, so writes and replay keep
the same text; from either client, its `doc` decodes a new copy on every
access. A gateway record of about 30 keys takes 0.76 KB so, against 2.2 KB
as a tree of dicts and floats.

Services talk to a store through four client methods, which `Store` and
`HttpStoreClient` both implement with the same signatures: `patch(path,
doc)` merges `doc` into the document and returns None, `get(path)` returns
the merged document or None, `post(path, doc, latest=None)` appends to a
history and returns `{"name": push_id}`, and `get_history(path,
since=None, limit=None)` returns `HistoryEntry`s oldest first. A `post`
that names a `latest` document path also merges the entry into that
document, as a `patch` would, under the same lock and in the same log
record: a crash leaves both effects or neither, and the gateway pushes a
reading with one request. A malformed
path, `latest` included, raises ValueError before anything is written; an
unreachable store raises StoreUnavailable. A store keeps the JSON form of
what it logged, with or without a log: each write serializes its record
once, logs it, and applies the object decoded from those bytes, as replay
does, so a tuple is kept as a list and an int key as a string. A refused
write is undone: a document JSON cannot hold, or one that nests objects and
arrays deeper than MAX_DOC_DEPTH (64) levels, raises BadDocument, and a
failed log append is cut from the log and raises StoreUnavailable. A closed
store with a log refuses every write with StoreUnavailable. `get`
returns a copy and `get_history` the store's immutable entries, so
changing a document read changes nothing in the store. Replay skips a
record whose document nests deeper than MAX_DOC_DEPTH, which only a log
written before that bound can hold, with a warning that gives its offset;
the records after it replay as usual.

Transport: `HttpStoreClient` (and the alert webhook) sends each request
through a `JsonConnection`, one kept-alive HTTP/1.1 connection per client
object, built on the standard library's `http.client`. A client is not
shared between threads; give each thread its own. A request is never sent
twice on the client's own initiative: a refused, reset or timed-out
exchange and any 5xx reply raise StoreUnavailable, and the caller decides
whether to retry. On the main thread, SIGINT and SIGTERM wait for the
exchange to end. The HTTP stack loads only when a connection or server is
built: `http.client` (which loads `ssl`) in `JsonConnection`, `http.server`
(which loads `email`) in `StoreServer`. A process that builds or evaluates
models, or uses an in-process `Store`, imports neither.

HTTP dialect (the `.json` suffix is mandatory; this module owns both ends):

    PATCH /bags/{id}/latest.json          merge body into the document,
                                          returns null
    GET   /bags/{id}/latest.json          current document or 404
    POST  /bags/{id}/history.json         append, returns {"name": pushId}
    POST  /bags/{id}/history.json?latest=bags/{id}/latest
                                          append and merge into `latest`
    GET   /bags/{id}/history.json?since=<pushId>&limit=<n>

A GET is a history read exactly when it carries `since` or `limit`; any
other GET reads the document. A history read answers with a compact JSON
list of `{"id","ts","doc"}` objects, each `doc` an entry's logged text as
it is, empty for a path with no history. `since=` (empty) reads from the
start, since the empty string sorts before every push id.

The server answers 200 with the result, `null` to a PATCH; 404 to a GET of
a document never written; 413 to a body over MAX_BODY_BYTES; 503 when the
store cannot log a write, which wrote nothing and is safe to resend; 500 to
any other fault, which it logs, and where a write may have been applied;
and 400 to a path without `.json`, a malformed path or `latest`, a bad
`limit`, a body that is not UTF-8 JSON or not an object, a document over
MAX_DOC_DEPTH levels deep, a bad `Content-Length`, a chunked body, or a GET
with a body, where the last three and the 413, which leave a body unread,
also close the connection.
"""

from __future__ import annotations

import bisect
import contextlib
import copy
import json
import logging
import os
import re
import select
import signal
import socket
import struct
import sys
import threading
import zlib
from dataclasses import dataclass
from operator import attrgetter
from urllib.parse import parse_qsl, quote, urlencode, urlsplit

from . import files
from .clock import RealClock

logger = logging.getLogger(__name__)

_SEGMENT_RE = re.compile(r"[A-Za-z0-9_-]+")

# the largest request body the server reads; a longer one gets 413
MAX_BODY_BYTES = 1 << 20

# the deepest nesting of objects and arrays a stored document may have; a
# deeper one raises BadDocument. Copying and encoding a document recurse
# once per level, and a gateway record is 2 levels deep.
MAX_DOC_DEPTH = 64

# a "doc" key, up to its value, in a log record or a history reply; the keys
# before it hold only an op name and path segments, or an id and a time, so
# the first match is the key
_DOC_KEY = re.compile(r'"doc"[ \t\n\r]*:[ \t\n\r]*')
_raw_decode = json.JSONDecoder().raw_decode
# what the store logs and what a history reply holds
_compact_json = json.JSONEncoder(separators=(",", ":")).encode


def _cut_docs(text: str) -> tuple:
    """A log record's or a history reply's JSON text, decoded with each
    "doc" value put as 0, and those values as (decoded, text exactly as
    `text` holds it)."""
    rest, docs, pos = [], [], 0
    while (key := _DOC_KEY.search(text, pos)) is not None:
        doc, end = _raw_decode(text, key.end())
        rest.append(text[pos:key.end()] + "0")
        docs.append((doc, text[key.end():end]))
        pos = end
    rest.append(text[pos:])
    return json.loads("".join(rest)), docs


def _parse_record(payload: str) -> tuple:
    """A log record's JSON text as (record, doc text): the record decoded,
    and the text of its "doc" value exactly as it was logged."""
    record, [(doc, text)] = _cut_docs(payload)
    record["doc"] = doc
    return record, text


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
    if not segments or any(not _SEGMENT_RE.fullmatch(s) for s in segments):
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
    """A history entry: `text` is the JSON of its document exactly as the
    log record holds it."""
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
        # replayed at open, which cuts a torn tail from the file
        self._log = (None if log_path is None
                     else files.AppendLog(log_path, self._replay))

    # -- log --------------------------------------------------------------

    def _commit(self, record: dict) -> None:
        """Log `record` with one write, then apply what replay parses from
        the same bytes. Runs under the lock. A record that is not JSON or
        nests too deep, or whose write fails, changes nothing: the log cuts
        a failed write, and if it cannot, refuses every later write until a
        restart."""
        try:
            payload = _compact_json(record)
            record, text = _parse_record(payload)
        except RecursionError:  # nested past the encoder's limit
            raise BadDocument(f"document over {MAX_DOC_DEPTH} levels deep") from None
        except (TypeError, ValueError) as e:  # a set, a tuple key, a cycle
            raise BadDocument(f"document is not JSON: {e}") from None
        _check_depth(record["doc"], text)
        if self._log is not None:
            data = payload.encode("utf-8")
            try:
                self._log.append(struct.pack("<I", len(data)) + data
                                 + struct.pack("<I", zlib.crc32(data)))
            except OSError as e:
                raise StoreUnavailable(f"store log write failed: {e}") from None
        self._apply(record, text)

    def _replay(self, fh) -> int:
        """Apply the longest valid prefix of the log open in `fh`, one
        record at a time, and return its length. A record
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
        return pos

    def _apply(self, record: dict, text: str) -> None:
        """The effects of one log record, as `_parse_record` returns it;
        writes and replay both run it."""
        path = tuple(record["path"])
        if record["op"] == "patch":
            self.docs[path] = merge_docs(self.docs.get(path, {}), record["doc"])
        elif record["op"] == "append":
            entry = HistoryEntry(record["id"], text, record["ts"])
            self.history.setdefault(path, []).append(entry)
            self._last_id = max(self._last_id, int(record["id"]))
            if "latest" in record:  # absent from logs written before it
                latest = tuple(record["latest"])
                self.docs[latest] = merge_docs(self.docs.get(latest, {}),
                                               record["doc"])
        else:
            logger.warning("unknown log op %r", record["op"])

    # -- operations -------------------------------------------------------

    def patch(self, path: str, doc: dict) -> None:
        """Merge `doc` into the document at `path`; `get` reads the result."""
        if not isinstance(doc, dict):
            raise BadDocument("PATCH body must be a JSON object")
        record = {"op": "patch", "path": list(parse_path(path)), "doc": doc}
        with self._lock:
            self._commit(record)

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
        """The store's own (immutable) entries after `since` (exclusive),
        oldest first, capped at limit; none is decoded. Push ids within a
        history only grow, so the first is found by bisection."""
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
        """Close the log; a store with a log then refuses every write."""
        if self._log is not None:
            self._log.close()


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
        # a history page comes as bytes, encoded already
        data = body if isinstance(body, bytes) else json.dumps(body).encode()
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
        def patch():  # answers null: a GET reads the merged document
            doc = self._body()
            self.store.patch(self._path()[0], doc)
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
                page = self.store.get_history(path, since=query.get("since"),
                                              limit=limit)
                # each entry's logged text goes into the reply as it is
                return ("[" + ",".join(
                    f'{{"id":{_compact_json(e.push_id)},'
                    f'"ts":{_compact_json(e.server_ts)},"doc":{e.text}}}'
                    for e in page) + "]").encode("utf-8")
            doc = self.store.get(path)
            if doc is None:
                raise _Refused(404, "not found")
            return doc
        self._serve(read)


def _readable(sock, timeout_ms) -> bool:
    """Whether `sock` has bytes to read, or was closed by its peer, within
    `timeout_ms`. poll, unlike select, takes file descriptors past 1023."""
    ready = select.poll()
    ready.register(sock, select.POLLIN)
    return bool(ready.poll(timeout_ms))


@contextlib.contextmanager
def _signals_held():
    """Record a SIGINT or SIGTERM that arrives in the block, and raise it
    again once the previous handlers are back. Holds nothing off the main
    thread, where no handler runs, or past a handler not set from Python."""
    held, signums = [], (signal.SIGINT, signal.SIGTERM)
    if (threading.current_thread() is not threading.main_thread()
            or None in map(signal.getsignal, signums)):
        signums = ()
    try:
        # each restore runs whatever an earlier one raised, so a signal
        # between two restores cannot leave a recorder in place
        with contextlib.ExitStack() as restore:
            for signum in signums:
                restore.callback(signal.signal, signum, signal.signal(
                    signum, lambda signum, frame: held.append(signum)))
            yield
    finally:
        for signum in held:
            signal.raise_signal(signum)


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
        (status, body bytes, headers). Raises StoreUnavailable when the
        exchange fails, without sending the request again.

        On the main thread, a SIGINT or SIGTERM waits until the reply is
        read or the exchange fails, so it never leaves a request half sent
        or a reply half read; a stop waits at most one timeout."""
        target = quote(self._prefix + path, safe=self._PATH_SAFE) or "/"
        query = "&".join(q for q in (self._query, urlencode(query or {})) if q)
        if query:
            target += "?" + query
        body, headers = None, {}
        if doc is not None:
            body = json.dumps(doc).encode("utf-8")
            headers["Content-Type"] = "application/json"
        with _signals_held():
            try:
                sock = self._conn.sock
                if sock is not None and _readable(sock, 0):
                    # an idle kept-alive socket that polls ready was closed
                    # by the peer; open a new one rather than send into it
                    self._conn.close()
                self._conn.request(method, target, body=body, headers=headers)
                resp = self._conn.getresponse()
                return resp.status, resp.read(), resp.headers
            except self._failures as e:
                self.close()
                raise StoreUnavailable(f"{method} {target}: {e!r}") from None

    def close(self) -> None:
        self._conn.close()


class HttpStoreClient:
    """The store's client methods over HTTP."""

    def __init__(self, base_url: str, timeout: float = 5.0):
        self.http = JsonConnection(base_url, timeout)

    def _reply_text(self, method: str, path: str, doc=None, query=None):
        """The reply's JSON text, or None for 404."""
        path = f"/{path.strip('/')}.json"
        status, body, _ = self.http.request(method, path, doc, query)
        if status == 404:
            return None
        if status >= 500:
            raise StoreUnavailable(f"{method} {path}: HTTP {status}")
        if status >= 400:
            raise ValueError(f"{method} {path}: "
                             f"{body.decode('utf-8', 'replace')}")
        return body.decode("utf-8")

    def _request(self, method: str, path: str, doc=None, query=None):
        text = self._reply_text(method, path, doc, query)
        return None if text is None else json.loads(text)

    def patch(self, path: str, doc: dict) -> None:
        self._request("PATCH", path, doc)

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
        entries, docs = _cut_docs(self._reply_text("GET", path, query=query))
        return [HistoryEntry(e["id"], text, e["ts"])
                for e, (_, text) in zip(entries, docs)]

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

    def handle_error(self, request, client_address):
        """Log a fault of a request's thread, in place of a print to stderr;
        a client that hung up is no fault, and gets one debug line."""
        error = sys.exc_info()[1]
        if isinstance(error, (ConnectionResetError, BrokenPipeError)):
            logger.debug("http: %s hung up: %r", client_address, error)
        else:
            logger.exception("http: request from %s failed", client_address)

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
