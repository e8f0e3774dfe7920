from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
from collections import Counter
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from smartbag import nn
from smartbag.dataset import DEFAULT_CLASSES, default_profiles, generate
from smartbag.store import (
    POLL_INTERVAL_S, HttpStoreClient, Store, StoreServer, StoreUnavailable,
)


def python_env(unset=()) -> dict:
    """The environment of a fresh interpreter that imports smartbag from
    src/, without the environment variables named in `unset`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_python(code: str, unset=()) -> str:
    """Run code in a fresh interpreter of `python_env(unset)`; returns what
    it printed."""
    return subprocess.run([sys.executable, "-c", code], env=python_env(unset),
                          check=True, timeout=60, stdout=subprocess.PIPE,
                          text=True).stdout


def nested(depth: int) -> dict:
    """A document of objects nested `depth` levels deep."""
    doc = {}
    for _ in range(depth - 1):
        doc = {"n": doc}
    return doc


# documents whose JSON text is easy to get wrong: non-ASCII text, -0.0 and
# extreme floats, ints past 64 bits, and what JSON cannot keep as it is
# (tuples, int keys)
TRICKY_DOCS = {
    "non-ascii": {"text": "bag \u00e9t\u00e9 \u2603 \U0001f392", "\u00fc": "key"},
    "floats": {"floats": [0.1, 1e-300, -0.0, 1.5e308, 2.0 ** 0.5]},
    "big-ints": {"ints": [2 ** 64, -(10 ** 30), 0]},
    "tuples-int-keys": {"pair": (1, 2), 7: {8: ("nested", 9.25)}},
}


class FaultyClient:
    """Any store client behind the four client methods, recording each
    call as (method, path, latest) in `calls`. While `down` is set, a call
    raises StoreUnavailable before it reaches the store; so do the next
    `refuse[method]` calls of a method, and the next `lose_reply[method]`
    reach the store and then raise, as when the reply is lost. The next
    `interrupt[method]` reach the store and then raise KeyboardInterrupt,
    as a SIGINT or SIGTERM does that `JsonConnection` held during the call
    and raised once the reply was read."""

    def __init__(self, client, store: Store):
        self.client, self.store = client, store
        self.calls, self.down = [], False
        self.refuse, self.lose_reply = Counter(), Counter()
        self.interrupt = Counter()

    def _call(self, method, path, latest, *args):
        self.calls.append((method, path, latest))
        if self.down:
            raise StoreUnavailable("store down")
        if self.refuse[method] > 0:
            self.refuse[method] -= 1
            raise StoreUnavailable(f"{method} refused")
        reply = getattr(self.client, method)(path, *args)
        if self.lose_reply[method] > 0:
            self.lose_reply[method] -= 1
            raise StoreUnavailable(f"{method} reply lost")
        if self.interrupt[method] > 0:
            self.interrupt[method] -= 1
            raise KeyboardInterrupt
        return reply

    def patch(self, path: str, doc: dict) -> None:
        return self._call("patch", path, None, doc)

    def get(self, path: str) -> dict | None:
        return self._call("get", path, None)

    def post(self, path: str, doc: dict, latest: str | None = None) -> dict:
        return self._call("post", path, latest, doc, latest)

    def get_history(self, path: str, since: str | None = None,
                    limit: int | None = None) -> list:
        return self._call("get_history", path, None, since, limit)


def unused_port() -> int:
    """A loopback port no socket was bound to a moment ago."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def serve(store: Store, port: int = 0) -> StoreServer:
    """A started StoreServer whose replies skip the delayed-ACK stall,
    which no test that uses it measures, and whose `stop` waits at most
    5 ms, not POLL_INTERVAL_S, for its serving loop to notice."""
    srv = StoreServer(store, port=port)
    srv.httpd.RequestHandlerClass.disable_nagle_algorithm = True
    srv.serve_forever = partial(srv.httpd.serve_forever, 0.005)
    return srv.start()


def open_client(request, kind: str) -> FaultyClient:
    """A FaultyClient over a new Store, in process ("store") or through an
    HttpStoreClient to a live StoreServer ("http"), closed at teardown."""
    store = Store()
    if kind == "store":
        return FaultyClient(store, store)
    srv = serve(store)
    http = HttpStoreClient(srv.base_url)
    request.addfinalizer(srv.stop)
    request.addfinalizer(http.close)
    return FaultyClient(http, store)


@pytest.fixture(params=["store", "http"])
def client(request):
    """Each store client, behind a FaultyClient."""
    return open_client(request, request.param)


class OverStore:
    """Gives a test class's tests a FaultyClient over an in-process Store;
    a subclass that sets `kind = "http"` runs them again over HTTP."""
    kind = "store"

    @pytest.fixture
    def client(self, request):
        return open_client(request, self.kind)


@pytest.fixture
def open_store():
    """Opens a WAL-backed Store on the given log path. Every store it opened
    is closed at teardown, so a test can reopen a log that an earlier store,
    left open as after a crash, still holds."""
    stores = []

    def open_(log_path):
        stores.append(Store(log_path=str(log_path)))
        return stores[-1]

    yield open_
    for store in stores:
        store.close()


class CountingServer:
    """A local HTTP server that records each request as (method, path,
    body) and answers it with `status`, and a `Retry-After` header when
    `retry_after` is set, or hangs up without a reply while `status` is
    None."""

    def __init__(self):
        self.status = None
        self.retry_after = None
        self.requests = []
        owner = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):
                pass

            def handle_any(self):
                length = int(self.headers.get("Content-Length", 0))
                owner.requests.append(
                    (self.command, self.path, self.rfile.read(length)))
                if owner.status is None:
                    self.close_connection = True
                    return
                self.send_response(owner.status)
                if owner.retry_after is not None:
                    self.send_header("Retry-After", owner.retry_after)
                self.send_header("Content-Length", "2")
                self.end_headers()
                self.wfile.write(b"{}")

            do_GET = do_POST = do_PATCH = handle_any

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = "http://127.0.0.1:%d" % self.httpd.server_address[1]
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        args=(POLL_INTERVAL_S,), daemon=True)
        self._thread.start()

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()
        self._thread.join(timeout=5)


@pytest.fixture
def counting_server():
    server = CountingServer()
    yield server
    server.close()


@pytest.fixture(scope="session")
def trained_model_blob():
    """One cheap trained model shared by the service-level tests."""
    data = generate(default_profiles(), 600, seed=0)
    spec = nn.ModelSpec()
    model, _ = nn.train(data, spec, nn.Hyperparams(epochs=10, seed=0))
    return nn.export_model(model, spec, data.classes)


@pytest.fixture(scope="session")
def model_file(tmp_path_factory, trained_model_blob):
    path = tmp_path_factory.mktemp("model") / "model.bagm"
    path.write_bytes(trained_model_blob)
    return str(path)


@pytest.fixture
def narrow_model_file(tmp_path):
    """A well-formed model file whose input width, 5, is not the 13 record
    features."""
    spec = nn.ModelSpec((5, 4, 5))
    params = nn.init_params(spec, np.random.default_rng(0))
    path = tmp_path / "narrow.bagm"
    path.write_bytes(nn.export_model(params, spec, DEFAULT_CLASSES))
    return str(path)
