from __future__ import annotations

import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from smartbag import nn
from smartbag.dataset import DEFAULT_CLASSES, default_profiles, generate
from smartbag.store import POLL_INTERVAL_S, Store, StoreUnavailable


def run_python(code: str, unset=()) -> str:
    """Run code in a fresh interpreter that imports smartbag from src/,
    without the environment variables named in `unset`; returns what it
    printed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          timeout=60, stdout=subprocess.PIPE, text=True).stdout


class FlakyStore(Store):
    """A real Store whose client methods raise StoreUnavailable while
    `down` is set, as HttpStoreClient does when the server is unreachable."""

    down = False

    def _check(self):
        if self.down:
            raise StoreUnavailable("store down")

    def patch(self, path: str, doc: dict) -> dict:
        self._check()
        return super().patch(path, doc)

    def get(self, path: str) -> dict | None:
        self._check()
        return super().get(path)

    def post(self, path: str, doc: dict, latest: str | None = None) -> dict:
        self._check()
        return super().post(path, doc, latest)

    def get_history(self, path: str, since: str | None = None,
                    limit: int | None = None) -> list:
        self._check()
        return super().get_history(path, since=since, limit=limit)


@pytest.fixture
def flaky_store():
    return FlakyStore()


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
    body) and answers it with `status`, or hangs up without a reply while
    `status` is None."""

    def __init__(self):
        self.status = None
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
