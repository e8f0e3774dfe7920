import gc
import json
import re
import signal
import socket
import subprocess
import sys
import textwrap
import time

import pytest

from smartbag import alerts, frames, nn
from smartbag.cli import main
from smartbag.store import HttpStoreClient, Store, StoreServer, StoreUnavailable

from conftest import python_env, run_python, serve, unused_port
from test_gateway import trace_lines
from test_nn import non_utf8_class_model_blob, zero_layer_model_blob


class TestGen:
    def test_generates_rows(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["gen", "--n", "10", "--seed", "1", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 11  # header + rows

    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen", "--n", "50", "--seed", "9", "--out", str(a)])
        main(["gen", "--n", "50", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_n_zero_usage_error(self, tmp_path):
        assert main(["gen", "--n", "0", "--out", str(tmp_path / "x.csv")]) == 2


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.csv"
    main(["gen", "--n", "400", "--seed", "0", "--out", str(path)])
    return str(path)


class TestTrainEval:
    def test_train_writes_model_and_report(self, data_csv, tmp_path, capsys):
        out = tmp_path / "m.bagm"
        code = main(["train", "--data", data_csv, "--epochs", "2",
                     "--seed", "0", "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "train accuracy" in captured
        assert "confusion matrix" in captured
        nn.import_model(out.read_bytes())  # well-formed

    def test_train_deterministic_bytes(self, data_csv, tmp_path):
        a, b = tmp_path / "a.bagm", tmp_path / "b.bagm"
        for out in (a, b):
            main(["train", "--data", data_csv, "--epochs", "2",
                  "--seed", "7", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_data_flag_usage_error(self):
        assert main(["train"]) == 2

    def test_eval_matches_training_report(self, data_csv, tmp_path, capsys):
        out = tmp_path / "m.bagm"
        main(["train", "--data", data_csv, "--epochs", "2", "--seed", "0",
              "--out", str(out)])
        capsys.readouterr()
        assert main(["eval", "--model", str(out), "--data", data_csv]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_eval_empty_csv_operational_error(self, tmp_path, capsys):
        model = tmp_path / "m.bagm"
        data = tmp_path / "empty.csv"
        data.write_text("")
        main(["gen", "--n", "10", "--out", str(tmp_path / "d.csv")])
        main(["train", "--data", str(tmp_path / "d.csv"), "--epochs", "1",
              "--out", str(model)])
        assert main(["eval", "--model", str(model), "--data", str(data)]) == 1

    def test_failed_model_write_keeps_the_previous_model(self, data_csv,
                                                         tmp_path):
        out = tmp_path / "m.bagm"
        assert main(["train", "--data", data_csv, "--epochs", "1",
                     "--seed", "0", "--out", str(out)]) == 0
        before = out.read_bytes()
        # the process lowers its own file-size limit below the model's size,
        # so the next model write fails halfway with EFBIG, as a full disk
        # fails with ENOSPC
        printed = run_python(textwrap.dedent(f"""
            import contextlib, io, json, resource, signal
            from smartbag.cli import main
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (
                {len(before) // 2}, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["train", "--data", {data_csv!r}, "--epochs", "1",
                             "--seed", "1", "--out", {str(out)!r}])
            print(json.dumps([code, err.getvalue().splitlines()]))
            """))
        code, err = json.loads(printed.splitlines()[-1])
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}")
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.bagm"]

    def test_train_missing_file_operational_error(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope.csv")]) == 1

    def test_eval_zero_layer_size_operational_error(self, data_csv, tmp_path,
                                                    capsys):
        model = tmp_path / "zero.bagm"
        model.write_bytes(zero_layer_model_blob())
        assert main(["eval", "--model", str(model), "--data", data_csv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_eval_non_utf8_class_name_operational_error(self, data_csv,
                                                        tmp_path, capsys):
        model = tmp_path / "names.bagm"
        model.write_bytes(non_utf8_class_model_blob())
        assert main(["eval", "--model", str(model), "--data", data_csv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


class TestHelp:
    @pytest.mark.parametrize("cmd", ["gen", "train", "eval", "store",
                                     "gateway", "alerts", "alarm"])
    def test_help_exits_zero(self, cmd, capsys):
        assert main([cmd, "--help"]) == 0
        assert "--" in capsys.readouterr().out or cmd == "alarm"


class TestServices:
    def test_store_port_conflict(self, tmp_path, capsys, monkeypatch):
        closed = []
        close = Store.close
        monkeypatch.setattr(Store, "close",
                            lambda store: closed.append(store) or close(store))
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        try:
            code = main(["store", "--port", str(port),
                         "--log", str(tmp_path / "s.wal")])
        finally:
            sock.close()
        assert code == 1
        assert len(closed) == 1 and closed[0]._log._file.closed
        with pytest.raises(StoreUnavailable):
            closed[0].patch("p/x", {"n": 1})

    def test_alerts_refuses_model_of_wrong_width(self, narrow_model_file,
                                                 tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(alerts.AlertService, "run", lambda service:
                            pytest.fail("service started on the model"))
        assert main(["alerts", "--store", "http://127.0.0.1:9",
                     "--model", narrow_model_file,
                     "--log", str(tmp_path / "n.jsonl"),
                     "--cursor", str(tmp_path / "cursor.json")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot load model")

    def test_alerts_refuses_non_utf8_class_name(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setattr(alerts.AlertService, "run", lambda service:
                            pytest.fail("service started on the model"))
        model = tmp_path / "names.bagm"
        model.write_bytes(non_utf8_class_model_blob())
        assert main(["alerts", "--store", "http://127.0.0.1:9",
                     "--model", str(model), "--log", str(tmp_path / "n.jsonl"),
                     "--cursor", str(tmp_path / "cursor.json")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot load model")

    def test_alerts_flags_reach_the_rules(self, model_file, tmp_path,
                                          monkeypatch):
        started = []
        monkeypatch.setattr(alerts.AlertService, "run",
                            lambda service: started.append(service))
        base = ["alerts", "--store", "http://127.0.0.1:9",
                "--model", model_file, "--log", str(tmp_path / "n.jsonl"),
                "--cursor", str(tmp_path / "cursor.json")]
        assert main(base + ["--mq2-max", "50"]) == 0
        assert main(base + ["--mq135-max", "75.5", "--dedup-window", "0",
                            "--interval", "200"]) == 0
        first, second = (service.config for service in started)
        assert first.rules == alerts.AlertRuleSet(mq2_max=50.0)
        assert second.rules == alerts.AlertRuleSet(mq135_max=75.5,
                                                   dedup_window_ms=0)
        assert second.poll_interval_ms == 200

    def test_gateway_closes_its_store_client(self, tmp_path):
        # an unclosed socket warns when collected, and the suite turns that
        # warning into a failure of this test
        trace = tmp_path / "trace.txt"
        trace.write_bytes(b"".join(trace_lines(3)))
        server = StoreServer(Store()).start()
        try:
            assert main(["gateway", "--trace", str(trace), "--store",
                         server.base_url, "--period", "10",
                         "--speed", "1000"]) == 0
            gc.collect()
            assert len(server.store.get_history("bags/BAG1/history")) >= 1
        finally:
            server.stop()

    def test_sigterm_stops_the_gateway_as_sigint_does(self, tmp_path):
        # the gateway pushes what it can of its buffer and prints its
        # summary line, where a gateway killed by the signal prints none
        trace = tmp_path / "trace.txt"
        trace.write_bytes(b"".join(trace_lines(400)))
        server = serve(Store())
        gateway = subprocess.Popen(
            [sys.executable, "-m", "smartbag.cli", "gateway", "--trace",
             str(trace), "--store", server.base_url, "--period", "50",
             "--speed", "20"], env=python_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 30
            while (len(server.store.get_history("bags/BAG1/history")) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            gateway.send_signal(signal.SIGTERM)
            out, err = gateway.communicate(timeout=30)
            seqs = [e.doc["seq"] for e in
                    server.store.get_history("bags/BAG1/history")]
        finally:
            gateway.kill()  # no-op once it has exited
            gateway.wait()
            server.stop()
        assert gateway.returncode == 0, err
        summary = re.fullmatch(
            r"pushed (\d+) records \(0 dropped, 0 malformed\)",
            out.splitlines()[-1])
        assert summary, out
        # a signal waits for the exchange it lands in to end, so the
        # read-back after it runs on a clean connection, sees the record
        # and counts it
        assert int(summary[1]) == len(seqs)
        assert len(seqs) >= 2
        assert all(a < b for a, b in zip(seqs, seqs[1:])), seqs

    def test_loopback_services(self, model_file, tmp_path):
        """The store, gateway, alerts and alarm commands, each its own
        process on one loopback port: two SOS frames 40 s of record time
        apart cross the gateway, the store and the alert service, and each
        is notified once, through a store restart on the same WAL and port
        and an alert-service restart on the same cursor and log."""
        port = unused_port()
        url = f"http://127.0.0.1:{port}"
        wal, log = tmp_path / "s.wal", tmp_path / "n.jsonl"
        cursor, trace = tmp_path / "c", tmp_path / "t.txt"
        procs = []

        def start(*args):
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "smartbag.cli", *args],
                env=python_env(), stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True))
            return procs[-1]

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "smartbag.cli", *args],
                env=python_env(), capture_output=True, text=True, timeout=30)

        def stop(proc):  # SIGTERM stops a service with exit status 0
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=10)
            assert proc.returncode == 0, err

        def until(condition):
            deadline = time.monotonic() + 20
            while not condition():
                assert time.monotonic() < deadline
                time.sleep(0.02)

        def listening():
            with socket.socket() as sock:
                return sock.connect_ex(("127.0.0.1", port)) == 0

        def sos_lines():
            return log.read_text().count('"SOS"') if log.exists() else 0

        alerts_args = ("alerts", "--store", url, "--model", model_file,
                       "--log", str(log), "--cursor", str(cursor),
                       "--interval", "100")
        frames.write_trace([frames.SensorFrame(device_id="BAG1", seq=i,
                                               ts=i * 1000, sos=int(i in (3, 43)))
                            for i in range(46)], trace)
        try:
            store = start("store", "--port", str(port), "--log", str(wal))
            until(listening)
            # at --speed 20 a 50 ms push period spans 1-2 s of record time,
            # so the two SOS records stay more than the 30 s window apart
            gateway = run("gateway", "--store", url, "--trace", str(trace),
                          "--speed", "20", "--period", "50")
            assert gateway.returncode == 0, gateway.stderr
            # a new store on the same log and port serves what the gateway
            # pushed, replayed from the WAL
            stop(store)
            store = start("store", "--port", str(port), "--log", str(wal))
            until(listening)
            # both records reach the service in one poll, and dedup on
            # record time notifies each
            alerts = start(*alerts_args)
            until(lambda: sos_lines() == 2)
            stop(alerts)
            assert sos_lines() == 2
            # a restart on the same cursor and log resumes after the SOS:
            # it reads one more record, and notifies nothing again
            alerts = start(*alerts_args)
            client = HttpStoreClient(url)
            try:
                record = frames.to_record(frames.SensorFrame(
                    device_id="BAG1", seq=46, ts=46000), 46000)
                pushed = client.post("bags/BAG1/history", record,
                                     latest="bags/BAG1/latest")["name"]
                until(lambda: cursor.exists() and
                      json.loads(cursor.read_text())["cursor"] == pushed)
                assert "activity" in client.get("bags/BAG1/latest")
            finally:
                client.close()
            stop(alerts)
            assert sos_lines() == 2
            # a cursor that cannot be written is refused at start-up
            refused = run(*alerts_args, "--cursor",
                          str(tmp_path / "missing" / "c"))
            assert refused.returncode == 1
            assert len(refused.stderr.splitlines()) == 1
            assert refused.stderr.startswith("error: ")
            alarm = run("alarm", "BAG1", "--store", url)
            assert "alarm requested" in alarm.stdout, alarm.stderr
            stop(store)
        finally:
            for proc in procs:
                proc.kill()  # no-op once it has exited
                proc.communicate()

    def test_alerts_closes_its_store_and_webhook_connections(
            self, model_file, tmp_path, monkeypatch):
        def run(service):  # one request on each connection, then return
            service.store.get("bags/BAG1/latest")
            service.sinks[1].http.request("POST", doc={"kind": "TEST"})

        monkeypatch.setattr(alerts.AlertService, "run", run)
        server = StoreServer(Store()).start()
        try:
            assert main(["alerts", "--store", server.base_url,
                         "--model", model_file,
                         "--webhook", server.base_url + "/hook.json",
                         "--log", str(tmp_path / "n.jsonl"),
                         "--cursor", str(tmp_path / "cursor.json")]) == 0
            gc.collect()
            assert len(server.store.get_history("hook")) == 1
        finally:
            server.stop()

    def test_alerts_closes_its_store_client_when_the_model_fails(
            self, narrow_model_file, tmp_path, monkeypatch):
        closed = []
        close = HttpStoreClient.close
        monkeypatch.setattr(HttpStoreClient, "close",
                            lambda client: closed.append(client) or close(client))
        assert main(["alerts", "--store", "http://127.0.0.1:9",
                     "--model", narrow_model_file,
                     "--log", str(tmp_path / "n.jsonl"),
                     "--cursor", str(tmp_path / "cursor.json")]) == 1
        assert len(closed) == 1

    def test_alarm_against_live_store(self, capsys):
        server = StoreServer(Store()).start()
        try:
            code = main(["alarm", "BAG1", "--store", server.base_url])
            assert code == 0
            assert server.store.get("bags/BAG1/commands")["alarm"] == 1
            # second trigger sees the outstanding command
            assert main(["alarm", "BAG1", "--store", server.base_url]) == 0
            assert "outstanding" in capsys.readouterr().out
        finally:
            server.stop()

    def test_alarm_store_unreachable(self):
        assert main(["alarm", "BAG1", "--store",
                     "http://127.0.0.1:9"]) == 1

    @pytest.mark.parametrize("url", ["ftp://127.0.0.1:8450", "127.0.0.1:8450"])
    def test_alarm_malformed_store_url(self, url, capsys):
        assert main(["alarm", "BAG1", "--store", url]) == 2
        assert "http(s) URL" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["train", "--epochs", "0"], 2),
    (["train", "--split", "1.5"], 2),
    (["train", "--split", "0.001"], 2),  # no training rows
    (["gateway", "--period", "0"], 2),
    (["gateway", "--buffer", "0"], 2),
    (["alerts", "--mq2-max", "0"], 2),
    (["alerts", "--mq135-max", "-1"], 2),
    (["alerts", "--dedup-window", "-5"], 2),
    (["alerts", "--interval", "-1"], 2),
    (["alerts", "--interval", "0"], 2),
    (["gateway", "--trace", "T", "--speed", "0"], 2),
    (["gateway", "--trace", "T", "--speed", "nan"], 2),
    # a negative speed would reverse the schedule
    (["gateway", "--trace", "T", "--speed", "-1"], 2),
    # a device id that no frame can carry and no store path can name
    (["gateway", "--trace", "T", "--device", "a b"], 2),
    (["alerts", "--device", "a b"], 2),
    (["alarm", "a b"], 2),
    # a file in a directory that does not exist (M): refused at start-up,
    # or when the file is written, never with a traceback
    (["gen", "--out", "M"], 1),
    (["train", "--out", "M"], 1),
    (["gateway", "--trace", "T", "--events", "M"], 1),
    (["alerts", "--log", "M"], 1),
    (["alerts", "--cursor", "M"], 1),
], ids=["epochs-0", "split-1.5", "split-0.001", "period-0", "buffer-0",
        "mq2_max-0", "mq135_max-neg", "dedup_window_ms-neg", "interval-neg",
        "interval-0", "speed-0", "speed-nan", "speed-neg", "gateway-device",
        "alerts-device", "alarm-device", "gen-out-missing-dir",
        "train-out-missing-dir", "gateway-events-missing-dir",
        "alerts-log-missing-dir", "alerts-cursor-missing-dir"])
def test_bad_values_exit_cleanly(argv, code, data_csv, tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    trace.write_text("")
    given = {"T": str(trace), "M": str(tmp_path / "missing" / "file")}
    argv = [given.get(arg, arg) for arg in argv]
    # the given flags come last, so they win over these defaults
    argv[1:1] = {
        "gen": ["--n", "10"],
        "train": ["--data", data_csv, "--epochs", "1",
                  "--out", str(tmp_path / "m.bagm")],
        "gateway": ["--store", "http://127.0.0.1:9"],
        "alerts": ["--store", "http://127.0.0.1:9",
                   "--model", str(tmp_path / "m.bagm"),
                   "--cursor", str(tmp_path / "c")],
        "alarm": ["--store", "http://127.0.0.1:9"],
    }[argv[0]]
    assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    # the bad value is what is reported, not the missing model after it
    assert "cannot load model" not in err[0]


def test_requests_not_imported():
    """The services reach the store through the standard library alone."""
    run_python("import smartbag.cli, sys; "
               "assert 'requests' not in sys.modules")


def test_http_stack_loads_only_with_a_socket():
    """Importing any module, as model builds do, loads no HTTP or TLS
    module; building a server and a client loads what they need."""
    run_python(textwrap.dedent("""
        import sys
        import smartbag.nn, smartbag.dataset, smartbag.frames
        import smartbag.alerts, smartbag.store, smartbag.gateway, smartbag.cli
        from smartbag.store import HttpStoreClient, Store, StoreServer
        loaded = {"ssl", "http.client", "http.server", "email"} & set(sys.modules)
        assert not loaded, sorted(loaded)
        server = StoreServer(Store()).start()
        client = HttpStoreClient(server.base_url)
        try:
            client.patch("bags/b1/latest", {"a": 1})
            assert client.get("bags/b1/latest") == {"a": 1}
        finally:
            client.close()
            server.stop()
        """))
