import socket
import textwrap

import pytest

from smartbag import alerts, nn
from smartbag.cli import main
from smartbag.store import Store, StoreServer, StoreUnavailable

from conftest import run_python
from test_nn import zero_layer_model_blob


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

    def test_train_missing_file_operational_error(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope.csv")]) == 1

    def test_eval_zero_layer_size_operational_error(self, data_csv, tmp_path,
                                                    capsys):
        model = tmp_path / "zero.bagm"
        model.write_bytes(zero_layer_model_blob())
        assert main(["eval", "--model", str(model), "--data", data_csv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


class TestHelp:
    @pytest.mark.parametrize("cmd", ["gen", "train", "eval", "store",
                                     "gateway", "replay", "alerts", "alarm"])
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
        assert len(closed) == 1 and closed[0]._log.closed
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


NO_CONFIG = object()  # run `alerts` without --config: values from flags


@pytest.mark.parametrize("argv, config, code", [
    (["train", "--epochs", "0"], None, 2),
    (["train", "--split", "1.5"], None, 2),
    (["train", "--split", "0.001"], None, 2),  # no training rows
    (["gateway", "--period", "0"], None, 2),
    (["gateway", "--buffer", "0"], None, 2),
    (["alerts"], None, 1),  # the config file is missing
    (["alerts"], "mq2_max=abc\n", 1),
    (["alerts"], "dedup_window_ms=-5\n", 1),
    (["alerts"], "poll_interval_ms=0\n", 1),
    (["alerts", "--interval", "-1"], NO_CONFIG, 2),
    (["alerts", "--interval", "0"], NO_CONFIG, 2),
    (["replay", "--speed", "0"], None, 2),
    (["replay", "--speed", "nan"], None, 2),
    (["replay", "--speed", "-1"], None, 2),  # would reverse the schedule
], ids=["epochs-0", "split-1.5", "split-0.001", "period-0", "buffer-0",
        "config-missing", "mq2_max-abc", "dedup_window_ms-neg",
        "poll_interval_ms-0", "interval-neg", "interval-0", "speed-0",
        "speed-nan", "speed-neg"])
def test_bad_values_exit_cleanly(argv, config, code, data_csv, tmp_path,
                                 capsys):
    conf = tmp_path / "alerts.conf"
    trace = tmp_path / "trace.txt"
    trace.write_text("")
    argv = argv + {
        "train": ["--data", data_csv, "--out", str(tmp_path / "m.bagm")],
        "gateway": ["--store", "http://127.0.0.1:9"],
        "replay": ["--store", "http://127.0.0.1:9", "--trace", str(trace)],
        "alerts": ["--store", "http://127.0.0.1:9",
                   "--model", str(tmp_path / "m.bagm")]
        + ([] if config is NO_CONFIG else ["--config", str(conf)]),
    }[argv[0]]
    if isinstance(config, str):
        conf.write_text(config)
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
            assert client.patch("bags/b1/latest", {"a": 1}) == {"a": 1}
        finally:
            client.close()
            server.stop()
        """))
