"""`smartbag` command suite.

Subcommands: gen, train, eval, store, gateway, replay, alerts, alarm.
Exit codes: 0 success, 1 operational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import alerts, dataset, frames, nn
from .clock import RealClock
from .gateway import Gateway, GatewayConfig
from .store import HttpStoreClient, Store, StoreServer, StoreUnavailable


class OperationalError(Exception):
    """Failure that should exit with status 1."""


def _read_config_file(path) -> dict:
    """KEY=VALUE lines; '#' comments and blank lines ignored."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise OperationalError(f"bad config line: {line!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def cmd_gen(args) -> int:
    if args.n < len(dataset.DEFAULT_CLASSES):
        raise UsageError(f"--n must be at least {len(dataset.DEFAULT_CLASSES)}")
    data = dataset.generate(dataset.default_profiles(), args.n, args.seed)
    dataset.save_csv(data, args.out)
    print(f"wrote {len(data)} rows to {args.out}")
    return 0


def _print_report(report: nn.TrainReport, classes) -> None:
    for epoch, value in enumerate(report.epoch_losses, start=1):
        print(f"epoch {epoch:3d}  loss {value:.6f}")
    print(f"train accuracy: {report.train_accuracy:.4f}")
    if report.test_accuracy is not None:
        print(f"test accuracy:  {report.test_accuracy:.4f}")
    _print_confusion(report.confusion, classes)


def _print_confusion(confusion, classes) -> None:
    width = max(len(c) for c in classes) + 1
    print("confusion matrix (rows = true, cols = predicted):")
    print(" " * width + "".join(f"{c:>{width}}" for c in classes))
    for name, row in zip(classes, confusion):
        print(f"{name:>{width}}" + "".join(f"{v:>{width}}" for v in row))


def cmd_train(args) -> int:
    try:
        data = dataset.load_csv(args.data)
    except (OSError, dataset.DatasetError) as e:
        raise OperationalError(f"cannot load {args.data}: {e}")
    train_set, test_set = dataset.split(data, args.split, args.seed)
    spec = nn.ModelSpec()
    hyper = nn.Hyperparams(learning_rate=args.lr, batch_size=args.batch,
                           epochs=args.epochs, lam=args.lam, seed=args.seed)
    model, report = nn.train(train_set, spec, hyper, test_set=test_set)
    _print_report(report, data.classes)
    with open(args.out, "wb") as fh:
        fh.write(nn.export_model(model, spec, data.classes))
    print(f"model written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    try:
        with open(args.model, "rb") as fh:
            model, _, vocabulary = nn.import_model(fh.read())
        data = dataset.load_csv(args.data, classes=vocabulary)
    except (OSError, dataset.DatasetError, nn.ModelFormatError) as e:
        raise OperationalError(str(e))
    accuracy, confusion = nn.evaluate(model, data)
    print(f"accuracy: {accuracy:.4f} on {len(data)} rows")
    _print_confusion(confusion, vocabulary)
    return 0


def cmd_store(args) -> int:
    store = Store(log_path=args.log)
    try:
        server = StoreServer(store, host=args.host, port=args.port)
    except OSError as e:
        raise OperationalError(f"cannot bind {args.host}:{args.port}: {e}")
    print(f"store listening on {server.base_url} (log: {args.log})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        store.close()
    return 0


def _make_source(args, clock):
    if args.trace is not None:
        return frames.TraceSource.from_file(args.trace, start_ms=clock.now_ms(),
                                            speed=args.speed)
    return frames.SimulatorSource(dataset.default_profiles(),
                                  device_id=args.device, seed=args.seed)


def _run_gateway(args, stop_when_exhausted: bool) -> int:
    clock = RealClock()
    try:
        source = _make_source(args, clock)
    except OSError as e:
        raise OperationalError(str(e))
    gw = Gateway(
        source,
        HttpStoreClient(args.store),
        GatewayConfig(device_id=args.device, period_ms=args.period,
                      buffer_capacity=args.buffer),
        clock=clock,
        event_log_path=args.events,
    )
    try:
        gw.run(stop_when_exhausted=stop_when_exhausted)
    except KeyboardInterrupt:
        gw.flush()
    print(f"pushed {gw.pushed_history} records "
          f"({gw.dropped} dropped, {source.malformed} malformed)")
    return 0


def cmd_gateway(args) -> int:
    return _run_gateway(args, stop_when_exhausted=False)


def cmd_replay(args) -> int:
    if args.trace is None:
        raise UsageError("replay requires --trace")
    return _run_gateway(args, stop_when_exhausted=True)


def cmd_alerts(args) -> int:
    overrides = _read_config_file(args.config) if args.config else {}
    rules = alerts.AlertRuleSet(
        mq2_max=float(overrides.get("mq2_max", 300.0)),
        mq135_max=float(overrides.get("mq135_max", 200.0)),
        dedup_window_ms=int(overrides.get("dedup_window_ms", 30000)),
    )
    config = alerts.AlertServiceConfig(
        device_id=args.device,
        poll_interval_ms=int(overrides.get("poll_interval_ms", args.interval)),
        rules=rules,
    )
    sinks = [alerts.NotificationLog(args.log)]
    webhook = overrides.get("webhook_url", args.webhook)
    if webhook:
        sinks.append(alerts.WebhookSink(webhook))
    try:
        service = alerts.AlertService(
            HttpStoreClient(args.store), args.model, config,
            cursor_path=args.cursor, sinks=sinks)
    except (OSError, nn.ModelFormatError) as e:
        raise OperationalError(f"cannot load model {args.model}: {e}")
    print(f"alert service polling {args.store} for device {args.device}")
    try:
        service.run()
    except KeyboardInterrupt:
        pass
    return 0


def cmd_alarm(args) -> int:
    try:
        _, raised = alerts.request_alarm(HttpStoreClient(args.store),
                                         args.device, RealClock().now_ms())
    except StoreUnavailable as e:
        raise OperationalError(f"store unreachable: {e}")
    if raised:
        print(f"alarm requested for {args.device}")
    else:
        print(f"alarm already outstanding for {args.device}")
    return 0


class UsageError(Exception):
    """Failure that should exit with status 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smartbag",
        description="Smart-bag telemetry pipeline and activity classifier.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic labeled dataset CSV")
    p.add_argument("--n", type=int, default=1743, help="number of rows")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="dataset.csv")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the activity model")
    p.add_argument("--data", required=True, help="labeled CSV file")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="L2 regularization strength")
    p.add_argument("--split", type=float, default=0.9,
                   help="training fraction of the 90/10 split")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="model.bagm")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model file on a CSV dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("store", help="run the document-store server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8450)
    p.add_argument("--log", default="store.wal")
    p.set_defaults(func=cmd_store)

    for name, help_text in (("gateway", "run the telemetry gateway"),
                            ("replay", "replay a frame trace through the gateway")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--store", default="http://127.0.0.1:8450")
        p.add_argument("--device", default="BAG1")
        p.add_argument("--period", type=int, default=2000, help="push period ms")
        p.add_argument("--buffer", type=int, default=1024)
        p.add_argument("--trace", default=None, help="frame trace file")
        p.add_argument("--speed", type=float, default=1.0,
                       help="trace replay acceleration factor")
        p.add_argument("--seed", type=int, default=0, help="simulator seed")
        p.add_argument("--events", default=None, help="gateway event log path")
        p.set_defaults(func=cmd_gateway if name == "gateway" else cmd_replay)

    p = sub.add_parser("alerts", help="run the alert service")
    p.add_argument("--store", default="http://127.0.0.1:8450")
    p.add_argument("--device", default="BAG1")
    p.add_argument("--model", required=True, help="BAGM model file")
    p.add_argument("--log", default="notifications.jsonl")
    p.add_argument("--cursor", default="alerts.cursor")
    p.add_argument("--interval", type=int, default=1000, help="poll interval ms")
    p.add_argument("--webhook", default=None)
    p.add_argument("--config", default=None, help="KEY=VALUE config file")
    p.set_defaults(func=cmd_alerts)

    p = sub.add_parser("alarm", help="trigger the find-my-bag alarm")
    p.add_argument("device", help="device id")
    p.add_argument("--store", default="http://127.0.0.1:8450")
    p.set_defaults(func=cmd_alarm)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 0
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OperationalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
