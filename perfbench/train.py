"""Workload `train`: the model-building path behind `smartbag gen/train`.

Repeats dataset.generate (1743 rows) -> dataset.split (0.9) -> nn.train
(default spec and hyperparameters) -> nn.evaluate -> nn.export_model,
cycling over a few seeds derived from --seed. Batched forward/backward do
the work here, where the other workloads classify one record at a time.
HTTP, the store and the alert service's polling are bypassed; after each
build, the alert service is started on the exported model, which is the
step that puts a model into use and checks that the model loads.
"""

from __future__ import annotations

import time

import numpy as np

from smartbag import alerts, dataset, nn

import harness
import inputs
from harness import check

SEEDS_PER_RUN = 3
MIN_BUILDS = SEEDS_PER_RUN + 1  # so at least one seed is built twice


def run(seed: int, seconds: float, tracer, workdir, tiny: bool) -> dict:
    del tiny  # one build is already small; --seconds sizes the run
    workdir.mkdir(parents=True)
    seeds = [int(s) for s in
             np.random.SeedSequence(seed).generate_state(SEEDS_PER_RUN)]

    warmups = []
    setup_s, _ = harness.timed_setup(
        lambda i: warmups.append(
            inputs.build_model(seeds[0], harness.Tracer(False))[0]))
    check(len(set(warmups)) == 1, "same-seed warm-up builds differ in bytes")

    exported = {seeds[0]: warmups[0]}
    builds, windows = [], []
    model_path = workdir / "model.bagm"
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(builds) < MIN_BUILDS:
        model_seed = seeds[len(builds) % SEEDS_PER_RUN]
        begin = time.perf_counter_ns()
        blob, accuracy = inputs.build_model(model_seed, tracer)
        end = time.perf_counter_ns()
        builds.append((end - begin) / 1e9)
        windows.append((begin, end))
        check(accuracy >= inputs.ACCEPTANCE_ACCURACY,
              f"seed {model_seed}: test accuracy {accuracy:.4f} "
              f"< {inputs.ACCEPTANCE_ACCURACY}")
        check(exported.setdefault(model_seed, blob) == blob,
              f"seed {model_seed}: repeated build exported different bytes")

        model_path.write_bytes(blob)
        service = alerts.AlertService(None, model_path)
        check(service.vocabulary == dataset.DEFAULT_CLASSES,
              "exported model lost its class vocabulary")

    notes = []
    metrics = {"throughput_per_s": len(builds) / sum(builds),
               **harness.latency_summary(builds, notes),
               "setup_s": setup_s}
    d, med = tracer.durations, harness.median_or_zero
    layers = {
        "dataset.generate_ms": med(d("dataset.generate"), 1e3),
        "dataset.split_ms": med(d("dataset.split"), 1e3),
        "nn.train_epoch_ms": med(d("nn.train"), 1e3 / nn.Hyperparams().epochs),
        "nn.evaluate_ms": med(d("nn.evaluate"), 1e3),
        "nn.export_ms": med(d("nn.export"), 1e3),
    }
    report = {"model_build_s": harness.median(builds),
              "models_built": len(builds)}
    return {"metrics": metrics, "layers": layers, "report": report,
            "notes": notes, "latencies": builds, "windows": windows,
            "attempted": len(builds), "failed": 0}
