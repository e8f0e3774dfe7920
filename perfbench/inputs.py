"""Seeded inputs shared by the workloads: device frames and the model.

The program never draws these itself; everything here is derived from the
benchmark's --seed, so one seed always yields the same frames and models.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from smartbag import dataset, nn
from smartbag.frames import SensorFrame

TRAIN_ROWS = 1743
TRAIN_FRACTION = 0.9
ACCEPTANCE_ACCURACY = 0.95


def event_profiles(rng: np.random.Generator) -> tuple:
    """The default class profiles with small seeded SOS and water odds."""
    return tuple(replace(p, sos_prob=float(rng.uniform(0.01, 0.03)),
                         water_prob=float(rng.uniform(0.01, 0.03)))
                 for p in dataset.default_profiles())


class Device:
    """One simulated bag: holds an activity for a few readings, then hops."""

    def __init__(self, device_id: str, profiles, rng: np.random.Generator,
                 hold: int = 8):
        self.device_id = device_id
        self.profiles = tuple(profiles)
        self.rng = rng
        self.hold = hold
        self.seq = 0
        self.current = int(rng.integers(len(self.profiles)))
        self._held = 0

    def frame(self, ts: int) -> SensorFrame:
        prof = self.profiles[self.current]
        row = self.rng.normal(prof.mean, prof.std)
        water = int(self.rng.random() < prof.water_prob)
        sos = int(self.rng.random() < prof.sos_prob)
        frame = SensorFrame(
            device_id=self.device_id, seq=self.seq, ts=ts,
            lat=12.9716 + float(self.rng.normal(0, 1e-4)),
            lon=77.5946 + float(self.rng.normal(0, 1e-4)),
            alt=900.0 + float(self.rng.normal(0, 2.0)),
            speed=abs(float(self.rng.normal(1.0, 0.5))),
            heading=float(self.rng.uniform(0, 360)),
            ax=float(row[0]), ay=float(row[1]), az=float(row[2]),
            yaw=float(row[3]), pitch=float(row[4]), roll=float(row[5]),
            load_left=float(row[6]), load_right=float(row[7]),
            mq2=abs(float(row[8])), mq135=abs(float(row[9])),
            temp=float(row[10]), humidity=float(np.clip(row[11], 0.0, 100.0)),
            water=water, sos=sos)
        self.seq += 1
        self._held += 1
        if self._held >= self.hold:
            self._held = 0
            self.current = int(self.rng.integers(len(self.profiles)))
        return frame


def build_model(seed: int, tracer) -> tuple:
    """generate -> split -> train -> evaluate -> export, each a span.

    Uses the default network spec and hyperparameters; the seed picks the
    data and the split. Returns (model bytes, test accuracy).
    """
    spec, hyper = nn.ModelSpec(), nn.Hyperparams()
    data = tracer.call("dataset.generate", dataset.generate,
                       dataset.default_profiles(), TRAIN_ROWS, seed)
    train_set, test_set = tracer.call("dataset.split", dataset.split,
                                      data, TRAIN_FRACTION, seed)
    model, _ = tracer.call("nn.train", nn.train, train_set, spec, hyper)
    accuracy, _ = tracer.call("nn.evaluate", nn.evaluate, model, test_set)
    blob = tracer.call("nn.export", nn.export_model, model, spec, data.classes)
    return blob, accuracy
