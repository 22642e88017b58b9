"""Seeded problem instances as plain arrays (no ``ehrelay`` import).

``criterion2_batch`` reproduces the acceptance suite's criterion-2 batch draw
for draw (seed 20240917, 50 instances, K+1 <= 3, b = 1).  ``cli_profiles``
draws the fixed proportional, relay-only and source-only problem files of
the ``cli-auto`` workload.
"""

import json
from dataclasses import dataclass

import numpy as np

BATCH_SEED = 20240917
BATCH_SIZE = 50
CLI_SEED = 20240918
CLI_PER_KIND = 20


@dataclass(frozen=True)
class Instance:
    """Channel gains, harvest instants and energies; epoch i ends at times[i+1]."""

    name: str
    kind: str
    a: float
    b: float
    noise: float
    times: np.ndarray
    horizon: float
    e1: np.ndarray
    e2: np.ndarray

    @property
    def lengths(self):
        return np.diff(np.append(self.times, self.horizon))

    @property
    def caps1(self):
        return np.cumsum(self.e1)

    @property
    def caps2(self):
        return np.cumsum(self.e2)

    def problem_dict(self):
        return {
            "channel": {"a": self.a, "b": self.b, "noise": self.noise},
            "horizon": self.horizon,
            "events": [{"t": float(t), "e_source": float(u), "e_relay": float(v)}
                       for t, u, v in zip(self.times, self.e1, self.e2)],
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.problem_dict(), fh, indent=2)


def _timeline(rng, n):
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 3.0, size=n)[:-1])])
    return times, float(times[-1] + rng.uniform(0.5, 3.0))


def random_instance(rng, k, name, a_low_frac=0.15):
    """K+1 = k+1 events, positive first harvests, later ones zero at rate 1/4."""
    if rng.random() < a_low_frac:
        a = rng.uniform(0.5, 0.999)
    else:
        a = rng.uniform(1.05, 2.8)
    noise = rng.uniform(0.5, 2.0)
    times, horizon = _timeline(rng, k + 1)
    e1 = rng.uniform(0.5, 8.0, size=k + 1)
    e2 = rng.uniform(0.5, 8.0, size=k + 1)
    for i in range(1, k + 1):
        if rng.random() < 0.25:
            e1[i] = 0.0
        if rng.random() < 0.25:
            e2[i] = 0.0
    return Instance(name, "general", float(a), 1.0, float(noise), times,
                    horizon, e1, e2)


def criterion2_batch():
    rng = np.random.default_rng(BATCH_SEED)
    out = []
    for i in range(BATCH_SIZE):
        k = int(rng.integers(0, 3))
        out.append(random_instance(rng, k, "batch%02d" % i))
    return out


def _single_harvester(rng, n, kind, name):
    """One node harvests at every event (zeros at rate 1/4, never all zero
    after t = 0); the other holds a single battery charged at t = 0."""
    a = float(rng.uniform(1.05, 2.8))
    noise = float(rng.uniform(0.5, 2.0))
    times, horizon = _timeline(rng, n)
    harvests = rng.uniform(0.5, 8.0, size=n)
    harvests[1:][rng.random(n - 1) < 0.25] = 0.0
    if not np.any(harvests[1:] > 0.0):
        harvests[n - 1] = rng.uniform(0.5, 8.0)
    battery = np.zeros(n)
    battery[0] = rng.uniform(0.5, 8.0) * n
    if kind == "relay-only":
        e1, e2 = battery, harvests
    else:
        e1, e2 = harvests, battery
    return Instance(name, kind, a, 1.0, noise, times, horizon, e1, e2)


def _proportional(rng, n, name):
    gamma = float(rng.uniform(0.1, 10.0))
    a = float(rng.uniform(1.05, 2.8))
    noise = float(rng.uniform(0.5, 2.0))
    times, horizon = _timeline(rng, n)
    e1 = rng.uniform(0.5, 8.0, size=n)
    if n > 1 and rng.random() < 0.2:
        e1[int(rng.integers(1, n))] = 0.0
    return Instance(name, "proportional", a, 1.0, noise, times, horizon, e1,
                    gamma * e1)


def cli_profiles():
    """CLI_PER_KIND files of each kind; K+1 from 1 to 7 (from 2 where one
    node must harvest after t = 0)."""
    rng = np.random.default_rng(CLI_SEED)
    out = []
    for j in range(CLI_PER_KIND):
        out.append(_proportional(rng, int(rng.integers(1, 8)), "prop%02d" % j))
    for kind, tag in (("relay-only", "relay"), ("source-only", "source")):
        for j in range(CLI_PER_KIND):
            out.append(_single_harvester(rng, int(rng.integers(2, 8)), kind,
                                         "%s%02d" % (tag, j)))
    return out
