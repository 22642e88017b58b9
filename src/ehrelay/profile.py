"""Harvest profiles: arrival events, epochs, energy bookkeeping, file I/O.

A profile lists harvest events (t, e_source, e_relay) with the first event at
t = 0, plus a horizon T > last event time.  The interval between consecutive
events is an epoch; with K+1 events there are K+1 epochs and the last one
ends at T.  The energy of the event at the start of an epoch becomes usable
from that epoch onward, so the prefix-k causality bound is the sum of the
first k event energies.

Problem files are JSON::

    {
      "channel": {"a": 2.0, "b": 1.0, "noise": 1.0},
      "horizon": 6.0,
      "events": [{"t": 0.0, "e_source": 2.0, "e_relay": 1.0}, ...]
    }

Times are seconds, energies joules.
"""

import functools
import io
import json
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .capacity import ChannelParams

PROPORTIONALITY_RTOL = 1e-9

SOURCE = "source"
RELAY = "relay"

__all__ = [
    "SOURCE",
    "RELAY",
    "HarvestEvent",
    "HarvestProfile",
    "Epoch",
    "ProfileError",
    "ProfileFormatError",
    "validate",
    "require_valid",
    "epochs",
    "epoch_lengths",
    "cumulative_energy",
    "cumulative_energies",
    "proportionality",
    "parse_problem",
    "load_problem",
    "problem_to_dict",
    "save_problem",
    "events_to_csv",
]


class ProfileError(ValueError):
    """A profile violates its invariants; .messages lists every violation."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class ProfileFormatError(ValueError):
    """A problem file could not be parsed (missing/ill-typed fields)."""


@dataclass(frozen=True)
class HarvestEvent:
    """One harvest instant: time in seconds, per-node energies in joules."""

    t: float
    e_source: float
    e_relay: float

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "e_source", float(self.e_source))
        object.__setattr__(self, "e_relay", float(self.e_relay))


class _ProfileArrays(NamedTuple):
    """The arrays derived from a profile, read-only: event times, the two
    nodes' event energies, epoch lengths and the two nodes' cumulative caps
    (the prefix-k bounds, k = 1..K+1)."""

    times: np.ndarray
    e_source: np.ndarray
    e_relay: np.ndarray
    lengths: np.ndarray
    caps_source: np.ndarray
    caps_relay: np.ndarray


def _read_only(arr):
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class HarvestProfile:
    """Ordered harvest events plus the transmission deadline (horizon).

    events and horizon are frozen, so everything derived from them is
    computed once per profile: the invariant check and the arrays of
    :class:`_ProfileArrays`, which the solvers, the closed forms, the
    oracle and the command line read without copying, through
    :func:`_node_arrays`.  Those arrays are read-only; the public accessors (times, e_source, e_relay,
    :func:`epoch_lengths`, :func:`cumulative_energies`) return fresh,
    writable copies.
    """

    events: tuple
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "horizon", float(self.horizon))

    @property
    def n_epochs(self):
        return len(self.events)

    @property
    def times(self):
        return self._arrays.times.copy()

    @property
    def e_source(self):
        return self._arrays.e_source.copy()

    @property
    def e_relay(self):
        return self._arrays.e_relay.copy()

    def __getstate__(self):
        # pickles and copies carry the fields alone: the caches are rebuilt,
        # read-only, on first use (a pickled array comes back writable)
        return {"events": self.events, "horizon": self.horizon}

    @functools.cached_property
    def _violations(self):
        return tuple(_check_invariants(self))

    @functools.cached_property
    def _arrays(self):
        times = np.array([ev.t for ev in self.events], dtype=float)
        e1 = np.array([ev.e_source for ev in self.events], dtype=float)
        e2 = np.array([ev.e_relay for ev in self.events], dtype=float)
        return _ProfileArrays(
            times=_read_only(times),
            e_source=_read_only(e1),
            e_relay=_read_only(e2),
            lengths=_read_only(np.diff(np.append(times, self.horizon))),
            caps_source=_read_only(np.cumsum(e1)),
            caps_relay=_read_only(np.cumsum(e2)))


@dataclass(frozen=True)
class Epoch:
    """Epoch i spans [start, end]; indices run 1..K+1."""

    index: int
    start: float
    end: float
    len: float


# Messages for the two "node never transmits" invariants, which several
# consumers deliberately relax (a zero-energy profile is degenerate but a
# legitimate input to the solvers, producing the all-zero schedule).
_NO_SOURCE_ENERGY = "no positive e_source in any event (source can never transmit)"
_NO_RELAY_ENERGY = "no positive e_relay in any event (relay can never transmit)"
DEGENERACY_MESSAGES = (_NO_SOURCE_ENERGY, _NO_RELAY_ENERGY)


def validate(profile):
    """Return the full list of invariant violations (empty list when valid).

    The check runs once per profile; every call returns a fresh list.
    """
    return list(profile._violations)


def _check_invariants(profile):
    errs = []
    evs = profile.events
    if len(evs) == 0:
        return ["profile has no events"]
    for i, ev in enumerate(evs):
        for field in ("t", "e_source", "e_relay"):
            v = getattr(ev, field)
            if not math.isfinite(v):
                errs.append("event %d: %s is not finite" % (i, field))
        if ev.t < 0:
            errs.append("event %d: t=%g is negative" % (i, ev.t))
        if ev.e_source < 0:
            errs.append("event %d: e_source=%g is negative" % (i, ev.e_source))
        if ev.e_relay < 0:
            errs.append("event %d: e_relay=%g is negative" % (i, ev.e_relay))
    if evs[0].t != 0.0:
        errs.append("first event must be at t=0 (got t=%g)" % evs[0].t)
    for i in range(1, len(evs)):
        if not evs[i].t > evs[i - 1].t:
            errs.append("event times must be strictly increasing (events %d, %d)"
                        % (i - 1, i))
    if not math.isfinite(profile.horizon):
        errs.append("horizon is not finite")
    elif not profile.horizon > evs[-1].t:
        errs.append("horizon before last event (T=%g <= t=%g)"
                    % (profile.horizon, evs[-1].t))
    if not any(ev.e_source > 0 for ev in evs):
        errs.append(_NO_SOURCE_ENERGY)
    if not any(ev.e_relay > 0 for ev in evs):
        errs.append(_NO_RELAY_ENERGY)
    return errs


def require_valid(profile, allow_degenerate=False):
    """Raise ProfileError unless the profile is valid.

    With allow_degenerate=True the all-zero-energy invariants are waived and
    the list of waived messages is returned instead (solvers emit the
    corresponding zero schedule with a warning).
    """
    errs = validate(profile)
    if allow_degenerate:
        waived = [m for m in errs if m in DEGENERACY_MESSAGES]
        errs = [m for m in errs if m not in DEGENERACY_MESSAGES]
        if errs:
            raise ProfileError(errs)
        return waived
    if errs:
        raise ProfileError(errs)
    return []


def epochs(profile):
    """The K+1 epochs partitioning [0, T]."""
    require_valid(profile, allow_degenerate=True)
    ts = list(profile._arrays.times) + [profile.horizon]
    return [Epoch(index=i + 1, start=ts[i], end=ts[i + 1], len=ts[i + 1] - ts[i])
            for i in range(len(profile.events))]


def epoch_lengths(profile):
    """Epoch lengths as an array (sums exactly to the horizon)."""
    return profile._arrays.lengths.copy()


def _node_arrays(profile, node):
    """(event times, epoch lengths, event energies, cumulative caps) of
    node: the profile's cached arrays, read-only and shared.  Other modules
    read the cache through this function alone."""
    arrays = profile._arrays
    if node == SOURCE:
        return arrays.times, arrays.lengths, arrays.e_source, arrays.caps_source
    if node == RELAY:
        return arrays.times, arrays.lengths, arrays.e_relay, arrays.caps_relay
    raise ValueError("node must be %r or %r, got %r" % (SOURCE, RELAY, node))


def cumulative_energy(profile, node, k):
    """Energy usable through epoch k: the sum of the first k event energies."""
    n = profile.n_epochs
    if not 1 <= k <= n:
        raise ValueError("k must be in [1, %d], got %r" % (n, k))
    return float(_node_arrays(profile, node)[2][:k].sum())


def cumulative_energies(profile, node):
    """Vector of the prefix-k bounds for k = 1..K+1."""
    return _node_arrays(profile, node)[3].copy()


def proportionality(profile, rtol=PROPORTIONALITY_RTOL):
    """gamma > 0 with e_relay = gamma*e_source at every event, or None.

    0/0 pairs are treated as consistent; the comparison is relative so that
    modeling intent is separated from floating-point noise.
    """
    e1 = profile._arrays.e_source
    e2 = profile._arrays.e_relay
    both = (e1 > 0) & (e2 > 0)
    if not np.any(both):
        return None
    gamma = float(e2[both][0] / e1[both][0])
    scale = max(float(np.max(e2)), gamma * float(np.max(e1)))
    if np.all(np.abs(e2 - gamma * e1) <= rtol * scale):
        return gamma
    return None


# ---------------------------------------------------------------------------
# Serialization


def _get_number(obj, key, where):
    if key not in obj:
        raise ProfileFormatError("missing field %r in %s" % (key, where))
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ProfileFormatError("field %r in %s must be a number, got %r"
                                 % (key, where, v))
    return float(v)


def parse_problem(data):
    """Build (ChannelParams, HarvestProfile) from a parsed problem dict."""
    if not isinstance(data, dict):
        raise ProfileFormatError("problem file must contain a JSON object")
    ch_obj = data.get("channel")
    if not isinstance(ch_obj, dict):
        raise ProfileFormatError("missing field 'channel' (object with a, b, noise)")
    try:
        ch = ChannelParams(a=_get_number(ch_obj, "a", "channel"),
                           b=_get_number(ch_obj, "b", "channel"),
                           noise=_get_number(ch_obj, "noise", "channel"))
    except ValueError as exc:
        if isinstance(exc, ProfileFormatError):
            raise
        raise ProfileFormatError(str(exc)) from exc
    horizon = _get_number(data, "horizon", "problem")
    events_obj = data.get("events")
    if not isinstance(events_obj, list) or not events_obj:
        raise ProfileFormatError("missing field 'events' (non-empty array)")
    events = []
    for i, ev in enumerate(events_obj):
        if not isinstance(ev, dict):
            raise ProfileFormatError("events[%d] must be an object" % i)
        where = "events[%d]" % i
        events.append(HarvestEvent(t=_get_number(ev, "t", where),
                                   e_source=_get_number(ev, "e_source", where),
                                   e_relay=_get_number(ev, "e_relay", where)))
    return ch, HarvestProfile(events=tuple(events), horizon=horizon)


def load_problem(path):
    """Parse a problem file; raises ProfileFormatError on malformed input."""
    with open(path, "r") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProfileFormatError("invalid JSON in %s: %s" % (path, exc)) from exc
    return parse_problem(data)


def problem_to_dict(ch, profile):
    return {
        "channel": {"a": ch.a, "b": ch.b, "noise": ch.noise},
        "horizon": profile.horizon,
        "events": [{"t": ev.t, "e_source": ev.e_source, "e_relay": ev.e_relay}
                   for ev in profile.events],
    }


def save_problem(path, ch, profile):
    """Write a problem file; values round-trip bit-exactly through load_problem."""
    with open(path, "w") as fh:
        json.dump(problem_to_dict(ch, profile), fh, indent=2)
        fh.write("\n")


def events_to_csv(profile):
    """Tabular event export: header plus one row per event, comma-separated."""
    buf = io.StringIO()
    buf.write("t,e_source,e_relay\n")
    for ev in profile.events:
        buf.write("%r,%r,%r\n" % (ev.t, ev.e_source, ev.e_relay))
    return buf.getvalue()
