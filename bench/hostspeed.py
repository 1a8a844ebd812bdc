"""How fast the host runs Python right now, from a fixed probe loop.

The benchmark shares a few cores with other tenants, and their load slows
the CPU itself (CPU time stays equal to wall time): the same operation takes
up to 1.5-1.9 times as long for minutes at a stretch.  A run's timings are
therefore scaled to a nominal host.  After every round the runner spends
PROBE_SHARE of that round's time on whole batches of a fixed loop that owes
nothing to spindecay, and

    speed = NOMINAL_UNIT_S / (mean seconds of one loop unit in this run)

is below 1 on a slowed host.  Timings multiplied by it (rates divided) read
as on a host where one unit takes NOMINAL_UNIT_S.  Set-up is short, so each
set-up repetition is followed by a probe as long as itself, and set-up time
is scaled by the speed of those probes.  The probe runs between rounds,
never beside an operation, and the program starts no threads, so the
program under test cannot slow the probe.
"""
from __future__ import annotations

import time

# One unit's time on the 2-core development host when it was quiet (the
# median read 0.4-0.7 ms, depending on the hour), rounded; it fixes the
# scale only.
NOMINAL_UNIT_S = 5e-4
PROBE_SHARE = 0.1
BATCH = 20  # units between clock reads, about 10 ms


def _unit():
    d = {}
    s = 0.0
    for i in range(2000):
        k = i & 63
        d[k] = d.get(k, 0.0) * 0.5 + i
        s += (i * i) % 7
    return s


class Probe:
    """Accumulates probe units and their seconds over a run."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0

    def run(self, want):
        """Whole batches for at least `want` seconds; returns the speed
        they measured."""
        t0, units = time.perf_counter(), 0
        while True:
            for _ in range(BATCH):
                _unit()
            units += BATCH
            spent = time.perf_counter() - t0
            if spent >= want:
                self.units += units
                self.seconds += spent
                return NOMINAL_UNIT_S / (spent / units)

    def speed(self):
        return NOMINAL_UNIT_S / (self.seconds / self.units)
