"""The node runtime's time source.

The node's schedule is its only time: every timestamp it records is a
scheduled one. A clock only paces the schedule, through ``sleep_until(when)``.
The accelerated clock maps virtual time onto scaled real time so an hour-long
run can execute in under a second; at ``accel=1`` it runs in real time.
"""
from __future__ import annotations

import time
from datetime import datetime

from .errors import DataError
from .series import as_utc


class AcceleratedClock:
    """Virtual clock running ``accel`` times faster than real time.

    Virtual time starts at ``start`` when the clock is constructed and
    advances with the real monotonic clock. Sleeps are shortened by the
    acceleration factor; a sleep target already in the past returns
    immediately, so a loop that falls behind simply catches up.
    """

    def __init__(self, start: datetime, accel: float = 1.0):
        if not 0 < accel < float("inf"):
            raise DataError(f"accel={accel} must be positive and finite")
        self.start = as_utc(start)
        self.accel = float(accel)
        self._mono0 = time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds / self.accel)

    def sleep_until(self, when: datetime) -> None:
        """Sleep until virtual time ``when``. It compares offsets from ``start``
        and builds no datetime, so any finite ``accel`` works."""
        elapsed = (time.monotonic() - self._mono0) * self.accel
        self.sleep((when - self.start).total_seconds() - elapsed)
