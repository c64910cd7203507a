import time
from datetime import timedelta

from aerotrace.clocks import AcceleratedClock

from conftest import T0


def test_sleep_until_paces_virtual_time():
    began = time.monotonic()
    clock = AcceleratedClock(start=T0, accel=1000.0)
    clock.sleep_until(T0 - timedelta(days=1))  # already past: returns at once
    clock.sleep_until(T0 + timedelta(seconds=50))
    assert 0.05 <= time.monotonic() - began < 1.0


def test_sleep_until_returns_at_any_finite_accel():
    clock = AcceleratedClock(start=T0, accel=1e300)
    began = time.monotonic()
    clock.sleep_until(T0 + timedelta(days=3650))
    assert time.monotonic() - began < 1.0
