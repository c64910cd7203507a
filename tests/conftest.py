import threading
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from aerotrace.blob_store import BackendUnavailable, FilesystemBackend

UTC = timezone.utc
T0 = datetime(2022, 7, 1, 16, 0, 0, tzinfo=UTC)


def at(seconds: float, base: datetime = T0) -> datetime:
    return base + timedelta(seconds=seconds)


def make_series(values, start: datetime = T0, step_s: float = 10.0):
    from aerotrace.series import TimeSeries
    return TimeSeries.from_points(
        (start + timedelta(seconds=i * step_s), float(v)) for i, v in enumerate(values))


class FlakyBackend:
    """FilesystemBackend wrapper, rooted at ``root``, whose puts fail a scripted number of times.

    fail_times=None means every put fails forever. Keys matching
    ``fail_prefix`` (when set) are the only ones affected. A failing put
    raises ``error``.
    """

    def __init__(self, root, fail_times=0, fail_prefix=None, error=BackendUnavailable):
        self.inner = FilesystemBackend(root)
        self.fail_times = fail_times
        self.fail_prefix = fail_prefix
        self.error = error
        self.put_attempts = 0
        self._lock = threading.Lock()

    def _should_fail(self, key):
        if self.fail_prefix is not None and not key.startswith(self.fail_prefix):
            return False
        if self.fail_times is None:
            return True
        if self.put_attempts <= self.fail_times:
            return True
        return False

    def put(self, container, key, src, uploaded_at):
        with self._lock:
            self.put_attempts += 1
            if self._should_fail(key):
                raise self.error(f"scripted failure #{self.put_attempts}")
        return self.inner.put(container, key, src, uploaded_at)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class FakeSleeper:
    """Records requested sleep durations without sleeping."""

    def __init__(self):
        self.sleeps = []

    def __call__(self, seconds):
        self.sleeps.append(seconds)


@pytest.fixture
def rng():
    return np.random.default_rng(20220701)
