import threading
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from aerotrace.blob_store import FilesystemBackend
from aerotrace.errors import BackendError

UTC = timezone.utc
T0 = datetime(2022, 7, 1, 16, 0, 0, tzinfo=UTC)
E0 = int(T0.timestamp())  # T0 in epoch seconds


def at(seconds: float, base: datetime = T0) -> datetime:
    return base + timedelta(seconds=seconds)


def make_series(values, start: datetime = T0, step_s: int = 10):
    from aerotrace.series import TimeSeries
    return TimeSeries(int(start.timestamp()) + step_s * np.arange(len(values)), values)


def same_series(a, b) -> bool:
    """Equal epoch and value bytes."""
    return (a.epoch.tobytes() == b.epoch.tobytes()
            and a.values.tobytes() == b.values.tobytes())


class FlakyBackend:
    """FilesystemBackend wrapper, rooted at ``root``, whose puts fail a scripted number of times.

    fail_times=None means every put fails forever. Keys matching
    ``fail_prefix`` (when set) are the only ones affected. A failing put
    raises ``error``.
    """

    def __init__(self, root, fail_times=0, fail_prefix=None, error=BackendError):
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


@pytest.fixture
def rng():
    return np.random.default_rng(20220701)
