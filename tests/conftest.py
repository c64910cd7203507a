import threading
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from aerotrace.blob_store import BlobStore
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


class FlakyStore(BlobStore):
    """Store whose uploads fail a scripted number of times.

    fail_times=None means every upload fails forever. A failing upload raises
    ``error`` before it copies anything.
    """

    def __init__(self, root, fail_times=0, error=BackendError):
        super().__init__(root)
        self.fail_times = fail_times
        self.error = error
        self.put_attempts = 0
        self._lock = threading.Lock()

    def _should_fail(self):
        return self.fail_times is None or self.put_attempts <= self.fail_times

    def upload(self, job):
        with self._lock:
            self.put_attempts += 1
            if self._should_fail():
                raise self.error(f"scripted failure #{self.put_attempts}")
        return super().upload(job)


@pytest.fixture
def rng():
    return np.random.default_rng(20220701)
