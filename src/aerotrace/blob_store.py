"""Per-node blob storage: addressing, retried byte-stream upload, tiering, cost model.

Each monitoring node owns one container named after it; every object the node
produces lands in that container under a ``video/`` or ``csv/`` key. Backends
are pluggable; the two shipped here (in-memory x filesystem) behave alike:
``put`` stores bytes and stamps an upload time, objects start in the ``cool``
tier, and ``archive`` objects refuse reads until rehydrated.
"""
from __future__ import annotations

import logging
import re
import threading
import time as _time
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Callable

from .errors import BackendError, DataError
from .series import UTC, as_utc, format_utc, parse_utc

log = logging.getLogger(__name__)

TIER_COOL = "cool"
TIER_ARCHIVE = "archive"

NODE_ID_RE = re.compile(r"^[a-z0-9-]{1,63}$")

GB = 10 ** 9
DAYS_PER_MONTH = 30


class BackendUnavailable(BackendError):
    """The backend did not accept the request; the caller may retry."""


class ArchivedObject(BackendError):
    """Reads of archive-tier objects are refused until the object is rehydrated."""


class UploadFailed(BackendError):
    def __init__(self, job: "UploadJob"):
        self.job = job
        super().__init__(f"upload of {job.local_path} failed after {job.attempts} attempts")


class LocalFileMissing(DataError):
    pass


class InvalidNodeId(DataError):
    pass


class InvalidBlobKey(DataError):
    pass


def validate_node_id(node_id: str) -> str:
    if not NODE_ID_RE.match(node_id):
        raise InvalidNodeId(f"node id {node_id!r} must match [a-z0-9-]{{1,63}}")
    return node_id


@dataclass(frozen=True)
class BlobRef:
    """Address of one stored object: container (= node id), key, and tier."""

    container: str
    key: str
    tier: str = TIER_COOL

    def __post_init__(self) -> None:
        validate_node_id(self.container)
        # Keys map onto paths below the container directory, so none may
        # leave it or collide with a backend's ``.meta``/``.tmp`` sidecars.
        if {"", ".", ".."} & set(self.key.split("/")):
            raise InvalidBlobKey(f"key {self.key!r} has an empty, '.' or '..' segment")
        if "\\" in self.key or self.key.endswith((".meta", ".tmp")):
            raise InvalidBlobKey(f"key {self.key!r} has a backslash or a sidecar suffix")
        if self.tier not in (TIER_COOL, TIER_ARCHIVE):
            raise DataError(f"unknown tier {self.tier!r}")


@dataclass
class UploadJob:
    blob: BlobRef
    local_path: Path
    attempts: int = 0
    confirmed_at: datetime | None = None


@dataclass(frozen=True)
class ObjectInfo:
    key: str
    size: int
    uploaded_at: datetime
    tier: str


class MemoryBackend:
    """Dict-backed backend for tests and simulations. Thread-safe."""

    def __init__(self):
        self._lock = threading.Lock()
        self._containers: dict[str, dict[str, dict]] = {}

    def ensure_container(self, name: str) -> None:
        with self._lock:
            self._containers.setdefault(name, {})

    def container_exists(self, name: str) -> bool:
        with self._lock:
            return name in self._containers

    def _container(self, name: str) -> dict:
        if name not in self._containers:
            raise BackendUnavailable(f"container {name!r} does not exist")
        return self._containers[name]

    def _object(self, container: str, key: str) -> dict:
        objs = self._container(container)
        if key not in objs:
            raise BackendUnavailable(f"{container}/{key} not found")
        return objs[key]

    def put(self, container: str, key: str, data: bytes, uploaded_at: datetime) -> int:
        with self._lock:
            self._container(container)[key] = {
                "data": bytes(data), "uploaded_at": uploaded_at, "tier": TIER_COOL,
            }
            return len(data)

    def get(self, container: str, key: str) -> bytes:
        with self._lock:
            return self._object(container, key)["data"]

    def get_tier(self, container: str, key: str) -> str:
        with self._lock:
            return self._object(container, key)["tier"]

    def set_tier(self, container: str, key: str, tier: str) -> None:
        with self._lock:
            self._object(container, key)["tier"] = tier

    def list_objects(self, container: str) -> list[ObjectInfo]:
        with self._lock:
            objs = self._container(container)
            return sorted(
                (ObjectInfo(key=k, size=len(o["data"]), uploaded_at=o["uploaded_at"],
                            tier=o["tier"]) for k, o in objs.items()),
                key=lambda o: o.key,
            )


class FilesystemBackend:
    """Stores objects as ``<root>/<container>/<key>`` plus a flat-text sidecar.

    The sidecar ``<key>.meta`` records ``tier`` and ``uploaded_at`` so listings
    and tier sweeps survive process restarts.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def ensure_container(self, name: str) -> None:
        (self.root / name).mkdir(parents=True, exist_ok=True)

    def container_exists(self, name: str) -> bool:
        return (self.root / name).is_dir()

    def _obj_path(self, container: str, key: str) -> Path:
        cdir = self.root / container
        if not cdir.is_dir():
            raise BackendUnavailable(f"container {container!r} does not exist")
        return cdir / key

    def _existing(self, container: str, key: str) -> Path:
        path = self._obj_path(container, key)
        if not path.is_file():
            raise BackendUnavailable(f"{container}/{key} not found")
        return path

    def put(self, container: str, key: str, data: bytes, uploaded_at: datetime) -> int:
        path = self._obj_path(container, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(data)
        tmp.replace(path)
        self._write_meta(path, TIER_COOL, uploaded_at)
        return len(data)

    @staticmethod
    def _meta_path(path: Path) -> Path:
        return path.with_name(path.name + ".meta")

    def _write_meta(self, path: Path, tier: str, uploaded_at: datetime) -> None:
        self._meta_path(path).write_text(
            f"tier={tier}\nuploaded_at={format_utc(uploaded_at)}\n")

    def _read_meta(self, path: Path) -> tuple[str, datetime]:
        meta = {}
        try:
            for line in self._meta_path(path).read_text().splitlines():
                if "=" in line:
                    k, v = line.split("=", 1)
                    meta[k.strip()] = v.strip()
            return meta["tier"], parse_utc(meta["uploaded_at"])
        except (OSError, KeyError, ValueError) as exc:
            raise BackendUnavailable(f"{path}: unreadable sidecar: {exc!r}") from exc

    def get(self, container: str, key: str) -> bytes:
        return self._existing(container, key).read_bytes()

    def get_tier(self, container: str, key: str) -> str:
        return self._read_meta(self._existing(container, key))[0]

    def set_tier(self, container: str, key: str, tier: str) -> None:
        path = self._existing(container, key)
        _, uploaded_at = self._read_meta(path)
        self._write_meta(path, tier, uploaded_at)

    def list_objects(self, container: str) -> list[ObjectInfo]:
        cdir = self.root / container
        if not cdir.is_dir():
            raise BackendUnavailable(f"container {container!r} does not exist")
        infos = []
        for path in sorted(cdir.rglob("*")):
            if not path.is_file() or path.suffix in (".meta", ".tmp"):
                continue
            tier, uploaded_at = self._read_meta(path)
            infos.append(ObjectInfo(
                key=path.relative_to(cdir).as_posix(),
                size=path.stat().st_size, uploaded_at=uploaded_at, tier=tier))
        return sorted(infos, key=lambda o: o.key)


@dataclass
class BlobStore:
    """Store facade: validated addressing, retried uploads, tier policy.

    ``sleep`` and ``now`` are injectable so tests and accelerated simulations
    can control the retry schedule and object ages.
    """

    backend: object
    sleep: Callable[[float], None] = _time.sleep
    now: Callable[[], datetime] = lambda: datetime.now(tz=UTC)
    max_attempts: int = 5
    backoff_base_s: float = 5.0
    backoff_factor: float = 2.0

    def ensure_node_container(self, node_id: str) -> str:
        validate_node_id(node_id)
        self.backend.ensure_container(node_id)
        return node_id

    def upload(self, job: UploadJob) -> UploadJob:
        """Stream a sealed local file into its blob, retrying transient failures.

        Backoff between attempts is ``base * factor**(attempt-1)``. After
        ``max_attempts`` failures UploadFailed is raised; on success the job
        gets its ``confirmed_at`` stamp.
        """
        path = Path(job.local_path)
        if not path.is_file():
            raise LocalFileMissing(f"{path} does not exist")
        data = path.read_bytes()
        delay = self.backoff_base_s
        while True:
            job.attempts += 1
            try:
                stored = self.backend.put(job.blob.container, job.blob.key, data, self.now())
            except BackendUnavailable as exc:
                log.warning("upload attempt %d for %s failed: %s",
                            job.attempts, job.blob.key, exc)
                if job.attempts >= self.max_attempts:
                    raise UploadFailed(job) from exc
                self.sleep(delay)
                delay *= self.backoff_factor
                continue
            if stored != len(data):
                raise UploadFailed(job)
            job.confirmed_at = self.now()
            return job

    def download(self, ref: BlobRef) -> bytes:
        tier = self.backend.get_tier(ref.container, ref.key)
        if tier == TIER_ARCHIVE:
            raise ArchivedObject(f"{ref.container}/{ref.key} is archived; rehydrate first")
        return self.backend.get(ref.container, ref.key)

    def rehydrate(self, ref: BlobRef) -> None:
        """Test hook: flip an archived object back to the cool tier."""
        self.backend.set_tier(ref.container, ref.key, TIER_COOL)

    def list_node_objects(self, node_id: str) -> list[ObjectInfo]:
        validate_node_id(node_id)
        return self.backend.list_objects(node_id)

    def apply_tier_policy(self, node_id: str, archive_after: timedelta,
                          now: datetime | None = None) -> list[BlobRef]:
        """Archive every object strictly older than ``archive_after``. Idempotent."""
        now = as_utc(now) if now is not None else self.now()
        moved = []
        for obj in self.list_node_objects(node_id):
            if obj.tier == TIER_ARCHIVE:
                continue
            if now - obj.uploaded_at > archive_after:
                self.backend.set_tier(node_id, obj.key, TIER_ARCHIVE)
                moved.append(BlobRef(container=node_id, key=obj.key, tier=TIER_ARCHIVE))
        return moved


def estimate_storage_cost(daily_bytes: float, days: int, rate_per_gb_month: float) -> float:
    """Cumulative storage cost of data accumulating at a constant daily rate.

    Day d stores d*daily_bytes, so the daily fee grows linearly and the
    cumulative cost quadratically: rate * daily_gb * days*(days+1)/2 / 30,
    with decimal GB and 30-day months.
    """
    if daily_bytes < 0 or days < 0 or rate_per_gb_month < 0:
        raise DataError("cost inputs must be non-negative")
    gb_days = (daily_bytes / GB) * days * (days + 1) / 2
    return rate_per_gb_month * gb_days / DAYS_PER_MONTH
