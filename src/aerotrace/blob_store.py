"""Per-node blob storage: addressing, file upload, tiering.

Each monitoring node owns one container named after it; every object the node
produces lands in that container under a ``video/`` or ``csv/`` key. One
backend ships, ``FilesystemBackend``: ``put`` and ``get`` copy local files by
path, ``put`` stamps an upload time, objects start in the ``cool`` tier, and
``archive`` objects cannot be downloaded. ``BlobStore`` only calls the
backend's methods, so tests substitute fakes that wrap it.
"""
from __future__ import annotations

import re
import shutil
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Callable

from .errors import BackendError, DataError
from .series import UTC, as_utc, format_utc, parse_utc

TIER_COOL = "cool"
TIER_ARCHIVE = "archive"

NODE_ID_RE = re.compile(r"^[a-z0-9-]{1,63}$")


def validate_node_id(node_id: str) -> str:
    if not NODE_ID_RE.match(node_id):
        raise DataError(f"node id {node_id!r} must match [a-z0-9-]{{1,63}}")
    return node_id


@dataclass(frozen=True)
class BlobRef:
    """Address of one stored object: container (= node id) and key."""

    container: str
    key: str

    def __post_init__(self) -> None:
        validate_node_id(self.container)
        # Keys map onto paths below the container directory, so none may
        # leave it or collide with a backend's ``.meta``/``.tmp`` sidecars.
        if {"", ".", ".."} & set(self.key.split("/")):
            raise DataError(f"key {self.key!r} has an empty, '.' or '..' segment")
        if "\\" in self.key or self.key.endswith((".meta", ".tmp")):
            raise DataError(f"key {self.key!r} has a backslash or a sidecar suffix")


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


class FilesystemBackend:
    """Stores objects as ``<root>/<container>/<key>`` plus a flat-text sidecar.

    The sidecar ``<key>.meta`` records ``tier`` and ``uploaded_at`` so listings
    and tier sweeps survive process restarts.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def ensure_container(self, name: str) -> None:
        (self.root / name).mkdir(parents=True, exist_ok=True)

    def _obj_path(self, container: str, key: str) -> Path:
        cdir = self.root / container
        if not cdir.is_dir():
            raise BackendError(f"container {container!r} does not exist")
        return cdir / key

    def _existing(self, container: str, key: str) -> Path:
        path = self._obj_path(container, key)
        if not path.is_file():
            raise BackendError(f"{container}/{key} not found")
        return path

    def put(self, container: str, key: str, src: Path, uploaded_at: datetime) -> int:
        """Copy the file ``src`` into the object; returns the stored size.

        The copy lands under a ``.tmp`` name and the sidecar is written before
        the rename, so an object is never listed without its sidecar. A failed
        put removes its ``.tmp`` file.
        """
        path = self._obj_path(container, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        try:
            shutil.copyfile(src, tmp)
            self._write_meta(path, TIER_COOL, uploaded_at)
            tmp.replace(path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path.stat().st_size

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
            raise BackendError(f"{path}: unreadable sidecar: {exc!r}") from exc

    def get(self, container: str, key: str, dst: Path) -> None:
        """Copy the object to the file ``dst``."""
        shutil.copyfile(self._existing(container, key), dst)

    def get_tier(self, container: str, key: str) -> str:
        return self._read_meta(self._existing(container, key))[0]

    def set_tier(self, container: str, key: str, tier: str) -> None:
        path = self._existing(container, key)
        _, uploaded_at = self._read_meta(path)
        self._write_meta(path, tier, uploaded_at)

    def list_objects(self, container: str) -> list[ObjectInfo]:
        cdir = self.root / container
        if not cdir.is_dir():
            raise BackendError(f"container {container!r} does not exist")
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
    """Store facade: validated addressing, uploads, tier policy.

    ``now`` is injectable so tests and accelerated simulations control upload
    times, and with them object ages.
    """

    backend: object
    now: Callable[[], datetime] = lambda: datetime.now(tz=UTC)

    def ensure_node_container(self, node_id: str) -> str:
        validate_node_id(node_id)
        self.backend.ensure_container(node_id)
        return node_id

    def upload(self, job: UploadJob) -> UploadJob:
        """Copy a sealed local file into its blob in one attempt.

        The backend copies the file by path, so its contents are never held in
        memory; the size it stored must then equal the file's size, or a
        BackendError is raised. On success the job gets its ``confirmed_at``
        stamp. A failure is not retried here: the caller keeps the file and
        decides when to try again.
        """
        path = Path(job.local_path)
        if not path.is_file():
            raise DataError(f"{path} does not exist")
        job.attempts += 1
        stored = self.backend.put(job.blob.container, job.blob.key, path, self.now())
        size = path.stat().st_size
        if stored != size:
            raise BackendError(f"upload of {path} stored {stored} of {size} bytes")
        job.confirmed_at = self.now()
        return job

    def download(self, ref: BlobRef, dst: Path) -> None:
        """Copy an object to the file ``dst``; archive-tier objects are refused."""
        tier = self.backend.get_tier(ref.container, ref.key)
        if tier == TIER_ARCHIVE:
            raise BackendError(f"{ref.container}/{ref.key} is archived and cannot be downloaded")
        self.backend.get(ref.container, ref.key, dst)

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
                moved.append(BlobRef(container=node_id, key=obj.key))
        return moved

