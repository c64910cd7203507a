"""Per-node blob storage: addressing, file upload, tiering.

Each monitoring node owns one container named after it, the directory
``<root>/<node id>``; every object the node produces lands in that container
under a ``video/`` or ``csv/`` key, as the file ``<root>/<container>/<key>``.
A flat-text ``<key>.meta`` sidecar beside it records the object's tier and
upload time, so listings and tier sweeps survive process restarts. The store
reads no clock: an upload's time comes with its job, and a tier sweep's with
its call. An upload hard-links the local file into the store, or copies it when
the store is on another file system; a download always copies. Objects start
in the ``cool`` tier, and ``archive`` objects cannot be downloaded.
"""
from __future__ import annotations

import os
import re
import shutil
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

from .errors import BackendError, DataError
from .series import format_utc, parse_utc

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
        # leave it or collide with the store's ``.meta``/``.tmp`` sidecars.
        if {"", ".", ".."} & set(self.key.split("/")):
            raise DataError(f"key {self.key!r} has an empty, '.' or '..' segment")
        if "\\" in self.key or self.key.endswith((".meta", ".tmp")):
            raise DataError(f"key {self.key!r} has a backslash or a sidecar suffix")


@dataclass
class UploadJob:
    """A file to store at ``blob``, with the upload time its sidecar records."""

    blob: BlobRef
    local_path: Path
    uploaded_at: datetime
    attempts: int = 0


@dataclass(frozen=True)
class ObjectInfo:
    key: str
    size: int
    uploaded_at: datetime
    tier: str


def _meta_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta")


def _write_meta(path: Path, tier: str, uploaded_at: datetime) -> None:
    _meta_path(path).write_text(f"tier={tier}\nuploaded_at={format_utc(uploaded_at)}\n")


def _read_meta(path: Path) -> tuple[str, datetime]:
    meta = {}
    try:
        for line in _meta_path(path).read_text().splitlines():
            if "=" in line:
                k, v = line.split("=", 1)
                meta[k.strip()] = v.strip()
        return meta["tier"], parse_utc(meta["uploaded_at"])
    except (OSError, KeyError, ValueError) as exc:
        raise BackendError(f"{path}: unreadable sidecar: {exc!r}") from exc


class BlobStore:
    """The blob store rooted at the directory ``root``.

    It reads no clock: callers pass the upload time in each ``UploadJob`` and
    the current time to ``apply_tier_policy``, so object ages follow their time.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _container(self, node_id: str) -> Path:
        cdir = self.root / validate_node_id(node_id)
        if not cdir.is_dir():
            raise BackendError(f"container {node_id!r} does not exist")
        return cdir

    def ensure_node_container(self, node_id: str) -> None:
        (self.root / validate_node_id(node_id)).mkdir(parents=True, exist_ok=True)

    def has(self, ref: BlobRef) -> bool:
        """Whether the object is stored; a missing container holds nothing."""
        return (self.root / ref.container / ref.key).is_file()

    def upload(self, job: UploadJob) -> UploadJob:
        """Link a sealed local file into its object in one attempt.

        The object is a hard link to the file, so the caller must never write
        the file again; where linking fails, as across file systems, the file
        is copied by path instead. Either lands under a ``.tmp`` name, and the
        sidecar (tier ``cool``, upload time ``job.uploaded_at``) is written
        before the rename, so an object is never listed without its sidecar.
        No ``.tmp`` file outlives the call. The stored size must then equal
        the file's size, or a BackendError is raised. A failure is not retried
        here: the caller keeps the file and decides when to try again.
        """
        path = Path(job.local_path)
        if not path.is_file():
            raise DataError(f"{path} does not exist")
        job.attempts += 1
        obj = self._container(job.blob.container) / job.blob.key
        obj.parent.mkdir(parents=True, exist_ok=True)
        tmp = obj.with_name(obj.name + ".tmp")
        try:
            tmp.unlink(missing_ok=True)  # left by a crash, it would refuse the link
            try:
                os.link(path, tmp)
            except OSError:
                shutil.copyfile(path, tmp)
            _write_meta(obj, TIER_COOL, job.uploaded_at)
            # Between two links to one inode, the rename does nothing.
            tmp.replace(obj)
        finally:
            tmp.unlink(missing_ok=True)
        stored, size = obj.stat().st_size, path.stat().st_size
        if stored != size:
            raise BackendError(f"upload of {path} stored {stored} of {size} bytes")
        return job

    def download(self, ref: BlobRef, dst: Path) -> None:
        """Copy (never link) an object to the file ``dst``; archive-tier objects are refused."""
        path = self._container(ref.container) / ref.key
        if not path.is_file():
            raise BackendError(f"{ref.container}/{ref.key} not found")
        if _read_meta(path)[0] == TIER_ARCHIVE:
            raise BackendError(f"{ref.container}/{ref.key} is archived and cannot be downloaded")
        if dst.is_file() and dst.stat().st_nlink > 1:
            dst.unlink()  # as a buffer file linked to its object: replace the name, not the inode
        shutil.copyfile(path, dst)

    def list_node_objects(self, node_id: str) -> list[ObjectInfo]:
        cdir = self._container(node_id)
        infos = []
        for path in sorted(cdir.rglob("*")):
            if not path.is_file() or path.suffix in (".meta", ".tmp"):
                continue
            tier, uploaded_at = _read_meta(path)
            infos.append(ObjectInfo(
                key=path.relative_to(cdir).as_posix(),
                size=path.stat().st_size, uploaded_at=uploaded_at, tier=tier))
        return sorted(infos, key=lambda o: o.key)

    def apply_tier_policy(self, node_id: str, archive_after: timedelta,
                          now: datetime) -> list[BlobRef]:
        """Archive every object strictly older than ``archive_after`` at ``now``. Idempotent."""
        moved = []
        for obj in self.list_node_objects(node_id):
            if obj.tier != TIER_ARCHIVE and now - obj.uploaded_at > archive_after:
                _write_meta(self.root / node_id / obj.key, TIER_ARCHIVE, obj.uploaded_at)
                moved.append(BlobRef(container=node_id, key=obj.key))
        return moved
