"""Snapshot catalog: versioned, atomically-published bundle store.

A catalog is a directory tree mapping snapshot *names* to monotonically
increasing integer *versions*::

    <root>/<name>/v00000001/{manifest.json, arrays.npz}
    <root>/<name>/v00000002/{...}

Publication is **atomic write-rename**: the bundle is first written
whole into a hidden stage directory (``.stage-v...``) under the same
name, then :func:`os.replace`-renamed into its final ``v%08d`` slot.
Readers either see a complete bundle or none at all; a crash mid-write
leaves only a stage directory, which the next publish sweeps away.
Versions are never mutated in place — an incremental refresh (e.g. the
dynamic-graph feed) publishes a *new* version, and result-cache entries
keyed on the old ``(name, version)`` pair can simply never be returned
for the new one.

Retention: after each publish the catalog keeps the newest
``KEEP_VERSIONS`` published versions of that name and deletes the older
ones, so a dynamic feed's catalog stays bounded.  A reader that
resolved an earlier latest version can still open it until
``KEEP_VERSIONS - 1`` newer versions have been published.

Staleness detection probes one slot: a service holding version ``v``
asks :meth:`SnapshotCatalog.is_stale` whether some ``v' > v`` has been
published, and the answer normally comes from two ``stat`` calls on
the slots ``v+1`` and ``v`` (the catalog directory is listed only when
those two are inconclusive).  Nothing is cached in the process, so a
publish from another process is seen on the next call.
"""

from __future__ import annotations

import os
import re
import shutil
from pathlib import Path

from repro.errors import SnapshotError
from repro.serve.snapshot import MANIFEST_FILE, Snapshot

__all__ = ["SnapshotCatalog", "KEEP_VERSIONS"]

#: published versions of one name that survive a publish (at least 2,
#: so the version a reader resolved just before a publish stays open)
KEEP_VERSIONS = 4

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_VERSION_RE = re.compile(r"^v(\d{8})$")
_STAGE_PREFIX = ".stage-"


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise SnapshotError(
            f"invalid snapshot name {name!r}: use letters, digits, "
            f"'.', '_', '-' (must not start with '.')"
        )
    return name


def _is_published(bundle: str) -> bool:
    """A bundle directory counts as published once its manifest exists."""
    return os.path.exists(os.path.join(bundle, MANIFEST_FILE))


class SnapshotCatalog:
    """Open-by-name access to a directory of versioned snapshot bundles."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # the staleness probe joins strings: a Path join costs as much
        # as the stat it feeds
        self._root = os.fspath(self.root)

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------

    def names(self) -> list[str]:
        """Snapshot names with at least one published version, sorted."""
        out = []
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir() and _NAME_RE.match(entry.name):
                if self.versions(entry.name):
                    out.append(entry.name)
        return out

    def _version_dirs(self, name: str) -> list[tuple[int, str]]:
        """``(version, path)`` of every ``v%08d`` entry of ``name``,
        ascending, from one directory listing (published or not)."""
        _check_name(name)
        try:
            with os.scandir(self.root / name) as entries:
                found = [
                    (int(match.group(1)), entry.path)
                    for entry in entries
                    if (match := _VERSION_RE.match(entry.name))
                ]
        except (FileNotFoundError, NotADirectoryError):
            return []
        return sorted(found)

    def versions(self, name: str) -> list[int]:
        """Published versions of ``name``, ascending (empty if none)."""
        return [
            version
            for version, path in self._version_dirs(name)
            if _is_published(path)
        ]

    def latest_version(self, name: str) -> int | None:
        """Newest published version of ``name``, or ``None``.

        Probes manifests from the newest entry down and stops at the
        first complete bundle: one listing and (normally) one ``stat``,
        however many versions are kept.
        """
        for version, path in reversed(self._version_dirs(name)):
            if _is_published(path):
                return version
        return None

    def is_stale(self, name: str, version: int) -> bool:
        """Whether a newer version than ``version`` has been published.

        Probes the next slot instead of listing the directory:

        - slot ``v+1`` exists and holds a manifest: stale;
        - slot ``v+1`` is absent and ``v`` holds its manifest: not stale;
        - anything else (a manifest-less ``v+1``, such as a bundle
          whose delete failed half way, or ``v`` itself pruned): the
          full :meth:`latest_version` listing decides.

        The second rule is sound because :meth:`publish` claims slots
        upward from latest + 1 and moves past a slot only when it
        exists, so a published ``w > v+1`` implies that slot ``v+1``
        existed; and :meth:`_prune` unpublishes in ascending order, so
        a removed ``v+1`` implies that ``v``'s manifest is gone too.
        Stage directories (``.stage-v...``) are never probed.  Both
        common answers cost two ``stat`` calls and no listing.
        """
        _check_name(name)
        version = int(version)
        base = f"{self._root}/{name}/v"
        following = f"{base}{version + 1:08d}"
        if os.path.exists(following):
            if os.path.exists(f"{following}/{MANIFEST_FILE}"):
                return True
        elif os.path.exists(f"{base}{version:08d}/{MANIFEST_FILE}"):
            return False
        latest = self.latest_version(name)
        return latest is not None and latest > version

    def path(self, name: str, version: int) -> Path:
        """Bundle directory of ``name`` at ``version``."""
        _check_name(name)
        return self.root / name / f"v{int(version):08d}"

    # ------------------------------------------------------------------
    # publish / open
    # ------------------------------------------------------------------

    def publish(self, snapshot: Snapshot, name: str | None = None) -> int:
        """Write ``snapshot`` as the next version of ``name``; return it.

        The bundle is staged under a hidden directory and renamed into
        place, so concurrent readers never observe a half-written
        version.  Stale stage directories from crashed publishes are
        removed first; published versions older than the newest
        ``KEEP_VERSIONS`` are deleted after the rename.
        """
        name = _check_name(name or snapshot.name)
        base = self.root / name
        base.mkdir(parents=True, exist_ok=True)
        for entry in base.iterdir():
            if entry.name.startswith(_STAGE_PREFIX) and entry.is_dir():
                shutil.rmtree(entry)
        version = (self.latest_version(name) or 0) + 1
        snapshot.name = name
        snapshot.version = version
        stage = base / f"{_STAGE_PREFIX}v{version:08d}"
        snapshot.save(stage)
        final = self.path(name, version)
        while True:
            try:
                os.replace(stage, final)
                break
            except OSError:
                if not final.exists():
                    raise
                # another publisher claimed the slot; take the next one
                version += 1
                snapshot.version = version
                next_stage = base / f"{_STAGE_PREFIX}v{version:08d}"
                snapshot.save(next_stage)
                shutil.rmtree(stage)
                stage = next_stage
                final = self.path(name, version)
        self._prune(name, version)
        return version

    def _prune(self, name: str, written: int) -> None:
        """Delete published versions of ``name`` beyond the newest
        ``KEEP_VERSIONS``, never ``written``.  Manifest-less ``v…``
        directories are not published and are left alone."""
        published = [
            (version, path)
            for version, path in self._version_dirs(name)
            if _is_published(path)
        ]
        for version, path in published[:-KEEP_VERSIONS]:
            if version == written:
                continue
            # unpublish first: a reader never sees a half-deleted bundle
            # as a published version.  A concurrent publisher may be
            # pruning the same bundle, and the new version is already
            # published, so a failed delete only leaves an unpublished
            # directory behind, as a crashed publish does
            Path(path, MANIFEST_FILE).unlink(missing_ok=True)
            shutil.rmtree(path, ignore_errors=True)

    def open(self, name: str, version: int | None = None) -> Snapshot:
        """Load ``name`` at ``version`` (default: the latest).

        Raises :class:`SnapshotError` when the name or version does not
        exist, or when the bundle fails validation.
        """
        _check_name(name)
        if version is None:
            version = self.latest_version(name)
            if version is None:
                known = ", ".join(self.names()) or "<none>"
                raise SnapshotError(
                    f"no published snapshot named {name!r} in {self.root} "
                    f"(known: {known})"
                )
        bundle = self.path(name, version)
        if not bundle.is_dir():
            raise SnapshotError(
                f"snapshot {name!r} has no version {int(version)} in {self.root}"
            )
        snapshot = Snapshot.load(bundle)
        if snapshot.name != name or snapshot.version != int(version):
            raise SnapshotError(
                f"manifest identity ({snapshot.name!r} v{snapshot.version}) "
                f"does not match catalog slot ({name!r} v{int(version)})"
            )
        return snapshot

    def __repr__(self) -> str:
        return f"SnapshotCatalog({str(self.root)!r}, names={self.names()})"
