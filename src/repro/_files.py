"""The files the program owns (writing them, keeping the capture cache),
and the process's own clock and peak RSS.

:func:`atomic_replace` is the one way the program writes such a file: the
bytes go to a new temporary sibling, ``<name>.tmp<pid>-<n>``, which a
clean exit renames onto the target.  Capture-cache entries and stream
checkpoints (through ``TraceWriter``), serve's job records and scenarios,
and the linter's summary cache all write through it.
:func:`orphaned_temp_files` finds the siblings whose writer died before
its rename.  :class:`CaptureDirectory` lists, sizes, prunes and clears
the capture cache's entries without reading one, and
:func:`format_bytes` prints their sizes.

:func:`wall_clock` and :func:`peak_rss_bytes` measure the process, for
throughput and memory lines.  The clock read here is the program's only
one: these numbers describe the process, never feed an analysis, and so
are exempt from the RPR001 determinism rule.

The module imports only the standard library, so the linter,
``repro-scan cache`` and the peak-RSS lines of ``report`` and
``validate`` use it without loading NumPy.
"""

from __future__ import annotations

import contextlib
import dataclasses
import fnmatch
import io
import os
import re
import sys
import time
from pathlib import Path
from typing import Iterator, List, Tuple, Union

PathLike = Union[str, Path]


def _create_sibling(path: Path) -> Tuple[io.BufferedWriter, Path]:
    """Create and open a new temporary file beside ``path``.

    ``open(..., "xb")`` gives it the umask-derived mode that
    ``open(path, "wb")`` gives a new file (``tempfile.mkstemp`` would
    force 0600).  The name, ``<name>.tmp<pid>-<n>``, carries the pid and
    the first free sequence number, so concurrent writers of one path
    never share a file.
    """
    n = 0
    while True:
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}-{n}")
        try:
            return open(tmp, "xb"), tmp
        except FileExistsError:
            n += 1


@contextlib.contextmanager
def atomic_replace(path: PathLike) -> Iterator[io.BufferedWriter]:
    """Write ``path`` through a new temporary sibling.

    Yields the sibling (:func:`_create_sibling`) opened for binary
    writing.  A clean exit closes it and renames it onto ``path`` with
    ``os.replace``; an exception deletes it and leaves ``path`` as it was.
    A reader therefore sees the old file or the new one, never part of
    one, and concurrent writers of one path each write their own sibling:
    the last rename wins.
    """
    handle, tmp = _create_sibling(Path(path))
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


#: A temporary sibling's name, as :func:`_create_sibling` makes it.
_TEMP_NAME = re.compile(r"(?P<target>.+)\.tmp(?P<pid>[0-9]+)-[0-9]+")


def _pid_alive(pid: int) -> bool:
    """Whether process ``pid`` exists (signal 0 probes without sending)."""
    if os.name != "posix":
        return True  # no safe probe: treat every writer as live
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return False
    except PermissionError:
        return True  # alive, owned by another user
    return True


def orphaned_temp_files(directory: PathLike, target: str) -> List[Path]:
    """Temporary files in ``directory`` whose writer died before renaming.

    A writer killed inside :func:`atomic_replace` leaves
    ``<name>.tmp<pid>-<n>`` beside its target.  ``target`` is a glob
    pattern for the target's name.  Only files whose writer pid no longer
    exists are listed, so a live writer's file is never touched.
    """
    return [
        path for path in sorted(Path(directory).glob(f"{target}.tmp*"))
        if (match := _TEMP_NAME.fullmatch(path.name))
        and fnmatch.fnmatchcase(match["target"], target)
        and not _pid_alive(int(match["pid"]))
    ]


@dataclasses.dataclass(frozen=True)
class CacheEntry:
    """One cached capture as seen by the maintenance commands."""

    key: str
    path: Path
    bytes: int
    mtime: float
    #: A temporary file its writer left behind when it died mid-store.
    orphan: bool = False


class CaptureDirectory:
    """The capture cache's directory of ``<key>.rtrace`` entries, kept
    without reading one: list, size, prune and clear.

    :class:`repro.exec.cache.CaptureCache` adds keys, loads and stores;
    ``repro-scan cache`` needs only this, so it loads no NumPy.
    """

    def __init__(self, root: PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.rtrace"

    def entries(self) -> List[Path]:
        """Cached capture files, sorted by name.  Stream checkpoints
        (``<key>.stream.rtrace``) in a shared directory are not entries."""
        return [path for path in sorted(self.root.glob("*.rtrace"))
                if not path.name.endswith(".stream.rtrace")]

    def orphans(self) -> List[Path]:
        """Temporary files of stores whose writing process is gone.

        A store writes ``<key>.rtrace.tmp<pid>-<n>`` and renames it onto
        the entry on a clean exit; a process killed before that leaves it
        behind.  Only files whose writer pid no longer exists are listed,
        so a live writer's file is never touched.
        """
        return orphaned_temp_files(self.root, "*.rtrace")

    def usage(self) -> List[CacheEntry]:
        """Inventory: orphaned temp files, then entries in LRU order.

        ``load`` refreshes an entry's mtime, so mtime order is use order.
        Files that vanish between the glob and the stat (concurrent
        prune) are skipped.
        """
        rows: List[CacheEntry] = []
        listed = [(p, False) for p in self.entries()]
        listed += [(p, True) for p in self.orphans()]
        for path, orphan in listed:
            try:
                stat = path.stat()
            except OSError:
                continue
            rows.append(CacheEntry(
                key=path.name.split(".rtrace", 1)[0],
                path=path,
                bytes=int(stat.st_size),
                mtime=float(stat.st_mtime),
                orphan=orphan,
            ))
        rows.sort(key=lambda e: (not e.orphan, e.mtime, e.key))
        return rows

    def total_bytes(self) -> int:
        """Total size of every cached capture."""
        return sum(entry.bytes for entry in self.usage())

    def prune(self, max_bytes: int) -> List[CacheEntry]:
        """Delete every orphaned temp file, then evict least-recently-used
        entries until the cache fits.

        Deletions are plain unlinks — atomic against the cache's own
        readers, whose ``load`` treats a vanished file as a miss.  Returns
        the files removed (possibly none).
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        entries = self.usage()
        total = sum(entry.bytes for entry in entries)
        removed: List[CacheEntry] = []
        for entry in entries:  # orphans, then oldest first
            if total <= max_bytes and not entry.orphan:
                break
            try:
                entry.path.unlink()
            except OSError:  # pragma: no cover - raced with another pruner
                continue
            total -= entry.bytes
            removed.append(entry)
        return removed

    def clear(self) -> int:
        """Delete every entry and orphaned temp file; returns the number
        removed."""
        removed = 0
        for path in self.entries() + self.orphans():
            path.unlink()
            removed += 1
        return removed


def format_bytes(n: int) -> str:
    """Human-readable byte count (``142.3 MB``)."""
    value = float(n)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if value < 1024.0 or unit == "TB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.1f} TB"  # pragma: no cover - unreachable


def wall_clock() -> float:
    """Monotonic wall-clock seconds for throughput accounting."""
    return time.perf_counter()  # repro-lint: disable=RPR001


def peak_rss_bytes() -> int:
    """Peak resident-set size of this process in bytes (0 if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; platforms
    without the :mod:`resource` module report 0 rather than failing.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return int(peak)
    return int(peak) * 1024
