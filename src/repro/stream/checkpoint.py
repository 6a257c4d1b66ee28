"""Durable checkpoints for the streaming engine.

A checkpoint is the full :class:`~repro.stream.incremental.IncrementalScanIdentifier`
state after some prefix of committed windows — the carry (the raw packets
of the still-open sessions), the scans found so far, the counters and the
watermark — serialised to one ``.npz`` file.  A killed run resumes by restoring the newest checkpoint and
asking the source to skip the packets it already consumed; memoryless
re-batching (see :mod:`repro.stream.source`) guarantees the resumed window
sequence matches the original one exactly.

Like :class:`repro.exec.cache.CaptureCache`, entries are content-addressed:
the key digests everything that determines the stream's behaviour (source
identity, campaign criteria, fingerprinter settings, batching parameters,
schema/library version), so a checkpoint can never be replayed against a
different capture or configuration.  Writes are atomic (temp file +
``os.replace``); a crash mid-save leaves the previous checkpoint intact.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro import __version__
from repro.core.campaigns import CampaignCriteria
from repro.core.fingerprints import ToolFingerprinter
from repro.exec.cache import _canonical

#: Bump when the snapshot array layout changes; stale checkpoints are then
#: ignored (the stream simply restarts from the beginning).
STREAM_SCHEMA_VERSION = 2

PathLike = Union[str, Path]


class CheckpointVersionError(ValueError):
    """A checkpoint exists but was written by an incompatible version."""


class CheckpointStore:
    """A directory of content-addressed streaming checkpoints."""

    def __init__(self, root: PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Why the most recent :meth:`load` treated a present file as a
        #: miss (``None`` when the load hit or the file was absent).
        self.last_mismatch: Optional[str] = None

    # -- keys ---------------------------------------------------------------

    def key_for(
        self,
        source_identity: Dict[str, Any],
        criteria: CampaignCriteria,
        fingerprinter: ToolFingerprinter,
        batch_size: Optional[int],
        window_s: Optional[float],
        shard: Tuple[int, int],
        analyses: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Content key of one (capture, configuration) streaming run.

        The batching parameters are part of the key because they shape the
        window sequence, and a restored run must replay the exact windows
        the checkpointed run saw.  ``shard=(index, of)`` keys one shard of
        the run (see :mod:`repro.stream.sharded`; a serial run is shard
        ``(0, 1)``), so a shard can never resume from another shard's — or
        another shard count's — state.  ``analyses`` (the
        :meth:`~repro.stream.analyses.AnalysisConfig.key_material` dict of a
        run with incremental analyses attached) joins the same way: a run
        carrying analysis accumulators can never restore a checkpoint
        written without them — the suite would silently miss every window
        the identifier skips.
        """
        material = {
            "schema": STREAM_SCHEMA_VERSION,
            "version": __version__,
            "source": _canonical(source_identity),
            "criteria": _canonical(criteria),
            "fingerprinter": {
                "threshold": _canonical(fingerprinter.threshold),
                "sample_limit": fingerprinter.sample_limit,
            },
            "batching": {
                "batch_size": batch_size,
                "window_s": _canonical(window_s),
            },
            "shard": {"index": shard[0], "of": shard[1]},
        }
        if analyses is not None:
            material["analyses"] = _canonical(analyses)
        blob = json.dumps(material, sort_keys=True).encode("utf-8")
        return hashlib.blake2b(blob, digest_size=16).hexdigest()

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.stream.npz"

    # -- save / load --------------------------------------------------------

    def save(self, key: str, arrays: Dict[str, np.ndarray]) -> Path:
        """Persist one snapshot under ``key`` (atomic replace)."""
        path = self.path_for(key)
        payload = dict(arrays)
        payload["checkpoint_meta"] = np.array(
            json.dumps({
                "schema": STREAM_SCHEMA_VERSION,
                "version": __version__,
                "key": key,
            }, sort_keys=True)
        )
        tmp = path.with_name(path.name + f".tmp{os.getpid()}.npz")
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, **payload)
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # pragma: no cover - only on write failure
                tmp.unlink()
        return path

    def load(
        self, key: str, strict: bool = False
    ) -> Optional[Dict[str, np.ndarray]]:
        """Materialise the snapshot for ``key``, or ``None`` when absent.

        A checkpoint written by a different schema/library version,
        squatting on the wrong key, or damaged on disk (truncated, emptied,
        overwritten, bit-flipped) is treated as a miss by default — the
        caller just streams from the start and its next save replaces the
        file — but the reason (naming the file, and for a version mismatch
        the versions it was written by and the versions this build reads)
        is recorded in :attr:`last_mismatch` and raised as
        :class:`CheckpointVersionError` under ``strict=True``.
        """
        self.last_mismatch = None
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as payload:
                arrays = {name: payload[name] for name in payload.files}
        except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
            return self._mismatch(
                f"checkpoint {path} is unreadable "
                f"({type(exc).__name__}: {exc})",
                strict,
            )
        meta_blob = arrays.pop("checkpoint_meta", None)
        if meta_blob is None:
            return self._mismatch(
                f"checkpoint {path} has no checkpoint_meta block "
                f"(this build reads schema {STREAM_SCHEMA_VERSION} / "
                f"library {__version__})",
                strict,
            )
        try:
            meta = json.loads(str(meta_blob))
        except json.JSONDecodeError:
            return self._mismatch(
                f"checkpoint {path} has an unreadable checkpoint_meta "
                f"block (this build reads schema {STREAM_SCHEMA_VERSION} / "
                f"library {__version__})",
                strict,
            )
        if (
            meta.get("schema") != STREAM_SCHEMA_VERSION
            or meta.get("version") != __version__
        ):
            return self._mismatch(
                f"checkpoint {path} was written by schema "
                f"{meta.get('schema')!r} / library {meta.get('version')!r}; "
                f"this build reads schema {STREAM_SCHEMA_VERSION!r} / "
                f"library {__version__!r}",
                strict,
            )
        if meta.get("key") != key:
            return self._mismatch(
                f"checkpoint {path} records key {meta.get('key')!r} but was "
                f"looked up as {key!r}",
                strict,
            )
        return arrays

    def _mismatch(self, message: str, strict: bool) -> None:
        self.last_mismatch = message
        if strict:
            raise CheckpointVersionError(message)
        return None

    # -- maintenance --------------------------------------------------------

    def delete(self, key: str) -> bool:
        """Drop the checkpoint for ``key`` (e.g. after a completed run)."""
        path = self.path_for(key)
        if path.exists():
            path.unlink()
            return True
        return False

    def entries(self) -> list:
        return sorted(self.root.glob("*.stream.npz"))
