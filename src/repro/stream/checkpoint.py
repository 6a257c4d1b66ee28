"""Durable checkpoints for the streaming engine.

A checkpoint is the full :class:`~repro.stream.incremental.IncrementalScanIdentifier`
state after some prefix of committed windows — the carry (the raw packets
of the still-open sessions), the scans found so far, the counters and the
watermark — stored as the typed array block of one ``.rtrace`` file with
no packet chunks, ``<key>.stream.rtrace``.  A killed run resumes by
restoring the newest checkpoint and asking the source to skip the packets
it already consumed; memoryless re-batching (see
:mod:`repro.stream.source`) guarantees the resumed window sequence matches
the original one exactly.

Like :class:`repro.exec.cache.CaptureCache`, entries are content-addressed:
the key digests everything that determines the stream's behaviour (source
identity, campaign criteria, fingerprinter settings, batch size,
schema/library version), so a checkpoint can never be replayed against a
different capture or configuration.  ``write_trace`` writes a temporary
file and renames it into place, so a crash mid-save leaves the previous
checkpoint intact, and the trace's checksums and bounded lengths make a
damaged file a miss rather than a crash or an unbounded read.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar, Union

import numpy as np

from repro import __version__
from repro.core.campaigns import CampaignCriteria
from repro.core.fingerprints import ToolFingerprinter
from repro.exec.cache import _canonical, content_key
from repro.telescope.packet import PacketBatch
from repro.telescope.trace import read_trace, write_trace

#: Bump when the snapshot array layout changes; stale checkpoints are then
#: ignored (the stream simply restarts from the beginning).
STREAM_SCHEMA_VERSION = 3

PathLike = Union[str, Path]

T = TypeVar("T")


class CheckpointStore:
    """A directory of content-addressed streaming checkpoints."""

    def __init__(self, root: PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- keys ---------------------------------------------------------------

    def key_for(
        self,
        source_identity: Dict[str, Any],
        criteria: CampaignCriteria,
        fingerprinter: ToolFingerprinter,
        batch_size: Optional[int],
        shard: Tuple[int, int],
        analyses: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Content key of one (capture, configuration) streaming run.

        The batch size is part of the key because it shapes the window
        sequence, and a restored run must replay the exact windows the
        checkpointed run saw.  ``shard=(index, of)`` keys one shard of
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
            "batching": {"batch_size": batch_size},
            "shard": {"index": shard[0], "of": shard[1]},
        }
        if analyses is not None:
            material["analyses"] = _canonical(analyses)
        return content_key(material)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.stream.rtrace"

    # -- save / load --------------------------------------------------------

    def save(self, key: str, arrays: Dict[str, np.ndarray]) -> Path:
        """Persist one snapshot under ``key`` (atomic replace); returns the
        file written.  The arrays must be 1-D columns the trace's array
        block admits, as every snapshot's are."""
        path = self.path_for(key)
        write_trace(path, PacketBatch.empty(),
                    meta={**arrays, "checkpoint_key": key})
        return path

    def load(
        self, key: str, restore: Callable[[Dict[str, np.ndarray]], T]
    ) -> Optional[T]:
        """``restore`` of the snapshot stored under ``key``, or ``None``.

        A missing, damaged (truncated, emptied, overwritten, bit-flipped),
        foreign (another key's entry, or no checkpoint at all) or
        unrestorable entry is a miss: the caller streams from the start
        and its next save replaces the file.  Unrestorable means that
        ``restore`` raised ``KeyError``, ``IndexError``, ``TypeError`` or
        ``ValueError`` on the arrays (one missing, one of the wrong kind),
        so ``restore`` must build new state, never half-update live state.
        """
        try:
            _, arrays = read_trace(self.path_for(key))
            if arrays.pop("checkpoint_key", None) != key:
                return None
            return restore(arrays)
        except (OSError, IndexError, KeyError, TypeError, ValueError):
            # OSError: absent or unreadable.  ValueError: damaged bytes
            # (TraceFormatError is one) or a bad value.  The rest: arrays
            # that parse but do not restore.
            return None
