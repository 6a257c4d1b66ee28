"""Incremental paper analyses: the one implementation of the paper report.

The paper's longitudinal results — §4.4 volatility, §6.6 recurrence, §4.2
trends and churn — split into packet-side tallies and per-scan statistics,
and :class:`AnalysisSuite` is accordingly two things.  It is an
*accumulator* over time-ordered packet windows, following the
:class:`~repro.stream.incremental.IncrementalScanIdentifier` pattern —
``consume`` windows, ``snapshot`` / ``restore`` through flat numpy arrays
for durable checkpoints — and a *finaliser* over the final scan table:
``finalize(scans)`` computes every per-scan field with the
:class:`~repro.core.campaigns.ScanTable` functions of
:mod:`repro.core.volatility`, :mod:`repro.core.trends` and
:mod:`repro.core.recurrence`, and returns the
:class:`~repro.core.report.PaperReport`.  The batch
:func:`~repro.core.report.paper_report` is this suite fed one window: the
whole capture, then its whole scan table.  A sharded run attaches the suite
to shard 0 only, which consumes every raw window before the shard filter
(:mod:`repro.stream.sharded`), so a suite is never merged.

The window pass: :meth:`AnalysisSuite.consume` reduces each raw window once
and hands the reduction to the packet-side accumulators — one study mask
(:func:`~repro.core.pipeline.study_mask`), one day division
(:func:`~repro.core.churn.day_index`; weeks are ``day // 7``), and one
in-place sort of packed ``(source << 32) | day`` keys into the window's
distinct (source, day) pairs (:func:`~repro.core.churn.source_days`).
First appearances, the per-(/16, week) packet tally and the distinct
(source, week) pairs are run-start reductions of those pairs, and the
port tally is one ``np.bincount``.  Sorted arrays merge with a stable sort
of their concatenation, not ``np.union1d``: NumPy >= 2.3 answers
``np.unique`` without counts from a hash table, measured at 46 ms against
7.5 ms for an in-place sort of the same 988k keys (NumPy 2.4.6, 2-core VM).

Why the results are field-by-field **equal** to that one-window run at any
window size and shard count:

* Every packet-side tally (per-port packets, per-(/16, week) activity,
  per-day first appearances) is an exact integer count kept in sorted-key
  order; adding sorted tallies reproduces one global ``np.unique``.
* Distinct-(source, week) dedupe is windowed: the stream is time-ordered,
  so only the weeks at the watermark can still receive packets — older
  weeks retire their source sets into the sparse tally and free the memory.
* The per-scan half never sees a window.  It reads the final table, which
  the engine makes bit-identical to batch ``identify_scans`` at any window
  size and shard count, in that table's ``(src_ip, start)`` row order.
* Float statistics go through pure finalisers
  (:func:`~repro.core.volatility.summaries_from_counts`,
  :func:`~repro.core.churn.fit_population_curve`, …) fed in canonical
  orders that do not depend on the windowing, so even order-dependent
  pairwise float sums agree bit for bit.

Memory model: tallies grow with distinct (/16, week) keys, and the port
histogram is a fixed 65,536 counters; the only packet-rate structure — the
open-week source sets — is bounded by the sources active within the
watermark's week.  The suite holds no scan-side state, and nothing scales
with capture length in packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, NamedTuple, Optional

import numpy as np

from repro._util.stats import run_starts
from repro.core.campaigns import ScanTable
from repro.core.churn import (
    SourceDays,
    day_index,
    first_appearance_days,
    fit_population_curve,
    source_days,
)
from repro.core.pipeline import (
    EXCLUDED_STUDY_PORTS,
    study_mask,
    study_scans_of,
)
from repro.core.recurrence import (
    institutional_daily_scanners,
    recurrence_by_type,
    recurrence_stats,
)
from repro.core.report import (
    ChurnReport,
    PaperReport,
    RecurrenceReport,
    TrendsReport,
)
from repro.core.trends import (
    CLASSIC_PORTS,
    entropy_from_counts,
    scan_intensity,
    traffic_concentration,
)
from repro.core.volatility import (
    SparseTally,
    dense_weekly_counts,
    pack_block_week,
    packet_weekly_tally,
    scan_weekly_tally,
    summaries_from_counts,
    week_index,
    weeks_in_period,
)
from repro.stream.incremental import StreamOrderError
from repro.telescope.addresses import slash16_of
from repro.telescope.packet import PacketBatch

#: Size of the dense port histogram (ports are 16-bit).
_N_PORTS = 1 << 16

#: Bumped when the suite's snapshot layout changes; part of the checkpoint
#: key material, so old analysis checkpoints miss cleanly.
ANALYSES_SCHEMA_VERSION = 2

#: The volatility metrics tallied from packets; the ``scans`` metric is
#: tallied from the final table at finalisation.
_PACKET_METRICS = ("sources", "packets")


class _SparseTally:
    """A sorted-key ``int64`` tally.

    Keys stay sorted-distinct; adds concatenate + stable-argsort +
    ``np.add.reduceat``.
    """

    __slots__ = ("keys", "counts")

    def __init__(
        self,
        keys: Optional[np.ndarray] = None,
        counts: Optional[np.ndarray] = None,
    ):
        self.keys = keys if keys is not None else np.array([], dtype=np.int64)
        self.counts = (
            counts if counts is not None else np.array([], dtype=np.int64)
        )

    def add(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Fold a sorted-distinct ``(keys, counts)`` pair into the tally."""
        if keys.size == 0:
            return
        if self.keys.size == 0:
            self.keys = keys.astype(np.int64, copy=True)
            self.counts = counts.astype(np.int64, copy=True)
            return
        allk = np.concatenate([self.keys, keys.astype(np.int64, copy=False)])
        allc = np.concatenate(
            [self.counts, counts.astype(np.int64, copy=False)]
        )
        order = np.argsort(allk, kind="stable")
        allk, allc = allk[order], allc[order]
        firsts = run_starts(allk)
        self.keys = allk[firsts]
        self.counts = np.add.reduceat(allc, firsts)

    def pair(self) -> SparseTally:
        return self.keys, self.counts

    @property
    def nbytes(self) -> int:
        return int(self.keys.nbytes + self.counts.nbytes)


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted distinct union of two sorted arrays (``np.union1d``'s result).

    A stable sort of two concatenated sorted runs is one linear merge,
    where ``np.union1d`` hashes on NumPy >= 2.3.
    """
    merged = np.concatenate([a, b])
    merged.sort(kind="stable")
    return merged[run_starts(merged)]


class _Window(NamedTuple):
    """A time-ordered study-view window, reduced once for every accumulator.

    ``tmax`` feeds the volatility watermark; ``pairs`` are the window's
    distinct (source, day) pairs.
    """

    tmax: float
    pairs: SourceDays


class IncrementalVolatility:
    """Streaming §4.4: per-/16, per-week packet and source tallies.

    Packet counts are an exact sparse tally.  The distinct-source metric
    needs a per-week dedupe; the stream's time order bounds it — once the
    watermark's week moves past week ``w``, no packet can land in ``w``
    again, so ``w``'s source set is *retired*: counted per /16 into the
    sparse tally and dropped.  Only the weeks at the watermark hold live
    source sets.  The per-week scan counts come from the final table
    (:meth:`finalize_counts`).
    """

    def __init__(self, n_weeks: int):
        if n_weeks < 1:
            raise ValueError("n_weeks must be >= 1")
        self.n_weeks = n_weeks
        self.tallies: Dict[str, _SparseTally] = {
            metric: _SparseTally() for metric in _PACKET_METRICS
        }
        #: Sorted distinct /16 blocks of the consumed packets (the dense
        #: matrices' row index).
        self.blocks = np.array([], dtype=np.int64)
        #: week -> sorted distinct sources still able to gain members.
        self._open_weeks: Dict[int, np.ndarray] = {}
        self.watermark = float("-inf")

    def _consume(self, window: _Window) -> None:
        pairs = window.pairs
        weeks = week_index(pairs.day, self.n_weeks)
        keys, counts = packet_weekly_tally(pairs.src, weeks, pairs.packets)
        self.tallies["packets"].add(keys, counts)
        blocks = keys >> np.int64(32)
        self.blocks = _union(self.blocks, blocks[run_starts(blocks)])

        # Distinct (src, week) pairs: days ascend within each source, so
        # weeks do too.  Group them by week; the stable sort keeps each
        # group's sources ascending.
        firsts = run_starts(pairs.src, weeks)
        pair_src, pair_week = pairs.src[firsts], weeks[firsts]
        order = np.argsort(pair_week, kind="stable")
        pair_week, pair_src = pair_week[order], pair_src[order]
        firsts = run_starts(pair_week)
        bounds = np.append(firsts, pair_week.size)
        for i in range(firsts.size):
            week = int(pair_week[firsts[i]])
            srcs = pair_src[firsts[i]:bounds[i + 1]]
            current = self._open_weeks.get(week)
            if current is None:
                self._open_weeks[week] = srcs.copy()
            else:
                self._open_weeks[week] = _union(current, srcs)

        self.watermark = max(self.watermark, window.tmax)
        self._retire_closed_weeks()

    def finalize_counts(self, scans: SparseTally) -> Dict[str, np.ndarray]:
        """Retire every open week and scatter the packet tallies and the
        final table's per-(/16, week) ``scans`` tally into dense weekly
        matrices."""
        for week in sorted(self._open_weeks):
            self._retire_week(week)
        return dense_weekly_counts(self.blocks, self.n_weeks, {
            "scans": scans,
            **{metric: self.tallies[metric].pair()
               for metric in _PACKET_METRICS},
        })

    def state_nbytes(self) -> int:
        open_bytes = sum(srcs.nbytes for srcs in self._open_weeks.values())
        return (
            sum(t.nbytes for t in self.tallies.values())
            + int(self.blocks.nbytes) + open_bytes
        )

    @property
    def open_week_count(self) -> int:
        """Live dedupe sets — the bounded-memory gauge of this accumulator."""
        return len(self._open_weeks)

    def _retire_closed_weeks(self) -> None:
        if self.watermark == float("-inf"):
            return
        floor = int(week_index(
            day_index(np.array([self.watermark])), self.n_weeks
        )[0])
        for week in [w for w in self._open_weeks if w < floor]:
            self._retire_week(week)

    def _retire_week(self, week: int) -> None:
        srcs = self._open_weeks.pop(week)
        blocks, counts = np.unique(
            slash16_of(srcs).astype(np.int64), return_counts=True
        )
        self.tallies["sources"].add(
            pack_block_week(blocks, np.full(blocks.size, week, dtype=np.int64)),
            counts,
        )


class IncrementalChurn:
    """Streaming §4.2 churn: first-appearance day per distinct source.

    The stream is time-ordered, so a source's first window is its first
    appearance; day indices are monotone in time, making the per-window
    :func:`~repro.core.churn.first_appearance_days` minima globally
    correct.  State is the sorted seen-source array plus ``days`` counters.
    """

    def __init__(self, days: int):
        if days < 1:
            raise ValueError("days must be >= 1")
        self.days = days
        self.seen = np.array([], dtype=np.uint32)
        self.per_day = np.zeros(days, dtype=np.int64)

    def _consume(self, window: _Window) -> None:
        srcs, first_days = first_appearance_days(window.pairs, self.days)
        if self.seen.size:
            idx = np.minimum(
                np.searchsorted(self.seen, srcs), self.seen.size - 1
            )
            new = self.seen[idx] != srcs
        else:
            new = np.ones(srcs.size, dtype=bool)
        if np.any(new):
            self.per_day += np.bincount(
                first_days[new], minlength=self.days
            ).astype(np.int64, copy=False)
            self.seen = _union(self.seen, srcs[new])

    def finalize(self) -> ChurnReport:
        curve = np.cumsum(self.per_day)
        fit = fit_population_curve(curve) if curve[-1] > 0 else None
        return ChurnReport(curve=curve, fit=fit)

    def state_nbytes(self) -> int:
        return int(self.seen.nbytes + self.per_day.nbytes)


@dataclass(frozen=True)
class AnalysisConfig:
    """What one analysis suite computes over: the period."""

    year: int
    days: int

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ValueError("days must be >= 1")

    @property
    def n_weeks(self) -> int:
        return weeks_in_period(self.days)

    def key_material(self) -> Dict[str, Any]:
        """Checkpoint-key contribution: a run with analyses attached can
        never restore a checkpoint written without them (or with different
        analysis settings) — the suite would silently miss windows."""
        return {
            "analyses_schema": ANALYSES_SCHEMA_VERSION,
            "year": self.year,
            "days": self.days,
            "exclude_ports": sorted(EXCLUDED_STUDY_PORTS),
        }


class AnalysisSuite:
    """All analyses of one period behind a single surface.

    The suite applies the §3.2 study filter itself
    (:func:`~repro.core.pipeline.study_mask` on packets,
    :func:`~repro.core.pipeline.study_scans_of` on scans), so it is fed the
    raw stream and the raw final scan table.  Each window is reduced
    once — the study mask, one day division and one sort into distinct
    (source, day) pairs — and the packet-side accumulators read that
    reduction through their private ``_consume`` paths; the per-port
    packet histogram is the suite's own.
    """

    def __init__(self, config: AnalysisConfig):
        self.config = config
        self.volatility = IncrementalVolatility(config.n_weeks)
        self.churn = IncrementalChurn(config.days)
        #: Study packets per destination port; ports are 16-bit, so a
        #: window adds its ``np.bincount`` instead of merging a sparse tally.
        self.port_packets = np.zeros(_N_PORTS, dtype=np.int64)
        self.packets_consumed = 0       # raw packets, pre study filter
        self.study_packets = 0
        self.windows_consumed = 0
        self.watermark = float("-inf")

    def consume(self, batch: PacketBatch) -> None:
        """Ingest one raw, time-ordered packet window."""
        self.windows_consumed += 1
        n = len(batch)
        if n == 0:
            return
        tmin = float(batch.time.min())
        if self.packets_consumed and tmin < self.watermark:
            raise StreamOrderError(
                f"window starts at t={tmin:.6f}, before the stream watermark "
                f"{self.watermark:.6f}; the incremental analyses need a "
                f"time-ordered stream"
            )
        self.watermark = max(self.watermark, float(batch.time.max()))
        self.packets_consumed += n
        time, src_ip, dst_port = batch.time, batch.src_ip, batch.dst_port
        keep = study_mask(dst_port)
        if not keep.all():
            time, src_ip, dst_port = time[keep], src_ip[keep], dst_port[keep]
            if time.size == 0:
                return
        window = _Window(
            float(time.max()), source_days(src_ip, day_index(time))
        )
        self.study_packets += time.size
        self.volatility._consume(window)
        self.churn._consume(window)
        self.port_packets += np.bincount(dst_port, minlength=_N_PORTS)

    def finalize(self, scans: ScanTable) -> PaperReport:
        """The :class:`~repro.core.report.PaperReport` of the consumed
        windows and ``scans``, the period's final, *enriched* table.

        ``scans`` rows must be in ``(src_ip, start)`` order, as
        :func:`~repro.core.campaigns.identify_sessions` and
        :func:`~repro.core.campaigns.merge_scan_tables` emit them (the
        study filter keeps it): :func:`~repro.core.trends.scan_intensity`
        averages in row order, and the report is bit-identical to the
        batch one only in that order.  The suite does not re-sort.
        """
        scans = study_scans_of(scans)
        counts = self.volatility.finalize_counts(
            scan_weekly_tally(scans, self.config.n_weeks)
        )
        if self.study_packets:
            classic = int(self.port_packets[list(CLASSIC_PORTS)].sum())
            classic_share = float(classic / self.study_packets)
        else:
            classic_share = 0.0
        _, country_counts = np.unique(
            scans.country.astype(str), return_counts=True
        )
        return PaperReport(
            year=self.config.year,
            days=self.config.days,
            packets=self.study_packets,
            scans=len(scans),
            trends=TrendsReport(
                classic_port_share=classic_share,
                port_entropy=entropy_from_counts(
                    self.port_packets[self.port_packets > 0]
                ),
                country_entropy=entropy_from_counts(country_counts),
                concentration=(
                    traffic_concentration(scans) if len(scans) else None
                ),
                intensity=scan_intensity(scans) if len(scans) else None,
            ),
            volatility=summaries_from_counts(counts),
            recurrence=RecurrenceReport(
                overall=recurrence_stats(scans),
                by_type=recurrence_by_type(scans),
                institutional_daily=institutional_daily_scanners(scans),
            ),
            churn=self.churn.finalize(),
        )

    def state_nbytes(self) -> int:
        """Bytes held by accumulator state (the bounded-memory gauge)."""
        return (
            self.volatility.state_nbytes() + self.churn.state_nbytes()
            + int(self.port_packets.nbytes)
        )

    # -- checkpoint state -----------------------------------------------------

    def snapshot(self) -> Dict[str, np.ndarray]:
        """Serialise the suite into flat 1-D arrays that the ``.rtrace``
        array block admits, as a checkpoint stores them."""
        vol = self.volatility
        open_weeks = sorted(vol._open_weeks)
        port_keys = np.flatnonzero(self.port_packets).astype(np.int64)
        out: Dict[str, np.ndarray] = {
            "counters": np.array(
                [self.packets_consumed, self.study_packets,
                 self.windows_consumed],
                dtype=np.int64,
            ),
            "watermarks": np.array(
                [self.watermark, vol.watermark], dtype=np.float64
            ),
            "vol_blocks": vol.blocks,
            "vol_week_ids": np.array(open_weeks, dtype=np.int64),
            "vol_week_offsets": np.concatenate(([0], np.cumsum(
                [vol._open_weeks[w].size for w in open_weeks]
            ))).astype(np.int64),
            "vol_week_srcs": np.concatenate(
                [np.array([], dtype=np.uint32)]
                + [vol._open_weeks[w] for w in open_weeks]
            ),
            "port_keys": port_keys,
            "port_counts": self.port_packets[port_keys],
            "ch_seen": self.churn.seen,
            "ch_per_day": self.churn.per_day,
        }
        for metric in _PACKET_METRICS:
            keys, cnts = vol.tallies[metric].pair()
            out[f"vol_{metric}_keys"] = keys
            out[f"vol_{metric}_counts"] = cnts
        return out

    def restore(self, arrays: Dict[str, np.ndarray]) -> None:
        """Rebuild suite state from a :meth:`snapshot` payload."""
        counters = arrays["counters"]
        self.packets_consumed = int(counters[0])
        self.study_packets = int(counters[1])
        self.windows_consumed = int(counters[2])
        watermarks = arrays["watermarks"]
        self.watermark = float(watermarks[0])

        vol = IncrementalVolatility(self.config.n_weeks)
        vol.watermark = float(watermarks[1])
        vol.blocks = arrays["vol_blocks"].copy()
        for metric in _PACKET_METRICS:
            vol.tallies[metric] = _SparseTally(
                arrays[f"vol_{metric}_keys"].copy(),
                arrays[f"vol_{metric}_counts"].copy(),
            )
        week_ids = arrays["vol_week_ids"]
        offsets = arrays["vol_week_offsets"]
        srcs = arrays["vol_week_srcs"]
        for i in range(week_ids.size):
            vol._open_weeks[int(week_ids[i])] = srcs[
                int(offsets[i]):int(offsets[i + 1])
            ].copy()
        self.volatility = vol

        self.port_packets = np.zeros(_N_PORTS, dtype=np.int64)
        self.port_packets[arrays["port_keys"]] = arrays["port_counts"]

        churn = IncrementalChurn(self.config.days)
        churn.seen = arrays["ch_seen"].copy()
        churn.per_day = arrays["ch_per_day"].astype(np.int64, copy=True)
        self.churn = churn
