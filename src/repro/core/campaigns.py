"""Scan-campaign identification (§3.4) and the observed-scan table.

A *scan* is a sequence of probes from one source address that hits at least
``min_distinct_dsts`` distinct telescope addresses at an Internet-wide rate
of at least ``min_rate_pps``; a source's activity is split into separate
scans whenever it goes quiet for longer than ``expiry_s`` (1 hour — chosen
because a 100 pps random scanner appears in the telescope within the hour
with 99.9% probability, per the Moore et al. detection model).

The output is a :class:`ScanTable`: a column store of observed scans that
every downstream analysis (tool shares, speeds, coverage, recurrence,
classification, geography) operates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fingerprints import FingerprintVerdict, ToolFingerprinter
from repro.enrichment.classify import ScannerClassifier
from repro.scanners.base import Tool
from repro.telescope.addresses import IPV4_SPACE_SIZE
from repro.telescope.packet import PacketBatch
from repro.telescope.sensor import PAPER_TELESCOPE_SIZE

#: Average TCP SYN frame size on the wire, used to express rates in bps.
SYN_FRAME_BYTES = 60


@dataclass(frozen=True)
class CampaignCriteria:
    """Thresholds of the scan definition (§3.4).

    The defaults are the paper's; ``durumeric2014`` gives the looser bounds
    of the earlier study (10 pps, 480 s expiry) for comparison experiments.
    """

    min_distinct_dsts: int = 100
    min_rate_pps: float = 100.0
    expiry_s: float = 3600.0
    telescope_size: int = PAPER_TELESCOPE_SIZE
    #: Address-space extent spanned by the telescope's blocks (first to last
    #: monitored address); needed to extrapolate sequential-sweep rates.
    telescope_extent: int = 3 * 65536

    def __post_init__(self) -> None:
        if self.min_distinct_dsts < 1:
            raise ValueError("min_distinct_dsts must be >= 1")
        if self.min_rate_pps <= 0:
            raise ValueError("min_rate_pps must be positive")
        if self.expiry_s <= 0:
            raise ValueError("expiry_s must be positive")
        if self.telescope_size <= 0:
            raise ValueError("telescope_size must be positive")

    @classmethod
    def durumeric2014(cls) -> "CampaignCriteria":
        """The thresholds of Durumeric et al. (2014): 10 pps, 480 s expiry."""
        return cls(min_distinct_dsts=100, min_rate_pps=10.0, expiry_s=480.0)

    def internet_rate(self, telescope_pps: float) -> float:
        """Extrapolate a telescope-local rate to an Internet-wide rate."""
        return telescope_pps * (IPV4_SPACE_SIZE / self.telescope_size)


class ScanTable:
    """Column store of observed scans.

    All columns are aligned arrays of one length; ``port_sets`` carries the
    distinct destination ports of each scan as a sorted array.  Enrichment
    columns (country, scanner type, organisation) start empty and are filled
    by :meth:`enrich`.
    """

    def __init__(
        self,
        src_ip: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        packets: np.ndarray,
        distinct_dsts: np.ndarray,
        port_sets: List[np.ndarray],
        primary_port: np.ndarray,
        tool: np.ndarray,
        match_fraction: np.ndarray,
        speed_pps: np.ndarray,
        coverage: np.ndarray,
        sequential: Optional[np.ndarray] = None,
        window_mode: Optional[np.ndarray] = None,
        ttl_mode: Optional[np.ndarray] = None,
        country: Optional[np.ndarray] = None,
        scanner_type: Optional[np.ndarray] = None,
        organisation: Optional[np.ndarray] = None,
    ):
        n = src_ip.size
        for name, arr in (
            ("start", start), ("end", end), ("packets", packets),
            ("distinct_dsts", distinct_dsts), ("primary_port", primary_port),
            ("tool", tool), ("match_fraction", match_fraction),
            ("speed_pps", speed_pps), ("coverage", coverage),
        ):
            if arr.shape != (n,):
                raise ValueError(f"column {name} misaligned")
        if len(port_sets) != n:
            raise ValueError("port_sets misaligned")
        # Derived-column caches; the base columns are treated as immutable
        # (select() builds new tables rather than mutating), so computing
        # duration / ports-per-scan once per table is safe.
        self._duration_cache: Optional[np.ndarray] = None
        self._n_ports_cache: Optional[np.ndarray] = None
        self.src_ip = src_ip
        self.start = start
        self.end = end
        self.packets = packets
        self.distinct_dsts = distinct_dsts
        self.port_sets = port_sets
        self.primary_port = primary_port
        self.tool = tool
        self.match_fraction = match_fraction
        self.speed_pps = speed_pps
        self.coverage = coverage
        self.sequential = (
            sequential if sequential is not None else np.zeros(n, dtype=bool)
        )
        # Header quirks used for distributed-scanner clustering: the most
        # common TCP window and TTL value among the scan's packets.
        self.window_mode = (
            window_mode if window_mode is not None
            else np.zeros(n, dtype=np.uint16)
        )
        self.ttl_mode = (
            ttl_mode if ttl_mode is not None else np.zeros(n, dtype=np.uint8)
        )
        self.country = country if country is not None else np.full(n, "", dtype=object)
        self.scanner_type = (
            scanner_type if scanner_type is not None else np.full(n, None, dtype=object)
        )
        self.organisation = (
            organisation if organisation is not None else np.full(n, "", dtype=object)
        )

    # -- protocol ---------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.src_ip.size)

    @classmethod
    def empty(cls) -> "ScanTable":
        z = np.array([], dtype=np.int64)
        return cls(
            src_ip=np.array([], dtype=np.uint32),
            start=np.array([], dtype=float),
            end=np.array([], dtype=float),
            packets=z.copy(),
            distinct_dsts=z.copy(),
            port_sets=[],
            primary_port=np.array([], dtype=np.uint16),
            tool=np.array([], dtype=object),
            match_fraction=np.array([], dtype=float),
            speed_pps=np.array([], dtype=float),
            coverage=np.array([], dtype=float),
            sequential=np.array([], dtype=bool),
            window_mode=np.array([], dtype=np.uint16),
            ttl_mode=np.array([], dtype=np.uint8),
        )

    def select(self, mask: np.ndarray) -> "ScanTable":
        """Row-filter into a new table."""
        mask = np.asarray(mask)
        if mask.dtype != bool:
            raise TypeError("select expects a boolean mask")
        if mask.shape != (len(self),):
            raise ValueError("mask misaligned")
        idx = np.flatnonzero(mask)
        return ScanTable(
            src_ip=self.src_ip[idx],
            start=self.start[idx],
            end=self.end[idx],
            packets=self.packets[idx],
            distinct_dsts=self.distinct_dsts[idx],
            port_sets=[self.port_sets[i] for i in idx],
            primary_port=self.primary_port[idx],
            tool=self.tool[idx],
            match_fraction=self.match_fraction[idx],
            speed_pps=self.speed_pps[idx],
            coverage=self.coverage[idx],
            sequential=self.sequential[idx],
            window_mode=self.window_mode[idx],
            ttl_mode=self.ttl_mode[idx],
            country=self.country[idx],
            scanner_type=self.scanner_type[idx],
            organisation=self.organisation[idx],
        )

    # -- derived columns ----------------------------------------------------------

    @property
    def duration(self) -> np.ndarray:
        """Scan durations in seconds (minimum 1 s); computed once per table."""
        if self._duration_cache is None:
            self._duration_cache = np.maximum(self.end - self.start, 1.0)
        return self._duration_cache

    @property
    def n_ports(self) -> np.ndarray:
        """Distinct ports per scan; computed once per table."""
        if self._n_ports_cache is None:
            self._n_ports_cache = np.array(
                [p.size for p in self.port_sets], dtype=np.int64
            )
        return self._n_ports_cache

    @property
    def speed_bps(self) -> np.ndarray:
        """Internet-wide scan rate in bits/second (60-byte SYN frames)."""
        return self.speed_pps * SYN_FRAME_BYTES * 8

    def tool_shares_by_scans(self) -> Dict[Tool, float]:
        """Fraction of scans attributed to each tool."""
        if len(self) == 0:
            return {}
        tools, counts = np.unique(self.tool.astype(str), return_counts=True)
        return {Tool(t): c / len(self) for t, c in zip(tools, counts)}

    def tool_shares_by_packets(self) -> Dict[Tool, float]:
        """Fraction of scan packets attributed to each tool."""
        total = self.packets.sum()
        if total == 0:
            return {}
        tools, inverse = np.unique(self.tool.astype(str), return_inverse=True)
        sums = np.bincount(inverse, weights=self.packets, minlength=tools.size)
        return {Tool(t): float(s / total) for t, s in zip(tools, sums)}

    # -- enrichment ----------------------------------------------------------------

    def enrich(self, classifier: ScannerClassifier) -> "ScanTable":
        """Fill country / scanner-type / organisation columns in place."""
        if len(self) == 0:
            return self
        self.country = classifier.registry.country_of(self.src_ip)
        self.scanner_type = classifier.classify_array(self.src_ip)
        self.organisation = classifier.feed.organisation_of(self.src_ip)
        return self


#: Minimum |correlation(time, dst)| and session size for the sequential test.
SEQUENTIAL_CORR_THRESHOLD = 0.75
SEQUENTIAL_MIN_PACKETS = 20

#: Naive Internet-wide rates beyond this (≈0.5 Gbps of SYNs) are treated as
#: implausible for a random-permutation scanner; such bursts are re-examined
#: as sequential sweeps whose crossing time sits below the timestamp jitter.
BURST_SUSPECT_RATE_PPS = 1.0e6
BURST_SUSPECT_CORR = 0.3


def _session_correlation(
    times: np.ndarray,
    dst: np.ndarray,
    offsets: np.ndarray,
    counts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment Pearson correlation of (time, dst), plus both variances.

    ``times``/``dst`` hold the packets of all segments back to back;
    ``offsets``/``counts`` delimit the segments.  Two-pass (centred) so the
    result matches ``np.corrcoef`` despite destination values up to 2³²:
    a single-pass E[td] − E[t]E[d] formula would lose the covariance to
    cancellation at those magnitudes.
    """
    sum_t = np.add.reduceat(times, offsets)
    sum_d = np.add.reduceat(dst, offsets)
    centred_t = times - np.repeat(sum_t / counts, counts)
    centred_d = dst - np.repeat(sum_d / counts, counts)
    var_t = np.add.reduceat(centred_t * centred_t, offsets)
    var_d = np.add.reduceat(centred_d * centred_d, offsets)
    cov = np.add.reduceat(centred_t * centred_d, offsets)
    defined = (var_t > 0) & (var_d > 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(defined, cov / np.sqrt(var_t * var_d), 0.0)
    return r, var_t, var_d


def _grouped_value_counts(
    group: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct ``(group, value)`` pairs and their multiplicities.

    ``group`` must be sorted ascending and ``values`` must fit in 16 bits
    (ports, windows and TTLs all do).  Packing both into one int64 key lets a
    single flat sort replace a per-group ``np.unique`` loop.  Returns
    ``(g, v, counts)`` with pairs ordered by group then ascending value.
    """
    # group ids are packet-index-bounded (< 2**32 even at Merit scale), so
    # group << 16 stays well inside int64.
    key = (group.astype(np.int64) << 16) | values.astype(np.int64)  # repro-lint: disable=RPR011
    key.sort()
    first = np.empty(key.size, dtype=bool)
    first[0] = True
    first[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(first)
    run_counts = np.diff(np.append(starts, key.size))
    uniq = key[starts]
    return uniq >> 16, uniq & 0xFFFF, run_counts


def _first_max_per_group(
    g: np.ndarray, v: np.ndarray, cnts: np.ndarray
) -> np.ndarray:
    """Per group, the value with the highest count; smallest value on ties.

    Matches the ``np.unique`` + ``np.argmax`` idiom of the reference
    implementation (``argmax`` returns the *first* maximum, and ``unique``
    sorts values ascending).  Every group id must be present in ``g``.
    """
    by = np.lexsort((-cnts, g))  # stable: ties keep ascending-value order
    gb = g[by]
    firsts = np.flatnonzero(np.concatenate(([True], gb[1:] != gb[:-1])))
    return v[by[firsts]]


def _grouped_mode(
    group: np.ndarray, values: np.ndarray, n_groups: int
) -> np.ndarray:
    """Modal value of each group (ties break to the smallest value)."""
    g, v, cnts = _grouped_value_counts(group, values)
    assert g[-1] == n_groups - 1 or n_groups == 0
    return _first_max_per_group(g, v, cnts)


def _grouped_port_profile(
    group: np.ndarray, ports: np.ndarray, n_groups: int
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Sorted distinct-port set and most-frequent port of each group.

    ``port_sets[i]`` is ascending int64, exactly what ``np.unique`` would
    return for group ``i``'s ports; ``primary[i]`` is its highest-count port
    with ties broken to the smallest, as in the reference implementation.
    """
    g, v, cnts = _grouped_value_counts(group, ports)
    splits = np.flatnonzero(g[1:] != g[:-1]) + 1
    port_sets = np.split(v, splits)
    return port_sets, _first_max_per_group(g, v, cnts)


def score_sessions(
    times: np.ndarray,
    dsts: np.ndarray,
    offsets: np.ndarray,
    counts: np.ndarray,
    criteria: CampaignCriteria,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-session ``(start, end, sequential, internet_rate)`` arrays.

    ``times``/``dsts`` hold the time-ordered packets of all sessions back to
    back (``dsts`` already as float64); ``offsets``/``counts`` delimit the
    sessions.  Every statistic is segment-local — nothing crosses session
    boundaries — so a session scores to the same bits whether the whole
    capture is scored at once or ``repro.stream`` scores it in the window
    that closes it.  :func:`identify_sessions` is its only caller.
    """
    start = times[offsets]
    end = times[offsets + counts - 1]
    d_min = np.minimum.reduceat(dsts, offsets)
    d_max = np.maximum.reduceat(dsts, offsets)
    r, var_t, var_d = _session_correlation(times, dsts, offsets, counts)
    correlated = (var_t > 0) & (var_d > 0)

    sequential = (
        (counts >= SEQUENTIAL_MIN_PACKETS)
        & correlated
        & (np.abs(r) >= SEQUENTIAL_CORR_THRESHOLD)
    )

    # Random-permutation model: telescope-fraction extrapolation, 1 s floor.
    rate_random = criteria.internet_rate(counts / np.maximum(end - start, 1.0))
    # Sequential model: address-space velocity over the crossing, with only
    # a numerical duration floor (sub-second crossings are legitimate).
    span = d_max - d_min + 1.0
    monitored_in_span = criteria.telescope_size * np.minimum(
        1.0, span / criteria.telescope_extent
    )
    seq_defined = (span > 1.0) & (monitored_in_span >= 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        rate_sweep = (
            counts * span / (monitored_in_span * np.maximum(end - start, 1e-3))
        )
    rate_sweep = np.where(seq_defined, rate_sweep, rate_random)
    rate = np.where(sequential, rate_sweep, rate_random)

    # Burst re-examination: implausibly fast "random" sessions whose
    # time↔address correlation is weak but present are reclassified as
    # sweeps crossing faster than the timestamp jitter.
    burst = (
        ~sequential
        & (rate > BURST_SUSPECT_RATE_PPS)
        & correlated
        & (np.abs(r) >= BURST_SUSPECT_CORR)
    )
    sequential = sequential | burst
    rate = np.where(burst, rate_sweep, rate)
    return start, end, sequential, rate


def identify_scans(
    batch: PacketBatch,
    criteria: Optional[CampaignCriteria] = None,
    fingerprinter: Optional[ToolFingerprinter] = None,
) -> ScanTable:
    """Bundle a packet batch into observed scans (§3.4) and fingerprint them.

    Sessions failing the distinct-destination or rate thresholds are dropped
    (they are background noise, not Internet-wide scans).  Every session of
    the batch is closed: this is :func:`identify_sessions` without a
    watermark.
    """
    criteria = criteria if criteria is not None else CampaignCriteria()
    fingerprinter = fingerprinter if fingerprinter is not None else ToolFingerprinter()
    return identify_sessions(batch, criteria, fingerprinter)[0]


def identify_sessions(
    batch: PacketBatch,
    criteria: CampaignCriteria,
    fingerprinter: ToolFingerprinter,
    watermark: Optional[float] = None,
) -> Tuple[ScanTable, int, np.ndarray]:
    """The one kernel that turns packets into scans.

    Returns ``(scans, dropped, open_rows)``.  A session is *open* while a
    packet at the ``watermark`` could still extend it
    (``watermark - last_time <= expiry_s``, the negation of the ``>`` that
    splits sessions); ``watermark=None`` closes every session.  Closed
    sessions are scored: ``scans`` holds those that pass the thresholds and
    ``dropped`` counts the rest.  Open sessions are never scored; their
    packets come back as ``open_rows``, indices into ``batch`` in
    ``(src, time, capture order)`` order, for ``repro.stream`` to carry into
    the next window.

    This is the analysis hot path, so the per-source Python loop of the
    original implementation (kept as the executable spec in the test
    suite's ``campaigns_oracle``) is replaced by array passes: one lexsort
    builds the session table, `np.add.reduceat`-style grouped reductions
    compute every per-session statistic, and Python-level work remains only
    for the scans that survive all thresholds (port sets, header modes,
    fingerprinting).
    """
    if len(batch) == 0:
        return ScanTable.empty(), 0, np.array([], dtype=np.intp)

    # -- session table: one lexsort, boundaries where source or gap breaks --
    order = np.lexsort((batch.time, batch.src_ip))
    src_s = batch.src_ip[order]
    time_s = batch.time[order]
    n = order.size
    breaks = np.empty(n, dtype=bool)
    breaks[0] = True
    breaks[1:] = (src_s[1:] != src_s[:-1]) | (
        (time_s[1:] - time_s[:-1]) > criteria.expiry_s
    )
    bounds = np.flatnonzero(breaks)
    session_ends = np.append(bounds[1:], n)
    counts = session_ends - bounds
    n_sessions = bounds.size

    if watermark is None:
        closed = np.ones(n_sessions, dtype=bool)
        open_rows = np.array([], dtype=np.intp)
    else:
        closed = (watermark - time_s[session_ends - 1]) > criteria.expiry_s
        open_rows = order[np.repeat(~closed, counts)]
    n_closed = int(np.count_nonzero(closed))

    # -- cheap prefilter: a session with < min_distinct_dsts packets cannot
    # have enough distinct destinations.  This alone drops the long tail of
    # background sources before any per-session work happens.
    candidate = closed & (counts >= criteria.min_distinct_dsts)
    if not np.any(candidate):
        return ScanTable.empty(), n_closed, open_rows

    session_of_packet = np.repeat(np.arange(n_sessions), counts)
    cand_packets = candidate[session_of_packet]
    cand_ids = np.flatnonzero(candidate)
    c_counts = counts[cand_ids]
    c_offsets = np.concatenate(([0], np.cumsum(c_counts)[:-1]))

    # -- distinct destinations per candidate session (grouped unique count).
    # A packed (session, dst) uint64 single-key sort is several times faster
    # than the equivalent two-pass lexsort on large captures.
    sub_session = session_of_packet[cand_packets]
    sub_dst = batch.dst_ip[order][cand_packets]
    # Session ids are bounded by the capture's packet count (< 2**32), so
    # session << 32 | dst cannot wrap the uint64 key.
    packed = (sub_session.astype(np.uint64) << np.uint64(32)) | sub_dst.astype(  # repro-lint: disable=RPR011
        np.uint64
    )
    packed.sort()
    first = np.empty(packed.size, dtype=bool)
    first[0] = True
    first[1:] = packed[1:] != packed[:-1]
    distinct_all = np.bincount(
        (packed[first] >> np.uint64(32)).astype(np.intp), minlength=n_sessions
    )
    distinct_c = distinct_all[cand_ids]
    keep = distinct_c >= criteria.min_distinct_dsts
    if not np.any(keep):
        return ScanTable.empty(), n_closed, open_rows

    # -- per-session statistics over candidate packets (shared scorer) -----
    t_c = time_s[cand_packets]
    d_c = sub_dst.astype(np.float64)
    start_c, end_c, sequential, rate = score_sessions(
        t_c, d_c, c_offsets, c_counts, criteria
    )

    keep &= rate >= criteria.min_rate_pps
    if not np.any(keep):
        return ScanTable.empty(), n_closed, open_rows

    # -- survivor tail: grouped passes for ports/modes, a narrow Python
    # loop only for tool fingerprinting (bounded by its sample limit).
    kept = np.flatnonzero(keep)
    kept_sessions = cand_ids[kept]
    seg_counts = counts[kept_sessions]
    seg_offsets = np.concatenate(([0], np.cumsum(seg_counts)))
    # Concatenated original-batch indices of every survivor packet, grouped
    # per scan and time-ordered within each group.
    flat = np.repeat(
        bounds[kept_sessions] - seg_offsets[:-1], seg_counts
    ) + np.arange(seg_offsets[-1])
    orig = order[flat]
    scan_of = np.repeat(np.arange(kept.size), seg_counts)

    port_sets, primary = _grouped_port_profile(
        scan_of, batch.dst_port[orig], kept.size
    )
    # Header-quirk modes use each scan's first 64 packets, like the
    # reference implementation.
    head_counts = np.minimum(seg_counts, 64)
    head_flat = np.repeat(
        seg_offsets[:-1] - np.concatenate(([0], np.cumsum(head_counts)[:-1])),
        head_counts,
    ) + np.arange(int(head_counts.sum()))
    head_orig = orig[head_flat]
    head_scan = np.repeat(np.arange(kept.size), head_counts)
    window_mode = _grouped_mode(head_scan, batch.window[head_orig], kept.size)
    ttl_mode = _grouped_mode(head_scan, batch.ttl[head_orig], kept.size)

    tool_list: List[Tool] = []
    match_list: List[float] = []
    limit = fingerprinter.sample_limit
    for i in range(kept.size):
        segment = orig[seg_offsets[i]:seg_offsets[i] + min(seg_counts[i], limit)]
        verdict = fingerprinter.fingerprint_arrays(
            batch.ip_id[segment], batch.seq[segment], batch.dst_ip[segment],
            batch.dst_port[segment], batch.src_port[segment],
        )
        tool_list.append(verdict.tool)
        match_list.append(verdict.match_fraction)

    scans = ScanTable(
        src_ip=src_s[bounds[cand_ids[kept]]].astype(np.uint32),
        start=start_c[kept].astype(float),
        end=end_c[kept].astype(float),
        packets=c_counts[kept].astype(np.int64),
        distinct_dsts=distinct_c[kept].astype(np.int64),
        port_sets=port_sets,
        primary_port=primary.astype(np.uint16),
        tool=np.array(tool_list, dtype=object),
        match_fraction=np.array(match_list, dtype=float),
        speed_pps=rate[kept].astype(float),
        coverage=np.minimum(
            1.0, distinct_c[kept] / criteria.telescope_size
        ).astype(float),
        sequential=sequential[kept],
        window_mode=window_mode.astype(np.uint16),
        ttl_mode=ttl_mode.astype(np.uint8),
    )
    return scans, n_closed - kept.size, open_rows


def merge_scan_tables(tables: List[ScanTable]) -> ScanTable:
    """Concatenate tables of disjoint sessions into batch table order.

    :func:`identify_scans` emits its rows in session order, i.e. sorted by
    ``(src_ip, start)``; re-sorting the concatenated columns with
    ``lexsort((start, src_ip))`` reproduces that order exactly, because
    ``(src, start)`` pairs are unique (one source never starts two sessions
    at the same instant).  The streaming identifier merges its per-window
    tables this way, and the sharded engine its per-shard ones.
    """
    tables = [t for t in tables if len(t)]
    if not tables:
        return ScanTable.empty()
    if len(tables) == 1:
        return tables[0]
    src = np.concatenate([t.src_ip for t in tables])
    start = np.concatenate([t.start for t in tables])
    order = np.lexsort((start, src))
    port_sets = [ports for t in tables for ports in t.port_sets]
    return ScanTable(
        src_ip=src[order],
        start=start[order],
        end=np.concatenate([t.end for t in tables])[order],
        packets=np.concatenate([t.packets for t in tables])[order],
        distinct_dsts=np.concatenate(
            [t.distinct_dsts for t in tables]
        )[order],
        port_sets=[port_sets[i] for i in order],
        primary_port=np.concatenate([t.primary_port for t in tables])[order],
        tool=np.concatenate([t.tool for t in tables])[order],
        match_fraction=np.concatenate(
            [t.match_fraction for t in tables]
        )[order],
        speed_pps=np.concatenate([t.speed_pps for t in tables])[order],
        coverage=np.concatenate([t.coverage for t in tables])[order],
        sequential=np.concatenate([t.sequential for t in tables])[order],
        window_mode=np.concatenate([t.window_mode for t in tables])[order],
        ttl_mode=np.concatenate([t.ttl_mode for t in tables])[order],
    )
