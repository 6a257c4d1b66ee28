"""Per-session reference identifier: the test oracle for ``identify_scans``.

The readable executable spec of §3.4 — one Python iteration per source
session, with the sequential test and the rate estimate written out per
session.  The vectorised :func:`repro.core.campaigns.identify_scans` (and,
through it, the streaming identifier) is regression-tested against it on
simulated and synthetic captures; nothing in ``src/`` calls it.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.campaigns import (
    BURST_SUSPECT_CORR,
    BURST_SUSPECT_RATE_PPS,
    SEQUENTIAL_CORR_THRESHOLD,
    SEQUENTIAL_MIN_PACKETS,
    CampaignCriteria,
    ScanTable,
)
from repro.core.fingerprints import ToolFingerprinter
from repro.scanners.base import Tool
from repro.telescope.packet import PacketBatch


def iter_source_sessions(
    batch: PacketBatch, expiry_s: float
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(src_ip, time-ordered packet indices)`` per source session.

    A session is a maximal run of a source's packets with no inter-packet
    gap exceeding ``expiry_s``.
    """
    if len(batch) == 0:
        return
    order = np.lexsort((batch.time, batch.src_ip))
    src_sorted = batch.src_ip[order]
    time_sorted = batch.time[order]
    uniques, starts = np.unique(src_sorted, return_index=True)
    bounds = np.append(starts, src_sorted.size)
    for i, src in enumerate(uniques):
        segment = order[bounds[i]:bounds[i + 1]]
        times = time_sorted[bounds[i]:bounds[i + 1]]
        if segment.size == 1:
            yield int(src), segment
            continue
        gaps = np.flatnonzero(np.diff(times) > expiry_s)
        prev = 0
        for cut in list(gaps + 1) + [segment.size]:
            yield int(src), segment[prev:cut]
            prev = cut


def detect_sequential(times: np.ndarray, dst: np.ndarray) -> bool:
    """Is this session a linear address sweep?

    Sequential scanners (Lee et al.: 91% of port scanners in 2003; NMap and
    much bespoke tooling today) visit addresses in order, so their hit times
    correlate almost perfectly with the destination address value.
    """
    if times.size < SEQUENTIAL_MIN_PACKETS:
        return False
    dst_f = dst.astype(np.float64)
    if np.all(dst_f == dst_f[0]) or np.all(times == times[0]):
        return False
    r = np.corrcoef(times, dst_f)[0, 1]
    return bool(abs(r) >= SEQUENTIAL_CORR_THRESHOLD)


def estimate_internet_rate(
    times: np.ndarray,
    dst: np.ndarray,
    n_ports: int,
    criteria: CampaignCriteria,
    sequential: bool,
) -> float:
    """Internet-wide probe rate of one session.

    Random-permutation scanners are extrapolated through the telescope's
    space fraction (§3.4).  Sequential sweeps would be inflated by orders of
    magnitude under that model — their hits arrive in compressed bursts as
    the sweep crosses the telescope's blocks — so their rate is instead
    estimated from the sweep's address-space velocity: during the crossing
    the scanner probed its per-address fraction of the crossed span, and the
    session's hits are that fraction of the monitored addresses within it::

        rate = hits * span / (monitored_in_span * duration)

    (the per-address port count cancels out — it inflates hits and probes
    alike).
    """
    if sequential:
        # A sweep's telescope crossing is legitimately sub-second at high
        # probe rates; clamping its duration to 1 s would destroy the
        # estimate, so only a numerical floor applies here.
        duration = max(float(times[-1] - times[0]), 1e-3)
        span = float(dst.max()) - float(dst.min()) + 1.0
        monitored_in_span = criteria.telescope_size * min(
            1.0, span / criteria.telescope_extent
        )
        if span > 1.0 and monitored_in_span >= 1.0:
            return times.size * span / (monitored_in_span * duration)
    duration = max(float(times[-1] - times[0]), 1.0)
    return criteria.internet_rate(times.size / duration)


def identify_scans_reference(
    batch: PacketBatch,
    criteria: Optional[CampaignCriteria] = None,
    fingerprinter: Optional[ToolFingerprinter] = None,
) -> ScanTable:
    """Per-session reference implementation of :func:`identify_scans`.

    One Python iteration per source session, calling
    :func:`detect_sequential` / :func:`estimate_internet_rate` directly.
    """
    criteria = criteria if criteria is not None else CampaignCriteria()
    fingerprinter = fingerprinter if fingerprinter is not None else ToolFingerprinter()

    src_list: List[int] = []
    start_list: List[float] = []
    end_list: List[float] = []
    packets_list: List[int] = []
    dsts_list: List[int] = []
    port_sets: List[np.ndarray] = []
    primary_list: List[int] = []
    tool_list: List[Tool] = []
    match_list: List[float] = []
    speed_list: List[float] = []
    coverage_list: List[float] = []
    sequential_list: List[bool] = []
    window_list: List[int] = []
    ttl_list: List[int] = []

    for src, indices in iter_source_sessions(batch, criteria.expiry_s):
        n = indices.size
        if n < criteria.min_distinct_dsts:
            continue
        dst = batch.dst_ip[indices]
        distinct = int(np.unique(dst).size)
        if distinct < criteria.min_distinct_dsts:
            continue
        times = batch.time[indices]
        ports = batch.dst_port[indices]
        unique_ports, port_counts = np.unique(ports, return_counts=True)
        sequential = detect_sequential(times, dst)
        rate = estimate_internet_rate(
            times, dst, int(unique_ports.size), criteria, sequential
        )
        if not sequential and rate > BURST_SUSPECT_RATE_PPS:
            # Implausibly fast for random targeting — very likely a fast
            # sweep whose crossing burst is shorter than timestamp jitter,
            # leaving the time↔address correlation weak but still present.
            dst_f = dst.astype(np.float64)
            if dst_f.std() > 0 and times.std() > 0:
                r = float(np.corrcoef(times, dst_f)[0, 1])
                if abs(r) >= BURST_SUSPECT_CORR:
                    sequential = True
                    rate = estimate_internet_rate(
                        times, dst, int(unique_ports.size), criteria, True
                    )
        if rate < criteria.min_rate_pps:
            continue

        # One fingerprint call per scan over its first sample_limit packets.
        sample = indices[:fingerprinter.sample_limit]
        tool, match_fraction = fingerprinter.fingerprint_arrays(
            batch.ip_id[sample], batch.seq[sample], batch.dst_ip[sample],
            batch.dst_port[sample], batch.src_port[sample],
            np.array([sample.size]),
        )

        src_list.append(src)
        start_list.append(float(times[0]))
        end_list.append(float(times[-1]))
        packets_list.append(int(n))
        dsts_list.append(distinct)
        port_sets.append(unique_ports.astype(np.int64))
        primary_list.append(int(unique_ports[int(np.argmax(port_counts))]))
        tool_list.append(tool[0])
        match_list.append(float(match_fraction[0]))
        speed_list.append(rate)
        coverage_list.append(min(1.0, distinct / criteria.telescope_size))
        sequential_list.append(sequential)
        head = indices[:64]
        windows, window_counts = np.unique(batch.window[head], return_counts=True)
        window_list.append(int(windows[int(np.argmax(window_counts))]))
        ttls, ttl_counts = np.unique(batch.ttl[head], return_counts=True)
        ttl_list.append(int(ttls[int(np.argmax(ttl_counts))]))

    return ScanTable(
        src_ip=np.array(src_list, dtype=np.uint32),
        start=np.array(start_list, dtype=float),
        end=np.array(end_list, dtype=float),
        packets=np.array(packets_list, dtype=np.int64),
        distinct_dsts=np.array(dsts_list, dtype=np.int64),
        port_sets=port_sets,
        primary_port=np.array(primary_list, dtype=np.uint16),
        tool=np.array(tool_list, dtype=object),
        match_fraction=np.array(match_list, dtype=float),
        speed_pps=np.array(speed_list, dtype=float),
        coverage=np.array(coverage_list, dtype=float),
        sequential=np.array(sequential_list, dtype=bool),
        window_mode=np.array(window_list, dtype=np.uint16),
        ttl_mode=np.array(ttl_list, dtype=np.uint8),
    )
