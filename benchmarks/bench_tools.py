"""§6.1–6.5 — tool usage: common-tool adoption over the years, per-tool
speeds (ZMap fastest; NMap beats Masscan; Mirai slowest), the top-100 speed
trend, coverage modes betraying sharded scans, and tool geography.
"""

import numpy as np

from conftest import emit
from repro._util.fmt import format_table
from repro.core import summarize_period
from repro.core.coverage import collaborating_subnets, coverage_by_tool, coverage_modes
from repro.core.ecosystem import common_tool_share
from repro.core.geography import tool_country_shares
from repro.core.speed import (
    nmap_faster_than_masscan,
    speed_stats_by_tool,
    tool_speed_trend,
    top_k_speed_trend,
)
from repro.scanners import Tool


def test_common_tool_adoption(analyses, benchmark, capsys):
    """§6.1: tracked-tool share of scans 34% (2015) → 54% (2020), dropping
    again by 2022; packet share 25% (2015) → 92% (2020), <40% by 2024."""

    def measure():
        out = {}
        for year, analysis in analyses.items():
            s = summarize_period(analysis)
            out[year] = (common_tool_share(s, by_packets=False),
                         common_tool_share(s, by_packets=True))
        return out

    shares = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [[y, f"{a * 100:.0f}%", f"{b * 100:.0f}%"]
            for y, (a, b) in sorted(shares.items())]
    emit(capsys, "\n".join([
        "", "=" * 78, "§6.1 — tracked-tool share of scans / packets",
        "=" * 78, format_table(["year", "scans", "packets"], rows),
        "paper: scans 34% (2015) → 54% (2020); packets 25% (2015) → 92% (2020),",
        "       under 40% again by 2024",
    ]))

    assert shares[2020][0] > shares[2015][0]
    assert shares[2020][1] > 0.6          # packets concentrated in tracked tools
    assert shares[2024][1] < shares[2020][1]  # de-fingerprinting


def test_tool_speed_ordering(analyses, benchmark, capsys):
    """§6.3: ZMap fastest; NMap outpaces Masscan; Mirai slowest."""
    analysis = analyses[2020]

    by_tool = benchmark.pedantic(
        lambda: speed_stats_by_tool(analysis.study_scans), rounds=1, iterations=1
    )
    rows = [[t.value, s.scans, f"{s.median_pps:,.0f}", f"{s.mean_pps:,.0f}",
             f"{s.fraction_over_1gbps * 100:.1f}%"]
            for t, s in sorted(by_tool.items(), key=lambda kv: -kv[1].median_pps)]
    emit(capsys, "\n".join([
        "", "§6.3 — per-tool speeds (2020)",
        format_table(["tool", "scans", "median pps", "mean pps", ">1Gbps"], rows),
    ]))

    assert by_tool[Tool.ZMAP].median_pps == max(
        s.median_pps for s in by_tool.values()
    )
    assert nmap_faster_than_masscan(analysis.study_scans) is True
    assert by_tool[Tool.MIRAI].median_pps == min(
        s.median_pps for s in by_tool.values()
    )
    # Only a select few exceed 1 Gbps.
    assert by_tool[Tool.ZMAP].fraction_over_1gbps < 0.2


def test_speed_trends(analyses, benchmark, capsys):
    """§6.3: overall speed flat-to-declining; top-100 accelerating
    (paper R = 0.356); NMap the only tool trending up (R = 0.12)."""
    tables = {year: a.study_scans for year, a in analyses.items()}

    def measure():
        return (top_k_speed_trend(tables, k=100),
                tool_speed_trend(tables, Tool.NMAP))

    top, nmap = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(capsys, "\n".join([
        "", "§6.3 — speed trends across the decade",
        f"top-100 mean speed trend: R = {top.r:.2f} (paper: +0.356)",
        f"NMap median speed trend:  R = {nmap.r:.2f} (paper: +0.12)",
        "top-100 by year: " + " ".join(f"{v:,.0f}" for v in top.values),
    ]))
    assert top.increasing
    assert nmap.increasing


def test_coverage_modes_and_collaboration(analyses, sims, benchmark, capsys):
    """§6.4: sharded scans leave coverage modes; collaborating subnets
    appear as /24s of concurrent scanners with near-identical coverage."""
    analysis = analyses[2024]

    def measure():
        scans = analysis.study_scans
        zmap = scans.select(scans.tool.astype(str) == Tool.ZMAP.value)
        return (coverage_modes(zmap.coverage, min_count=5, excess_factor=2.0),
                collaborating_subnets(scans, min_sources=4))

    modes, clusters = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = ["", "§6.4 — coverage modes (ZMap, 2024) and collaborating subnets"]
    for m in modes[:8]:
        lines.append(f"  mode at coverage {m.coverage:.4%}: {m.count} scans "
                     f"({m.excess:.1f}x neighbours)")
    lines.append(f"collaborating /24 clusters found: {len(clusters)}")
    for c in clusters[:5]:
        lines.append(f"  /24 {c.slash24:#08x}: {c.sources} sources, "
                     f"mean coverage {c.mean_coverage:.4%}")
    emit(capsys, "\n".join(lines))

    # 2024 is sharding-heavy: collaboration must be visible.
    assert clusters, "sharded campaigns must form visible subnet clusters"


def test_coverage_by_tool(analyses, benchmark, capsys):
    """§6.4: large single-source scans are rare and shrinking."""

    def measure():
        return {year: coverage_by_tool(a.study_scans)
                for year, a in analyses.items()}

    per_year = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = []
    for year in (2016, 2020, 2024):
        for tool, stats in per_year[year].items():
            rows.append([year, tool.value, stats.scans,
                         f"{stats.mean * 100:.2f}%", f"{stats.p90 * 100:.2f}%"])
    emit(capsys, "\n".join([
        "", "§6.4 — coverage by tool (selected years)",
        format_table(["year", "tool", "scans", "mean cov", "p90 cov"], rows),
    ]))

    # Masscan's mean per-scan coverage shrinks as campaigns spread out.
    early = per_year[2016].get(Tool.MASSCAN)
    late = per_year[2024].get(Tool.MASSCAN)
    if early and late and late.scans >= 3:
        assert late.mean <= early.mean * 1.5


def test_mirai_port_footprint(analyses, benchmark, capsys):
    """§6.2: Mirai's scan routine spreads over the port range after the
    2016 source release (99.6% of all TCP ports carry the fingerprint by
    2020 at full scale)."""

    def measure():
        from repro.core.ports_analysis import tool_port_footprint
        return {year: tool_port_footprint(a.study_scans, Tool.MIRAI)
                for year, a in analyses.items() if year >= 2017}

    footprints = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [[y, n, f"{cov:.2%}"] for y, (n, cov) in sorted(footprints.items())]
    emit(capsys, "\n".join([
        "", "§6.2 — distinct ports carrying the Mirai fingerprint",
        format_table(["year", "ports", "of range"], rows),
        "paper: 65,286 ports (99.6%) by 2020 at full scale",
    ]))

    assert footprints[2020][0] > 1.5 * footprints[2017][0]
    assert footprints[2020][0] > 25


def test_churn_correction(analyses, benchmark, capsys):
    """§4.2: source counts overstate device counts in churning space."""
    from repro.core.churn import fit_population_by_type
    from repro.enrichment.types import ScannerType
    analysis = analyses[2020]

    def measure():
        return {
            stype: fit_population_by_type(analysis, stype)
            for stype in (ScannerType.RESIDENTIAL, ScannerType.HOSTING,
                          ScannerType.INSTITUTIONAL)
        }

    fits = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [[st.value, f.observed_sources, f"{f.population:,.0f}",
             f"{f.lifetime_days:.1f}d", f"{f.inflation_factor:.2f}x"]
            for st, f in fits.items() if f is not None]
    emit(capsys, "\n".join([
        "", "§4.2 — churn-corrected populations (2020)",
        format_table(["type", "addresses", "devices (est.)",
                      "lifetime", "inflation"], rows),
    ]))

    res = fits[ScannerType.RESIDENTIAL]
    inst = fits[ScannerType.INSTITUTIONAL]
    assert res is not None and inst is not None
    # Residential space churns; institutional sources are static.
    assert res.inflation_factor > inst.inflation_factor
    assert inst.inflation_factor < 2.0


def test_tool_geography(analyses, benchmark, capsys):
    """§6.5: ZMap almost exclusively from China and the US."""
    analysis = analyses[2021]

    geo = benchmark.pedantic(
        lambda: tool_country_shares(analysis, Tool.ZMAP), rounds=1, iterations=1
    )
    rows = [[c, f"{v * 100:.0f}%"]
            for c, v in sorted(geo.items(), key=lambda kv: -kv[1])[:6]]
    emit(capsys, "\n".join([
        "", "§6.5 — ZMap origin countries (2021)",
        format_table(["country", "share"], rows),
    ]))
    assert geo
    assert geo.get("CN", 0) + geo.get("US", 0) > 0.4
