"""§4.1 — growth arithmetic: 30× packets, 39× scans over ten years, and the
2023→2024 jump in ZMap scans per day (sharded collaborative scanning).
"""

import numpy as np

from conftest import emit
from repro import paper as ref
from repro._util.fmt import format_table
from repro.core import growth_report, summarize_period
from repro.scanners import Tool


def test_growth_headlines(decade, benchmark, capsys):
    def measure():
        projected = {}
        for year, (sim, analysis) in decade.items():
            s = summarize_period(analysis)
            import dataclasses
            projected[year] = dataclasses.replace(
                s,
                packets_per_day=s.packets_per_day / sim.packet_scale,
                scans_per_month=s.scans_per_month / sim.scan_scale,
            )
        return growth_report(projected), projected

    report, projected = benchmark.pedantic(measure, rounds=1, iterations=1)

    text = "\n".join([
        "", "=" * 78,
        "§4.1 — growth over ten years (projected to real-world volume)",
        "=" * 78,
        f"packet growth 2015→2024: {report.packet_growth:.1f}x "
        f"(paper: {ref.PACKET_GROWTH_10Y:.0f}x)",
        f"scan growth   2015→2024: {report.scan_growth:.1f}x "
        f"(paper: {ref.SCAN_GROWTH_10Y:.0f}x)",
        f"scan intensity (pkts/scan) 2015: {report.intensity_first:,.0f}  "
        f"2024: {report.intensity_last:,.0f}",
    ])
    emit(capsys, text)

    # Who wins and by roughly what factor.
    assert 15 < report.packet_growth < 60
    assert 20 < report.scan_growth < 80
    assert report.scan_growth > report.packet_growth  # scans outgrow packets
    # Intensity rose mid-decade then collapsed as campaigns spread out.
    mid = projected[2020].packets_per_day * 30 / projected[2020].scans_per_month
    assert mid > report.intensity_first
    assert report.intensity_last < mid


def test_zmap_scans_jump_2024(decade, benchmark, capsys):
    """§4.1: ZMap scans/day in 2024 far exceed 2023's maximum."""

    def measure():
        out = {}
        for year in (2023, 2024):
            sim, analysis = decade[year]
            scans = analysis.study_scans
            zmap = scans.select(scans.tool.astype(str) == Tool.ZMAP.value)
            per_day = len(zmap) / sim.days / sim.scan_scale
            sources = np.unique(zmap.src_ip).size / sim.scan_scale
            out[year] = (per_day, sources)
        return out

    stats = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [[y, f"{v[0]:,.0f}", f"{v[1]:,.0f}"] for y, v in sorted(stats.items())]
    text = "\n".join([
        "", "§4.1 — ZMap scans/day and participating hosts (projected)",
        format_table(["year", "zmap scans/day", "zmap sources"], rows),
        "paper: min 17,122 scans/day in 2024 vs max 9,051 in 2023;",
        "       hosts 25,809 (2023) → 41,038 (2024)",
    ])
    emit(capsys, text)

    assert stats[2024][0] > 1.5 * stats[2023][0]
    assert stats[2024][1] > stats[2023][1]


def test_intensity_arc(analyses, benchmark, capsys):
    """§5.3: scans got more intensive and longer through 2020, then spread
    out over many hosts — per-scan intensity falls after 2021."""
    from repro.core.trends import scan_intensity

    def measure():
        return {year: scan_intensity(a.study_scans)
                for year, a in analyses.items() if len(a.study_scans)}

    reports = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [[y, r.scans, f"{r.median_packets:,.0f}", f"{r.mean_packets:,.0f}",
             f"{r.median_duration_s / 3600:.1f}h"]
            for y, r in sorted(reports.items())]
    emit(capsys, "\n".join([
        "", "§5.3 — per-scan intensity and duration",
        format_table(["year", "scans", "median pkts", "mean pkts",
                      "median duration"], rows),
    ]))

    # Mid-decade scans are heavier than both the start and the sharded end.
    mid = np.mean([reports[y].mean_packets for y in (2019, 2020, 2021)])
    assert mid > reports[2015].mean_packets * 0.8
    assert mid > np.mean([reports[y].median_packets for y in (2023, 2024)])
    assert reports[2024].median_packets < reports[2020].median_packets * 1.2
