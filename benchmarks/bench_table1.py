"""Table 1 — scan volume, top ports, tools per year (2015–2024).

Regenerates every row block of the paper's Table 1 from the simulated decade
and prints measured values (projected back to real-world volume through the
simulation scales) next to the paper's published ones.
"""

import numpy as np

from conftest import emit
from repro import paper as ref
from repro._util.fmt import format_count, format_table
from repro.core import summarize_period
from repro.reporting import render_table1
from repro.scanners import Tool
from repro.simulation import ALL_YEARS


def test_table1(decade, benchmark, capsys):
    summaries = {}

    def build():
        return {year: summarize_period(analysis)
                for year, (_, analysis) in decade.items()}

    summaries = benchmark.pedantic(build, rounds=1, iterations=1)

    lines = ["", "=" * 78, "TABLE 1 — ecosystem per year (measured, simulation scale)", "=" * 78]
    lines.append(render_table1(summaries))

    # Projected volumes against the paper.
    rows = []
    for year in ALL_YEARS:
        sim, _ = decade[year]
        measured_ppd = len(decade[year][1].study_batch) / sim.days / sim.packet_scale
        measured_spm = summaries[year].scans_per_month / sim.scan_scale
        rows.append([
            year,
            format_count(ref.PACKETS_PER_DAY[year]),
            format_count(measured_ppd),
            format_count(ref.SCANS_PER_MONTH[year]),
            format_count(measured_spm),
        ])
    lines.append("")
    lines.append("Projected volumes vs paper:")
    lines.append(format_table(
        ["year", "pkts/day paper", "pkts/day measured",
         "scans/mo paper", "scans/mo measured"], rows))

    # Tool-share comparison.
    tool_rows = []
    for year in ALL_YEARS:
        shares = summaries[year].tool_shares_by_scans
        for tool in (Tool.MASSCAN, Tool.NMAP, Tool.MIRAI, Tool.ZMAP):
            tool_rows.append([
                year, tool.value,
                f"{ref.TOOL_SHARES_BY_SCANS[year].get(tool, 0) * 100:.1f}%",
                f"{shares.get(tool, 0) * 100:.1f}%",
            ])
    lines.append("")
    lines.append("Tool shares by scans vs paper:")
    lines.append(format_table(["year", "tool", "paper", "measured"], tool_rows))

    # Rank-overlap of the top-port lists.
    overlap_rows = []
    for year in ALL_YEARS:
        measured = [p.port for p in summaries[year].top_ports_by_packets]
        expected = ref.TOP_PORTS_BY_PACKETS[year]
        overlap = len(set(measured) & set(expected))
        measured_src = [p.port for p in summaries[year].top_ports_by_sources]
        overlap_src = len(set(measured_src) & set(ref.TOP_PORTS_BY_SOURCES[year]))
        overlap_rows.append([year, f"{overlap}/5", f"{overlap_src}/5"])
    lines.append("")
    lines.append("Top-5 port overlap with paper (by packets / by sources):")
    lines.append(format_table(["year", "packets", "sources"], overlap_rows))
    emit(capsys, "\n".join(lines))

    # Shape assertions: volumes within 2x, decent port-rank overlap.
    for year in ALL_YEARS:
        sim, _ = decade[year]
        ppd = len(decade[year][1].study_batch) / sim.days / sim.packet_scale
        assert 0.4 * ref.PACKETS_PER_DAY[year] < ppd < 2.2 * ref.PACKETS_PER_DAY[year]
        measured = {p.port for p in summaries[year].top_ports_by_sources}
        assert len(measured & set(ref.TOP_PORTS_BY_SOURCES[year])) >= 3
