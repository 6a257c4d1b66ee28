"""Figure 4 — top-10 traffic ports and the tools behind their probes.

Per year, the ports receiving the most packets and the per-tool composition
of the scans targeting them: Mirai dominating the 2017 IoT ports, Masscan
carrying the bulk of 2018–2022 traffic, de-fingerprinted tooling rising
after 2022.
"""

import numpy as np

from conftest import emit
from repro._util.fmt import format_table
from repro.reporting import figure4_tool_mix_per_port
from repro.scanners import Tool


def test_fig4_tool_mix(analyses, capsys):
    def measure():
        return {year: figure4_tool_mix_per_port(a, top_n=10)
                for year, a in analyses.items()}

    per_year = measure()

    rows = []
    for year in sorted(per_year):
        for port, mix in list(per_year[year].items())[:5]:
            cells = [
                f"{mix.get(tool, 0) * 100:.0f}%"
                for tool in (Tool.MASSCAN, Tool.ZMAP, Tool.NMAP,
                             Tool.MIRAI, Tool.UNKNOWN)
            ]
            rows.append([year, port] + cells)
    text = "\n".join([
        "", "=" * 78,
        "FIGURE 4 — per-port tool composition (traffic share of scans)",
        "=" * 78,
        format_table(["year", "port", "masscan", "zmap", "nmap",
                      "mirai", "unknown"], rows),
    ])
    emit(capsys, text)

    def total_share(year, tool):
        mixes = per_year[year].values()
        shares = [m.get(tool, 0.0) for m in mixes if m]
        return np.mean(shares) if shares else 0.0

    # 2017: Mirai heavily dominates the top IoT ports.
    assert total_share(2017, Tool.MIRAI) > 0.3
    # 2020: Masscan carries the largest share of top-port traffic.
    shares_2020 = {t: total_share(2020, t)
                   for t in (Tool.MASSCAN, Tool.NMAP, Tool.MIRAI)}
    assert max(shares_2020, key=shares_2020.get) == Tool.MASSCAN
    # 2015: custom tooling dominates, NMap visible.
    assert total_share(2015, Tool.UNKNOWN) > 0.4
    # 2024: fingerprintable Masscan has vanished from the top ports.
    assert total_share(2024, Tool.MASSCAN) <= 0.15
