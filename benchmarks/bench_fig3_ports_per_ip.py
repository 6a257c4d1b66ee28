"""Figure 3 — distinct ports targeted per source IP, per year.

CDF of the number of different ports each source probes: 83% single-port in
2015 falling to 65% by 2022, with ≥5-port sources growing from 2% to ~10%.
"""

import numpy as np

from conftest import emit
from repro import paper as ref
from repro._util.fmt import format_table
from repro._util.stats import pearson_r
from repro.core.ports_analysis import ports_per_source_summary


def test_fig3_ports_per_source(analyses, benchmark, capsys):
    def measure():
        return {year: ports_per_source_summary(a.study_batch)
                for year, a in analyses.items()}

    per_year = benchmark.pedantic(measure, rounds=1, iterations=1)

    rows = []
    for year, s in sorted(per_year.items()):
        paper = ref.SINGLE_PORT_FRACTION.get(year)
        rows.append([
            year, s.sources,
            f"{paper * 100:.0f}%" if paper else "-",
            f"{s.fraction_single_port * 100:.1f}%",
            f"{s.fraction_at_least_3 * 100:.1f}%",
            f"{s.fraction_at_least_5 * 100:.1f}%",
            f"{s.fraction_more_than_10 * 100:.1f}%",
        ])
    text = "\n".join([
        "", "=" * 78,
        "FIGURE 3 — distinct ports per source IP",
        "=" * 78,
        format_table(["year", "sources", "1 port (paper)", "1 port",
                      ">=3 ports", ">=5 ports", ">10 ports"], rows),
    ])
    emit(capsys, text)

    # Single-port share declines monotonically-ish over the decade.
    years = sorted(per_year)
    singles = [per_year[y].fraction_single_port for y in years]
    r, p = pearson_r(years, singles)
    assert r < -0.7, "single-port share must trend downward"
    # Calibration anchors within a few points.
    for year, expected in ref.SINGLE_PORT_FRACTION.items():
        assert abs(per_year[year].fraction_single_port - expected) < 0.12
    # Multi-port scanning grows: >=3-port share increases significantly
    # (the paper quotes R = 0.88 for the scan-level trend).
    multis = [per_year[y].fraction_at_least_3 for y in years]
    r_multi, _ = pearson_r(years, multis)
    assert r_multi > 0.7
