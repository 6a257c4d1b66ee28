#!/usr/bin/env python3
"""Regenerate the paper's figure data as plottable CSV/JSON artifacts.

Simulates a few study years, runs every figure analysis, and writes the
resulting series into an output directory — ready for matplotlib, gnuplot
or a spreadsheet. No plotting library is required (or used).

Usage::

    python examples/export_figures.py [output_dir]
"""

import sys
from pathlib import Path

from repro import TelescopeWorld, analyze_simulation, summarize_period
from repro.core import capability_by_type, type_shares
from repro.core.ports_analysis import ports_per_source_summary
from repro.core.recurrence import recurrence_by_type
from repro.core.volatility import volatility_summary
from repro.reporting import (
    export_cdf,
    export_csv,
    export_json,
    export_year_summaries,
    figure8_org_port_coverage,
)


def main() -> None:
    out = Path(sys.argv[1] if len(sys.argv) > 1 else "figure_data")
    out.mkdir(parents=True, exist_ok=True)
    years = (2016, 2020, 2024)

    world = TelescopeWorld(rng=31)
    analyses = {}
    summaries = {}
    for year in years:
        print(f"simulating {year} ...")
        sim = world.simulate_year(year, days=14, max_packets=250_000,
                                  min_scans=500)
        analyses[year] = analyze_simulation(sim)
        summaries[year] = summarize_period(analyses[year])

    written = []

    # Table 1 rows.
    written.append(export_year_summaries(out / "table1.csv", summaries))

    # Table 2 per year.
    for year, analysis in analyses.items():
        written.append(export_json(
            out / f"table2_{year}.json", type_shares(analysis)
        ))

    # Figure 2: weekly change CDFs.
    for year, analysis in analyses.items():
        vol = volatility_summary(analysis)
        for metric, summary in vol.items():
            if summary.cdf[0].size:
                written.append(export_cdf(
                    out / f"fig2_{year}_{metric}.csv", summary.cdf
                ))

    # Figure 3: ports-per-source CDFs.
    for year, analysis in analyses.items():
        summary = ports_per_source_summary(analysis.study_batch)
        written.append(export_cdf(out / f"fig3_{year}.csv", summary.cdf))

    # Figure 6: recurrence per type.
    for year, analysis in analyses.items():
        recurrence = recurrence_by_type(analysis.study_scans)
        written.append(export_json(
            out / f"fig6_{year}.json",
            {stype: {
                "sources": stats.sources,
                "fraction_recurring": stats.fraction_recurring,
                "daily_mode_fraction": stats.daily_mode_fraction,
            } for stype, stats in recurrence.items()},
        ))

    # Figure 7: speed/coverage per type.
    written.append(export_json(
        out / "fig7_2024.json", capability_by_type(analyses[2024])
    ))

    # Figure 8: org port coverage.
    rows = [
        {"organisation": r.organisation, "ports": r.ports,
         "coverage": r.coverage, "sources": r.sources, "packets": r.packets}
        for r in figure8_org_port_coverage(analyses[2024])
    ]
    written.append(export_csv(out / "fig8_2024.csv", rows))

    print(f"\nwrote {len(written)} artifacts to {out}/:")
    for path in written:
        print(f"  {path.name}")


if __name__ == "__main__":
    main()
