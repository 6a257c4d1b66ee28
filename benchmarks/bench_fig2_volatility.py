"""Figure 2 — weekly change of scanning per /16 netblock.

CDFs of week-over-week change factors for participating IPs, scans launched
and packets sent.  Paper headline: >50% of /16s change by at least 2×; only
20–30% are stable.
"""

import numpy as np

from conftest import emit
from repro import paper as ref
from repro._util.fmt import format_table
from repro.core.volatility import volatility_summary


def test_fig2_weekly_volatility(analyses, benchmark, capsys):
    def measure():
        return {year: volatility_summary(a) for year, a in analyses.items()}

    per_year = benchmark.pedantic(measure, rounds=1, iterations=1)

    rows = []
    for year, summary in sorted(per_year.items()):
        for metric in ("sources", "scans", "packets"):
            s = summary[metric]
            rows.append([
                year, metric, s.pairs,
                f"{s.fraction_stable * 100:.0f}%",
                f"{s.fraction_at_least_2x * 100:.0f}%",
                f"{s.fraction_at_least_3x * 100:.0f}%",
            ])
    text = "\n".join([
        "", "=" * 78,
        "FIGURE 2 — weekly /16 change factors "
        f"(paper: ≥2x for >{ref.WEEKLY_2X_FRACTION:.0%} of blocks)",
        "=" * 78,
        format_table(
            ["year", "metric", "block-weeks", "stable", ">=2x", ">=3x"], rows),
    ])
    emit(capsys, text)

    # Shape: the ecosystem is volatile in every year — a large share of
    # netblocks at least doubles/halves weekly, and stability is the
    # exception, mirroring the paper's 20–30% stable / >50% >=2x split.
    fractions_2x = [summary["sources"].fraction_at_least_2x
                    for summary in per_year.values()]
    assert np.mean(fractions_2x) > 0.35
    stable = [summary["sources"].fraction_stable for summary in per_year.values()]
    assert np.mean(stable) < 0.45
    for summary in per_year.values():
        assert summary["packets"].fraction_at_least_2x > 0.2
