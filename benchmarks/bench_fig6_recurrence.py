"""Figure 6 — scanner recurrence and downtime between scans.

Non-institutional sources rarely scan twice (burned addresses, DHCP churn);
institutional sources show a pronounced daily-rescan mode.
"""

import numpy as np

from conftest import emit
from repro._util.fmt import format_table
from repro.core.recurrence import institutional_daily_scanners, recurrence_by_type
from repro.enrichment.types import SCANNER_TYPE_ORDER, ScannerType


def test_fig6_recurrence(rich_recent_years, capsys):
    # The daily re-scan cadence needs enough institutional campaigns to be
    # visible, so this figure runs on the richer 2024 period.
    _, analysis = rich_recent_years[2024]

    by_type = recurrence_by_type(analysis.study_scans)

    rows = []
    for stype in SCANNER_TYPE_ORDER:
        if stype not in by_type:
            continue
        s = by_type[stype]
        rows.append([
            stype.value, s.sources,
            f"{s.fraction_recurring * 100:.0f}%",
            f"{s.fraction_over_100_scans * 100:.1f}%",
            f"{s.fraction_downtime_within_day * 100:.0f}%",
            f"{s.daily_mode_fraction * 100:.0f}%",
        ])
    daily = institutional_daily_scanners(analysis.study_scans)
    text = "\n".join([
        "", "=" * 78,
        "FIGURE 6 — recurrence per scanner type (2024)",
        "=" * 78,
        format_table(["type", "sources", "recurring", ">100 scans",
                      "downtime<=1d", "daily mode"], rows),
        "",
        f"Institutional sources on a near-daily cadence: {daily}",
    ])
    emit(capsys, text)

    inst = by_type.get(ScannerType.INSTITUTIONAL)
    assert inst is not None
    res = by_type.get(ScannerType.RESIDENTIAL)
    assert res is not None
    # Institutional scanners come back; residential ones essentially don't.
    assert inst.fraction_recurring > 0.3
    assert res.fraction_recurring < 0.5
    assert inst.fraction_recurring > 3 * max(res.fraction_recurring, 0.01)
    # The daily mode exists for institutions only.
    assert inst.daily_mode_fraction > 0.35
    assert daily >= 2
    if res.downtime_cdf[0].size:
        assert res.daily_mode_fraction < inst.daily_mode_fraction
