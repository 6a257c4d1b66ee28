"""Figure 7 — speed and IPv4 coverage per scanner type.

Institutional sources eclipse everyone (≈92× the average speed, the best
coverage); enterprises are the most throttled; hosting outpaces residential.
"""

import numpy as np

from conftest import emit
from repro import paper as ref
from repro._util.fmt import format_rate_bps, format_table
from repro.core.classification import capability_by_type, institutional_speed_ratio
from repro.enrichment.types import SCANNER_TYPE_ORDER, ScannerType


def test_fig7_speed_coverage(analyses, sims, capsys):
    analysis = analyses[2022]
    sim = sims[2022]

    caps = capability_by_type(analysis)

    rows = []
    for stype in SCANNER_TYPE_ORDER:
        if stype not in caps:
            continue
        c = caps[stype]
        # Coverage estimates are compressed by the simulation's per-campaign
        # hit cap; rescale for an absolute-coverage column.
        rescaled = min(1.0, c.coverage.mean / sim.coverage_cap)
        rows.append([
            stype.value, c.speed.scans,
            f"{c.speed.median_pps:,.0f}",
            format_rate_bps(c.speed.median_pps * 480),
            f"{c.speed.fraction_over_1000pps * 100:.0f}%",
            f"{c.coverage.mean * 100:.2f}%",
            f"{rescaled * 100:.1f}%",
        ])
    ratio = institutional_speed_ratio(analysis)
    text = "\n".join([
        "", "=" * 78,
        "FIGURE 7 — capability per scanner type (2022)",
        "=" * 78,
        format_table(["type", "scans", "median pps", "median rate",
                      ">1000pps", "mean cov (sim)", "mean cov (rescaled)"],
                     rows),
        "",
        f"Institutional/rest mean-speed ratio: {ratio:.0f}x "
        f"(paper: ~{ref.INSTITUTIONAL_SPEED_RATIO:.0f}x)",
    ])
    emit(capsys, text)

    inst = caps[ScannerType.INSTITUTIONAL]
    res = caps[ScannerType.RESIDENTIAL]
    ent = caps[ScannerType.ENTERPRISE]
    hosting = caps[ScannerType.HOSTING]
    # §6.8 orderings.  Hosting-vs-residential is compared on means: the
    # hosting group is small at simulation scale and its median is noisy,
    # while its upper half (the actual Figure 7 separation) is stable.
    assert inst.speed.median_pps > hosting.speed.median_pps
    assert hosting.speed.mean_pps > res.speed.mean_pps
    assert ent.speed.median_pps < hosting.speed.mean_pps  # throttled
    assert inst.coverage.mean > res.coverage.mean
    assert ratio > 8
    # Threshold fractions: 84% institutional vs 12% residential over 1k pps.
    assert inst.speed.fraction_over_1000pps > 0.6
    assert res.speed.fraction_over_1000pps < 0.35
