"""Figure 8 — port coverage of well-known Internet-wide scanning projects
(2024): Censys, Palo Alto and Onyphe cover the full range; Shadowserver and
Rapid7 do not; universities sit at a handful of ports.
"""

import numpy as np

from conftest import emit
from repro import paper as ref
from repro._util.fmt import format_table
from repro.core.institutions import known_scanner_share, org_footprints
from repro.enrichment import profile_by_name


def test_fig8_org_port_coverage(rich_recent_years, capsys):
    _, analysis = rich_recent_years[2024]

    footprints = org_footprints(analysis)
    assert footprints

    rows = []
    for fp in sorted(footprints.values(), key=lambda f: -f.port_coverage):
        expected = profile_by_name(fp.organisation).coverage_in(2024)
        rows.append([
            fp.organisation[:28], fp.sources, fp.scans,
            fp.distinct_ports,
            f"{fp.port_coverage * 100:.1f}%",
            f"{expected * 100:.1f}%",
        ])
    share = known_scanner_share(analysis)
    text = "\n".join([
        "", "=" * 78,
        "FIGURE 8 — known-scanner port coverage, 2024 (measured vs profile)",
        "=" * 78,
        format_table(["organisation", "ips", "scans", "ports",
                      "coverage", "profile"], rows),
        "",
        f"Known scanners: {share.organisations} orgs, "
        f"{share.source_share:.2%} of sources, "
        f"{share.packet_share:.1%} of traffic "
        f"(paper 2024: {ref.KNOWN_SCANNER_SHARE[2024][0]:.2%} / "
        f"{ref.KNOWN_SCANNER_SHARE[2024][1]:.1%})",
    ])
    emit(capsys, text)

    coverage = {fp.organisation: fp.port_coverage for fp in footprints.values()}
    # Full-range scanners beat the partial ones, which beat universities.
    for full in ref.FULL_RANGE_ORGS_2024 & set(coverage):
        for partial in ref.PARTIAL_RANGE_ORGS_2024 & set(coverage):
            assert coverage[full] > coverage[partial], (full, partial)
    for uni in ("University of Michigan", "UCSD", "TU Munich"):
        if uni in coverage:
            assert coverage[uni] < 0.01
    # Aggregate share shape: tiny source share, large traffic share.
    assert share.source_share < 0.05
    assert share.packet_share > 0.2
