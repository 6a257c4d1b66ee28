"""Figures 9 & 10 — per-organisation port-scan footprints, 2023 vs 2024.

Appendix A: activity per known scanner is similar across consecutive years,
but differs starkly *between* scanners; Onyphe's range more than doubles.
The appendix's ETL pipeline is also exercised against the 2024 capture.
"""

import numpy as np

from conftest import emit
from repro._util.fmt import format_table
from repro.core.institutions import org_footprints, port_coverage_comparison
from repro.enrichment import EtlPipeline, KnownScannerFeed, synthesise_sources


def test_fig9_10_year_over_year(rich_recent_years, capsys):
    def measure():
        return (org_footprints(rich_recent_years[2023][1]),
                org_footprints(rich_recent_years[2024][1]))

    fps_2023, fps_2024 = measure()
    comparison = port_coverage_comparison(fps_2023, fps_2024)

    rows = [
        [org[:28], f"{a * 100:.1f}%", f"{b * 100:.1f}%"]
        for org, (a, b) in sorted(comparison.items(), key=lambda kv: -kv[1][1])
    ]
    text = "\n".join([
        "", "=" * 78,
        "FIGURES 9/10 — known-scanner port coverage, 2023 vs 2024",
        "=" * 78,
        format_table(["organisation", "2023", "2024"], rows),
    ])
    emit(capsys, text)

    # Onyphe scales up dramatically between the two years (§6.8).
    a, b = comparison["Onyphe"]
    assert b > 1.8 * a
    # Censys reaches (nearly) the full range only in 2024.
    c23, c24 = comparison["Censys"]
    assert c24 > 0.85
    assert c23 < c24
    # Measurable organisations are stable year-over-year (within a factor
    # ~2.5); orgs with only a couple of campaigns at simulation scale have
    # footprints too noisy to compare.
    measurable = {
        org: (x, y) for org, (x, y) in comparison.items()
        if max(x, y) >= 0.02
    }
    stable = sum(
        1 for (x, y) in measurable.values()
        if x > 0 and y > 0 and max(x, y) / min(x, y) < 2.5
    )
    assert len(measurable) >= 8
    assert stable >= len(measurable) * 0.55


def test_appendix_etl_on_capture(rich_recent_years, capsys):
    """Run the Appendix-A ETL over the 2024 capture's sources and verify it
    re-identifies the known-scanner population."""
    sim, analysis = rich_recent_years[2024]
    registry = sim.registry
    feed = KnownScannerFeed(registry)
    sources = np.unique(analysis.study_batch.src_ip)
    known_mask = feed.is_known(sources)
    observed = sources.tolist()

    data_sources = synthesise_sources(
        registry, feed, observed, rng=7, direct_fraction=0.5
    )

    warehouse = EtlPipeline(data_sources).run(observed)

    known_ips = sources[known_mask]
    matched = sum(1 for ip in known_ips.tolist() if warehouse.actor_of(int(ip)))
    false_pos = sum(
        1 for ip in sources[~known_mask].tolist() if warehouse.actor_of(int(ip))
    )
    text = "\n".join([
        "", "=" * 78,
        "APPENDIX A — ETL over the 2024 capture",
        "=" * 78,
        f"sources observed: {sources.size}",
        f"known-scanner sources: {known_ips.size}",
        f"ETL matched: {matched} ({matched / max(known_ips.size, 1):.0%} recall)",
        f"false positives: {false_pos}",
        f"actors identified: {len(warehouse.actors())} "
        f"(paper 2024: 40 organisations)",
    ])
    emit(capsys, text)

    assert matched / max(known_ips.size, 1) > 0.95
    assert false_pos == 0
    assert len(warehouse.actors()) >= 10
