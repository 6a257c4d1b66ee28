"""§5.1–5.4 — scanning dynamics: port-space coverage, alias affinity,
vertical scans, the speed–ports correlation, the service-density
non-correlation, and geographic port biases.
"""

import numpy as np

from conftest import emit
from repro import paper as ref
from repro._util.fmt import format_table
from repro._util.stats import pearson_r
from repro.core.geography import (
    biased_port_counts_by_country,
    port_origin_biases,
)
from repro.core.ports_analysis import (
    port_pair_affinity,
    port_space_coverage,
    service_density_correlation,
    speed_ports_correlation,
    vertical_scan_counts,
)
from repro.simulation.services import ServiceWorld, vertical_scan


def test_port_space_coverage(analyses, benchmark, capsys):
    """§5.1: from 31% of privileged ports probed (2015) to a blanket."""

    def measure():
        return {year: port_space_coverage(a) for year, a in analyses.items()}

    per_year = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [[y, c.probed_ports, c.probed_privileged,
             f"{c.privileged_fraction * 100:.0f}%"]
            for y, c in sorted(per_year.items())]
    emit(capsys, "\n".join([
        "", "=" * 78, "§5.1 — port-space coverage above the noise floor",
        "=" * 78,
        format_table(["year", "ports probed", "privileged", "priv. frac"], rows),
    ]))

    years = sorted(per_year)
    probed = [per_year[y].probed_ports for y in years]
    r, _ = pearson_r(years, probed)
    assert r > 0.8, "port-space coverage must grow across the decade"
    assert per_year[2024].probed_ports > 5 * per_year[2015].probed_ports


def test_alias_affinity_trend(analyses, benchmark, capsys):
    """§5.1: 80→8080 coupling grows from 18% (2015) to ~87% (2020+)."""

    def measure():
        return {year: port_pair_affinity(a.study_scans, 80, 8080)
                for year, a in analyses.items()}

    per_year = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [[y, f"{ref.AFFINITY_80_8080.get(y, float('nan')) * 100:.0f}%"
             if y in ref.AFFINITY_80_8080 else "-",
             f"{v * 100:.0f}%"] for y, v in sorted(per_year.items())]
    emit(capsys, "\n".join([
        "", "§5.1 — P(scan of 80 also covers 8080)",
        format_table(["year", "paper", "measured"], rows),
    ]))

    assert per_year[2015] < per_year[2020]
    assert per_year[2020] > 0.5
    assert per_year[2015] < 0.5


def test_vertical_scans(analyses, sims, benchmark, capsys):
    """§5.2: vertical scans grow; >100-port scans stay under ~1% of scans."""

    def measure():
        return {year: vertical_scan_counts(a.study_scans)
                for year, a in analyses.items()}

    per_year = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = []
    for year, counts in sorted(per_year.items()):
        projected_10k = counts.over_10000_ports / sims[year].scan_scale
        rows.append([year, counts.total_scans, counts.over_100_ports,
                     counts.over_1000_ports, counts.over_10000_ports,
                     f"{projected_10k:,.0f}"])
    emit(capsys, "\n".join([
        "", "§5.2 — vertical scans (paper: 1 scan >10k ports in 2015, 2,134 in 2020)",
        format_table(["year", "scans", ">100p", ">1000p", ">10000p",
                      ">10000p projected"], rows),
    ]))

    # 2020 is the vertical-scan peak year in the paper's numbers.
    assert per_year[2020].over_10000_ports >= per_year[2015].over_10000_ports
    total_frac_over100 = np.mean([
        c.fraction_over(100) for c in per_year.values()
    ])
    assert total_frac_over100 < 0.15


def test_speed_ports_correlation(analyses, benchmark, capsys):
    """§5.3: faster scans cover more ports (paper R = 0.88)."""

    def measure():
        return {year: speed_ports_correlation(a.study_scans)[0]
                for year, a in analyses.items()}

    per_year = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [[y, f"{r:.2f}"] for y, r in sorted(per_year.items())]
    emit(capsys, "\n".join([
        "", f"§5.3 — speed vs ports correlation (paper R = {ref.SPEED_PORTS_R})",
        format_table(["year", "R"], rows),
    ]))
    mean_r = np.mean(list(per_year.values()))
    assert mean_r > 0.15, "speed must correlate positively with port count"


def test_service_density_non_correlation(analyses, benchmark, capsys):
    """§5.1: scan intensity is unrelated to where services actually live
    (paper R = 0.047)."""
    density = vertical_scan(ServiceWorld.default(), n_hosts=60_000, rng=5).density()

    def measure():
        return service_density_correlation(analyses[2022].study_scans, density)

    r, p = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(capsys, f"\n§5.1 — service-density correlation: R = {r:.3f} "
                 f"(paper: {ref.SERVICE_DENSITY_R})")
    assert abs(r) < 0.2


def test_geographic_port_biases(analyses, benchmark, capsys):
    """§5.4: many ports are >80% single-country; China owns the most."""

    def measure():
        return port_origin_biases(analyses[2022], min_share=0.8, min_packets=40)

    biases = benchmark.pedantic(measure, rounds=1, iterations=1)
    counts = biased_port_counts_by_country(biases)
    rows = [[c, n] for c, n in list(counts.items())[:10]]
    emit(capsys, "\n".join([
        "", "§5.4 — ports with >80% single-country origin (2022)",
        format_table(["country", "ports"], rows),
        "paper: CN 14,444 ports, US 666, BR 221, TW 59, IR 57",
    ]))
    assert biases, "biased ports must exist"
    assert counts, "at least one country must own biased ports"
    # At simulation scale each biased tail port reflects a single large
    # campaign, so the exact leader varies; China must sit among the top
    # owners as in the paper.
    assert "CN" in list(counts)[:4]


def test_us_http_abandonment(analyses, benchmark, capsys):
    """§5.4: the US very active on HTTP through 2018, nearly gone by 2019.

    Measured over scans whose primary target is port 80; packet-level
    shares are diluted by background sources and multi-port sweeps.
    """

    def measure():
        out = {}
        for year, a in analyses.items():
            scans = a.study_scans
            mask = scans.primary_port == 80
            if np.any(mask):
                out[year] = float(np.mean(scans.country[mask].astype(str) == "US"))
        return out

    shares = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [[y, f"{v:.1%}"] for y, v in sorted(shares.items())]
    emit(capsys, "\n".join([
        "", "§5.4 — US share of port-80 scans (paper: active 2016-2018,",
        "abandons the protocol in 2019)",
        format_table(["year", "US share"], rows),
    ]))

    early = np.mean([shares[y] for y in (2016, 2017, 2018) if y in shares])
    late = np.mean([shares[y] for y in (2019, 2020, 2021) if y in shares])
    assert early > 0.15
    assert late < 0.6 * early
