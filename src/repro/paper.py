"""The paper's published numbers, written down once.

The simulator calibrates from them (:mod:`repro.simulation.config`), the
scorecard prints them (:mod:`repro.reporting.validation`) and the fidelity
benchmarks compare against them; the analysis pipeline never reads them.
Table 1 cells that the available paper text garbles (repeated "26.0") hold
values interpolated from their neighbours, keeping each row's rank order, so
the top-5 port cells are compared by rank only.
"""

from repro.scanners.base import Tool

#: Table 1: telescope packets/day.
PACKETS_PER_DAY = {
    2015: 11e6, 2016: 19e6, 2017: 45e6, 2018: 133e6, 2019: 117e6,
    2020: 283e6, 2021: 281e6, 2022: 285e6, 2023: 402e6, 2024: 345e6,
}

#: Table 1: observed scans/month.
SCANS_PER_MONTH = {
    2015: 33e3, 2016: 38e3, 2017: 252e3, 2018: 137e3, 2019: 238e3,
    2020: 222e3, 2021: 290e3, 2022: 777e3, 2023: 727e3, 2024: 1.3e6,
}

#: Table 1: top-5 ports by packets, port -> % of packets, in rank order.
TOP_PORTS_BY_PACKETS = {
    2015: {22: 15.0, 8080: 8.7, 3389: 7.1, 80: 7.0, 443: 6.0},
    2016: {22: 8.2, 80: 6.0, 3389: 4.5, 1433: 3.5, 8080: 2.3},
    2017: {5358: 14.4, 7574: 12.1, 22: 11.2, 2323: 9.2, 6789: 6.2},
    2018: {22: 3.1, 8545: 1.4, 3389: 1.1, 80: 1.0, 8080: 0.9},
    2019: {22: 2.9, 80: 2.0, 8080: 1.8, 81: 1.7, 3389: 1.6},
    2020: {80: 1.0, 3389: 0.95, 81: 0.9, 22: 0.8, 8080: 0.8},
    2021: {6379: 1.4, 22: 1.3, 80: 1.1, 3389: 0.8, 8080: 0.8},
    2022: {22: 2.7, 80: 1.4, 443: 1.3, 2375: 1.3, 2376: 1.2},
    2023: {22: 1.8, 8080: 1.5, 80: 1.5, 3389: 1.3, 443: 1.1},
    2024: {3389: 2.2, 22: 1.8, 80: 1.5, 443: 1.2, 8080: 1.2},
}

#: Table 1: top-5 ports by sources, port -> % of sources, in rank order.
TOP_PORTS_BY_SOURCES = {
    2015: {10073: 33.0, 3389: 11.3, 80: 5.8, 8080: 2.7, 22555: 2.0},
    2016: {21: 10.2, 3389: 9.6, 20012: 5.2, 80: 3.3, 8080: 1.4},
    2017: {7545: 38.8, 2323: 25.3, 5358: 11.5, 22: 8.0, 23231: 7.4},
    2018: {8291: 38.8, 2323: 10.4, 21: 9.8, 22: 7.3, 80: 6.0},
    2019: {80: 30.4, 8080: 30.3, 2323: 18.8, 5555: 11.7, 5900: 8.2},
    2020: {80: 35.9, 8080: 30.4, 81: 13.2, 5555: 11.0, 2323: 9.1},
    2021: {80: 46.0, 8080: 42.0, 5555: 13.5, 81: 9.8, 8443: 8.3},
    2022: {80: 48.5, 8080: 41.9, 5555: 13.0, 81: 10.2, 8443: 7.7},
    2023: {80: 30.6, 8080: 27.1, 52869: 17.7, 60023: 17.4, 2323: 11.5},
    2024: {80: 37.4, 8080: 29.0, 443: 16.2, 2323: 12.1, 5900: 10.5},
}

#: Table 1: tool shares by scans (Unicorn omitted: 2 source IPs ever).
TOOL_SHARES_BY_SCANS = {
    2015: {Tool.MASSCAN: 0.005, Tool.NMAP: 0.317, Tool.MIRAI: 0.0, Tool.ZMAP: 0.021},
    2016: {Tool.MASSCAN: 0.015, Tool.NMAP: 0.128, Tool.MIRAI: 0.0, Tool.ZMAP: 0.091},
    2017: {Tool.MASSCAN: 0.007, Tool.NMAP: 0.026, Tool.MIRAI: 0.465, Tool.ZMAP: 0.011},
    2018: {Tool.MASSCAN: 0.209, Tool.NMAP: 0.032, Tool.MIRAI: 0.192, Tool.ZMAP: 0.047},
    2019: {Tool.MASSCAN: 0.219, Tool.NMAP: 0.036, Tool.MIRAI: 0.162, Tool.ZMAP: 0.027},
    2020: {Tool.MASSCAN: 0.205, Tool.NMAP: 0.050, Tool.MIRAI: 0.149, Tool.ZMAP: 0.131},
    2021: {Tool.MASSCAN: 0.251, Tool.NMAP: 0.068, Tool.MIRAI: 0.024, Tool.ZMAP: 0.092},
    2022: {Tool.MASSCAN: 0.099, Tool.NMAP: 0.023, Tool.MIRAI: 0.010, Tool.ZMAP: 0.037},
    2023: {Tool.MASSCAN: 0.002, Tool.NMAP: 0.0001, Tool.MIRAI: 0.390, Tool.ZMAP: 0.220},
    2024: {Tool.MASSCAN: 0.002, Tool.NMAP: 0.0001, Tool.MIRAI: 0.053, Tool.ZMAP: 0.590},
}

#: Table 2: (sources, scans, packets) share per scanner type.
TABLE2 = {
    "hosting": (0.0087, 0.0561, 0.1852),
    "enterprise": (0.0671, 0.1575, 0.0385),
    "institutional": (0.0016, 0.0745, 0.3263),
    "residential": (0.5492, 0.4612, 0.2339),
    "unknown": (0.3733, 0.2507, 0.2161),
}

#: §3.1: share of unsolicited TCP traffic that is SYN scanning.
SYN_SCAN_SHARE = 0.98

#: §4.1 growth headline.
PACKET_GROWTH_10Y = 30.0
SCAN_GROWTH_10Y = 39.0

#: §5.1: fraction of sources scanning exactly one port, per year.
SINGLE_PORT_FRACTION = {2015: 0.83, 2020: 0.74, 2022: 0.65}

#: §5.1: 80→8080 coupling among port-80 scans.
AFFINITY_80_8080 = {2015: 0.18, 2020: 0.87}

#: §5.3: speed–ports correlation.
SPEED_PORTS_R = 0.88

#: §5.1: service-density / scan-intensity correlation (essentially none).
SERVICE_DENSITY_R = 0.047

#: §6.8: institutional speed multiple over the average scanner.
INSTITUTIONAL_SPEED_RATIO = 92.0

#: §6.8: fraction of scans exceeding 1,000 pps.
OVER_1000PPS = {"residential": 0.12, "institutional": 0.84}

#: Appendix A: known scanners' share of sources / traffic in 2023 and 2024.
KNOWN_SCANNER_SHARE = {
    2023: (0.0036, 0.5131),
    2024: (0.0062, 0.5086),
}

#: §6.8/Figure 8: organisations covering (almost) the full port range in 2024.
FULL_RANGE_ORGS_2024 = {"Censys", "Palo Alto Networks", "Onyphe"}
PARTIAL_RANGE_ORGS_2024 = {"Shadowserver Foundation", "Rapid7", "Shodan"}

#: §4.4 / Figure 2: over half the /16s change at least 2× week-over-week;
#: only 20–30% are stable.
WEEKLY_2X_FRACTION = 0.50
