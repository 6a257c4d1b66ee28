"""Figure 5 — scanner-type distribution over the most-targeted ports.

Residential sources dominate most ports; HTTPS (443) and DSC (3390) are
institutional-heavy; JSON-RPC (8545) is an enterprise anomaly (the FPT AS).
"""

import numpy as np

from conftest import emit
from repro._util.fmt import format_table
from repro.core.classification import port_type_distribution
from repro.enrichment.types import SCANNER_TYPE_ORDER, ScannerType


def test_fig5_scanner_types_per_port(analyses, capsys):
    analysis = analyses[2022]

    dist = port_type_distribution(analysis, top_n=15)
    assert len(dist) == 15

    rows = []
    for port, mix in dist.items():
        rows.append([port] + [f"{mix[t] * 100:.0f}%" for t in SCANNER_TYPE_ORDER])
    text = "\n".join([
        "", "=" * 78,
        "FIGURE 5 — scanner types per top-15 port (2022, share of scans)",
        "=" * 78,
        format_table(["port"] + [t.value for t in SCANNER_TYPE_ORDER], rows),
    ])

    # The enterprise JSON-RPC anomaly, measured on the scans directly.
    scans = analysis.study_scans
    types = np.array([str(t) for t in scans.scanner_type])
    mask_8545 = np.array([
        bool(p.size) and 8545 in p for p in scans.port_sets
    ])
    extra = []
    if mask_8545.any():
        ent = np.mean(types[mask_8545] == ScannerType.ENTERPRISE.value)
        extra.append(f"8545 (JSON-RPC) scans from enterprise space: {ent:.0%}")
        base = np.mean(types == ScannerType.ENTERPRISE.value)
        extra.append(f"enterprise share over all scans: {base:.0%}")
        assert ent > base, "8545 must be enterprise-skewed"
    emit(capsys, text + ("\n" + "\n".join(extra) if extra else ""))

    # Residential sources dominate most of the top ports...
    residential_heavy = sum(
        1 for mix in dist.values()
        if max(mix, key=mix.get) == ScannerType.RESIDENTIAL
    )
    assert residential_heavy >= 5
    # ...but 443 is disproportionately institutional.
    if 443 in dist:
        inst_shares = {p: m[ScannerType.INSTITUTIONAL] for p, m in dist.items()}
        assert inst_shares[443] >= np.median(list(inst_shares.values()))
