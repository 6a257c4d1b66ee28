"""Table 2 — scanner-type shares of sources, scans and packets.

The paper's Table 2 aggregates the full dataset; here the measured column is
the volume-weighted aggregate over all ten simulated years.
"""

import numpy as np

from conftest import emit
from repro import paper as ref
from repro._util.fmt import format_table
from repro.core.classification import type_shares
from repro.enrichment.types import SCANNER_TYPE_ORDER, ScannerType
from repro.reporting import render_table2


def aggregate_type_shares(analyses):
    """Volume-weighted aggregation of per-year type shares."""
    totals = {s: {"sources": 0.0, "scans": 0.0, "packets": 0.0}
              for s in SCANNER_TYPE_ORDER}
    weights = {"sources": 0.0, "scans": 0.0, "packets": 0.0}
    for analysis in analyses.values():
        n_sources = analysis.distinct_sources
        n_scans = len(analysis.study_scans)
        n_packets = len(analysis.study_batch)
        for row in type_shares(analysis):
            totals[row.scanner_type]["sources"] += row.sources * n_sources
            totals[row.scanner_type]["scans"] += row.scans * n_scans
            totals[row.scanner_type]["packets"] += row.packets * n_packets
        weights["sources"] += n_sources
        weights["scans"] += n_scans
        weights["packets"] += n_packets
    return {
        stype: tuple(totals[stype][k] / weights[k]
                     for k in ("sources", "scans", "packets"))
        for stype in SCANNER_TYPE_ORDER
    }


def test_table2(analyses, capsys):
    aggregated = aggregate_type_shares(analyses)

    rows = []
    for stype in SCANNER_TYPE_ORDER:
        paper = ref.TABLE2[stype.value]
        measured = aggregated[stype]
        rows.append([
            stype.value,
            f"{paper[0] * 100:.2f}% / {measured[0] * 100:.2f}%",
            f"{paper[1] * 100:.2f}% / {measured[1] * 100:.2f}%",
            f"{paper[2] * 100:.2f}% / {measured[2] * 100:.2f}%",
        ])
    text = "\n".join([
        "", "=" * 78,
        "TABLE 2 — scanner types (paper / measured, aggregated over 10 years)",
        "=" * 78,
        format_table(["type", "sources", "scans", "packets"], rows),
        "",
        "Measured 2022 period alone:",
        render_table2(type_shares(analyses[2022])),
    ])
    emit(capsys, text)

    # Shape: institutional tiny in sources, huge in packets; residential
    # dominates sources.
    inst = aggregated[ScannerType.INSTITUTIONAL]
    assert inst[0] < 0.02
    assert inst[2] > 0.15
    res = aggregated[ScannerType.RESIDENTIAL]
    assert res[0] > 0.35
    hosting = aggregated[ScannerType.HOSTING]
    assert hosting[2] > hosting[0]
