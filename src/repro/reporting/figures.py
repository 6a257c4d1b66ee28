"""Figure series that no core function computes already.

Figures 3, 4 and 8-10 reduce a :class:`~repro.core.pipeline.PeriodAnalysis`
(several, for Figure 3) into the plain data series they plot.  The other
figures' series are core functions: ``multi_event_responses`` (Figure 1),
``volatility_summary`` (2), ``port_type_distribution`` (5),
``recurrence_by_type`` (6) and ``capability_by_type`` (7).  Plotting is out
of scope (no plotting dependency); ``benchmarks/bench_fig4_tool_mix.py``
prints Figure 4's series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.core.institutions import org_footprints
from repro.core.pipeline import PeriodAnalysis
from repro.core.ports_analysis import ports_per_source_summary
from repro.scanners.base import Tool


def figure3_ports_per_ip(
    analyses: Mapping[int, PeriodAnalysis]
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Figure 3: per-year CDF of distinct ports per source IP."""
    return {
        year: ports_per_source_summary(a.study_batch).cdf
        for year, a in analyses.items()
    }


def figure4_tool_mix_per_port(
    analysis: PeriodAnalysis, top_n: int = 10
) -> Dict[int, Dict[Tool, float]]:
    """Figure 4: traffic share per tool on the top-``top_n`` traffic ports."""
    batch = analysis.study_batch
    if len(batch) == 0:
        return {}
    ports, counts = np.unique(batch.dst_port, return_counts=True)
    top_ports = ports[np.argsort(counts)[::-1][:top_n]]

    scans = analysis.study_scans
    out: Dict[int, Dict[Tool, float]] = {}
    tool_values = scans.tool.astype(str)
    for port in top_ports.tolist():
        # Attribute each scan's packets to its tool, per primary port.
        mask = scans.primary_port == port
        total = scans.packets[mask].sum()
        mix: Dict[Tool, float] = {}
        if total > 0:
            for name in set(tool_values[mask].tolist()):
                sel = mask & (tool_values == name)
                mix[Tool(name)] = float(scans.packets[sel].sum() / total)
        out[int(port)] = mix
    return out


@dataclass(frozen=True)
class OrgCoverageRow:
    """One bar of the Figure 8/9/10 port-coverage charts."""

    organisation: str
    ports: int
    coverage: float
    sources: int
    packets: int


def figure8_org_port_coverage(analysis: PeriodAnalysis) -> List[OrgCoverageRow]:
    """Figures 8–10: port-range coverage per known scanning organisation."""
    rows = [
        OrgCoverageRow(
            organisation=fp.organisation,
            ports=fp.distinct_ports,
            coverage=fp.port_coverage,
            sources=fp.sources,
            packets=fp.packets,
        )
        for fp in org_footprints(analysis).values()
    ]
    return sorted(rows, key=lambda r: -r.coverage)
