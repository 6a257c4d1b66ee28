"""The combined paper report: trends, volatility, recurrence, churn.

:class:`PaperReport` bundles the longitudinal analyses of §4.2/§4.4/§6.6
into one value.  One implementation computes it:
:class:`repro.stream.analyses.AnalysisSuite`, which accumulates the
packet-side tallies window by window and computes the per-scan statistics
from the final scan table.  A streaming pass feeds the suite window by
window; :func:`paper_report` feeds it a fully materialised
:class:`~repro.core.pipeline.PeriodAnalysis` as a single window.  The
report is therefore the same, field by field and float for float, however
the capture was cut into windows or shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.churn import ChurnFit
from repro.core.pipeline import PeriodAnalysis
from repro.core.recurrence import RecurrenceStats
from repro.core.trends import ConcentrationReport, IntensityReport
from repro.core.volatility import VolatilitySummary
from repro.enrichment.types import ScannerType


@dataclass(frozen=True)
class TrendsReport:
    """§4.2's single-period trend metrics."""

    classic_port_share: float          # packet share of ports (22, 80, 8080)
    port_entropy: float                # bits over the packet-port distribution
    country_entropy: float             # bits over the scan-country distribution
    concentration: Optional[ConcentrationReport]
    intensity: Optional[IntensityReport]


@dataclass(frozen=True)
class RecurrenceReport:
    """§6.6's recurrence metrics, overall and per scanner type."""

    overall: RecurrenceStats
    by_type: Dict[ScannerType, RecurrenceStats]
    institutional_daily: int


@dataclass(frozen=True)
class ChurnReport:
    """§4.2's churn view: the distinct-source curve and its renewal fit."""

    curve: np.ndarray                  # cumulative distinct sources per day
    fit: Optional[ChurnFit]


@dataclass(frozen=True)
class PaperReport:
    """Every longitudinal analysis of one period, in one value."""

    year: int
    days: int
    packets: int                       # study-view packets
    scans: int                         # study-view scans
    trends: TrendsReport
    volatility: Dict[str, VolatilitySummary]
    recurrence: RecurrenceReport
    churn: ChurnReport


def paper_report(analysis: PeriodAnalysis) -> PaperReport:
    """The report of a batch period: the analysis suite over one window."""
    # Imported here: repro.stream.analyses imports this module's dataclasses.
    from repro.stream.analyses import AnalysisConfig, AnalysisSuite

    suite = AnalysisSuite(AnalysisConfig(analysis.year, analysis.days))
    suite.consume(analysis.batch)
    return suite.finalize(analysis.scans)
