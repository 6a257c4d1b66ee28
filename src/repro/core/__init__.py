"""The paper's analysis pipeline — this package is the primary contribution.

Workflow: a telescope capture goes through :func:`analyze_period` (or
:func:`analyze_simulation`), which identifies scan campaigns (§3.4),
fingerprints tools (§3.3) and enriches origins; the sibling modules then
compute every table and figure of the evaluation.
"""

from repro.core.campaigns import CampaignCriteria, ScanTable, identify_scans
from repro.core.fingerprints import (
    FingerprintVerdict,
    ToolFingerprinter,
    masscan_match,
    mirai_match,
    nmap_pair_match,
    unicorn_pair_match,
    zmap_match,
)
from repro.core.pipeline import (
    EXCLUDED_STUDY_PORTS,
    PeriodAnalysis,
    analyze_period,
    analyze_simulation,
)
from repro.core.ecosystem import (
    GrowthReport,
    PortShare,
    YearSummary,
    common_tool_share,
    growth_report,
    summarize_period,
    top_ports_by_packets,
    top_ports_by_scans,
    top_ports_by_sources,
)
from repro.core.ports_analysis import (
    PortSpaceCoverage,
    PortsPerSourceSummary,
    VerticalScanCounts,
    port_pair_affinity,
    port_space_coverage,
    ports_per_source,
    ports_per_source_summary,
    scan_port_intensity,
    service_density_correlation,
    tool_port_footprint,
    speed_ports_correlation,
    vertical_scan_counts,
)
from repro.core.volatility import (
    VolatilitySummary,
    dense_weekly_counts,
    summaries_from_counts,
    volatility_summary,
    weekly_change_factors,
    weekly_slash16_counts,
    weeks_in_period,
)
from repro.core.events import (
    EventResponse,
    event_response,
    multi_event_responses,
    port_daily_packets,
)
from repro.core.speed import (
    SpeedStats,
    SpeedTrend,
    nmap_faster_than_masscan,
    overall_speed_trend,
    speed_stats,
    speed_stats_by_tool,
    tool_speed_trend,
    top_k_mean_speed,
    top_k_speed_trend,
)
from repro.core.coverage import (
    CollaborationCluster,
    CoverageMode,
    CoverageStats,
    collaborating_subnets,
    coverage_by_tool,
    coverage_modes,
    coverage_stats,
)
from repro.core.recurrence import (
    RecurrenceStats,
    daily_cadence_sources,
    institutional_daily_scanners,
    recurrence_by_type,
    recurrence_stats,
    recurrence_stats_arrays,
    split_scan_times,
)
from repro.core.classification import (
    TypeCapability,
    TypeShares,
    capability_by_type,
    institutional_speed_ratio,
    port_type_distribution,
    type_shares,
)
from repro.core.institutions import (
    KnownScannerShare,
    OrgFootprint,
    known_scanner_share,
    org_footprints,
    port_coverage_comparison,
)
from repro.core.churn import (
    ChurnFit,
    TYPICAL_LIFETIME_DAYS,
    correct_source_count,
    cumulative_distinct_sources,
    expected_distinct_sources,
    first_appearance_days,
    fit_population,
    fit_population_by_type,
    fit_population_curve,
)
from repro.core.trends import (
    CLASSIC_PORTS,
    ConcentrationReport,
    IntensityReport,
    TrendLine,
    scan_intensity,
    classic_port_share_trend,
    concentration_from_packets,
    country_distribution_entropy,
    entropy_from_counts,
    intensity_from_arrays,
    metric_trend,
    port_distribution_entropy,
    port_rank_stability,
    port_share,
    traffic_concentration,
)
from repro.core.report import (
    ChurnReport,
    PaperReport,
    RecurrenceReport,
    TrendsReport,
    paper_report,
)
from repro.core.collaboration import (
    BiasReport,
    DistributedCampaign,
    MergedCampaign,
    MergeEvaluation,
    detect_distributed_campaigns,
    evaluate_merging,
    merge_collaborative_scans,
    single_source_bias,
)
from repro.core.blocklist import (
    BlocklistWindowResult,
    InstitutionalFilterResult,
    blocklist_effectiveness,
    institutional_filter_effectiveness,
)
from repro.core.geography import (
    PortOriginBias,
    biased_port_counts_by_country,
    country_shares,
    port_country_share,
    port_origin_biases,
    space_normalised_shares,
    tool_country_shares,
)

__all__ = [
    # campaigns
    "CampaignCriteria", "ScanTable", "identify_scans",
    # fingerprints
    "FingerprintVerdict", "ToolFingerprinter", "masscan_match", "mirai_match",
    "nmap_pair_match", "unicorn_pair_match", "zmap_match",
    # pipeline
    "EXCLUDED_STUDY_PORTS", "PeriodAnalysis", "analyze_period", "analyze_simulation",
    # ecosystem
    "GrowthReport", "PortShare", "YearSummary", "common_tool_share",
    "growth_report", "summarize_period", "top_ports_by_packets",
    "top_ports_by_scans", "top_ports_by_sources",
    # ports
    "PortSpaceCoverage", "PortsPerSourceSummary", "VerticalScanCounts",
    "port_pair_affinity", "port_space_coverage", "ports_per_source",
    "ports_per_source_summary", "scan_port_intensity",
    "service_density_correlation", "speed_ports_correlation",
    "tool_port_footprint", "vertical_scan_counts",
    # volatility
    "VolatilitySummary", "dense_weekly_counts", "summaries_from_counts",
    "volatility_summary", "weekly_change_factors", "weeks_in_period",
    "weekly_slash16_counts",
    # events
    "EventResponse", "event_response", "multi_event_responses",
    "port_daily_packets",
    # speed
    "SpeedStats", "SpeedTrend", "nmap_faster_than_masscan",
    "overall_speed_trend", "speed_stats", "speed_stats_by_tool",
    "tool_speed_trend", "top_k_mean_speed", "top_k_speed_trend",
    # coverage
    "CollaborationCluster", "CoverageMode", "CoverageStats",
    "collaborating_subnets", "coverage_by_tool", "coverage_modes",
    "coverage_stats",
    # recurrence
    "RecurrenceStats", "daily_cadence_sources",
    "institutional_daily_scanners", "recurrence_by_type",
    "recurrence_stats", "recurrence_stats_arrays", "split_scan_times",
    # classification
    "TypeCapability", "TypeShares", "capability_by_type",
    "institutional_speed_ratio", "port_type_distribution", "type_shares",
    # institutions
    "KnownScannerShare", "OrgFootprint", "known_scanner_share",
    "org_footprints", "port_coverage_comparison",
    # churn
    "ChurnFit", "TYPICAL_LIFETIME_DAYS", "correct_source_count",
    "cumulative_distinct_sources", "expected_distinct_sources",
    "first_appearance_days", "fit_population", "fit_population_by_type",
    "fit_population_curve",
    # trends
    "CLASSIC_PORTS", "ConcentrationReport", "IntensityReport", "TrendLine",
    "scan_intensity",
    "classic_port_share_trend", "country_distribution_entropy",
    "metric_trend", "port_distribution_entropy", "port_rank_stability",
    "port_share", "traffic_concentration", "concentration_from_packets",
    "entropy_from_counts", "intensity_from_arrays",
    # report
    "ChurnReport", "PaperReport", "RecurrenceReport", "TrendsReport",
    "paper_report",
    # collaboration
    "BiasReport", "DistributedCampaign", "MergedCampaign", "MergeEvaluation",
    "detect_distributed_campaigns", "evaluate_merging",
    "merge_collaborative_scans", "single_source_bias",
    # blocklist
    "BlocklistWindowResult", "InstitutionalFilterResult",
    "blocklist_effectiveness", "institutional_filter_effectiveness",
    # geography
    "PortOriginBias", "biased_port_counts_by_country", "country_shares",
    "port_country_share", "port_origin_biases", "space_normalised_shares",
    "tool_country_shares",
]
