"""Reporting layer: table renderers and figure-series extraction."""

from repro.reporting.tables import (
    TABLE1_TOOLS,
    paper_report_to_json,
    render_paper_report,
    render_paper_report_json,
    render_report_doc,
    render_table1,
    render_table2,
)
from repro.reporting.export import (
    export_cdf,
    export_csv,
    export_json,
    export_year_summaries,
)
from repro.reporting.validation import (
    ClaimCheck,
    render_scorecard,
    validate_reproduction,
)
from repro.reporting.figures import (
    OrgCoverageRow,
    figure3_ports_per_ip,
    figure4_tool_mix_per_port,
    figure8_org_port_coverage,
)

__all__ = [
    "TABLE1_TOOLS",
    "paper_report_to_json",
    "render_paper_report",
    "render_paper_report_json",
    "render_report_doc",
    "render_table1",
    "render_table2",
    "ClaimCheck",
    "render_scorecard",
    "validate_reproduction",
    "export_cdf",
    "export_csv",
    "export_json",
    "export_year_summaries",
    "OrgCoverageRow",
    "figure3_ports_per_ip",
    "figure4_tool_mix_per_port",
    "figure8_org_port_coverage",
]
