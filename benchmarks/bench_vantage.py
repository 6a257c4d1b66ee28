"""§7 'Comparing vantage points' — the future-work experiment the paper
could not run: the same campaigns observed from a second telescope.

Checks that the §3.4 estimator family is vantage-invariant for an
equal-sized telescope elsewhere in the space, and quantifies the
vantage-size bias (a smaller telescope under the same criteria loses the
small campaigns).
"""

import numpy as np

from conftest import emit
from repro._util.fmt import format_table
from repro.core import CampaignCriteria, identify_scans
from repro.simulation.vantage import second_vantage
from repro.telescope import CidrBlock, Telescope


def test_vantage_comparison(sims, capsys):
    sim = sims[2020]
    same_size = Telescope.from_blocks(
        [CidrBlock.parse("198.18.0.0/15")], population=0.5458, rng=77
    )
    quarter = Telescope.from_blocks(
        [CidrBlock.parse("198.51.0.0/16")], population=0.27, rng=78
    )

    def measure():
        out = {}
        for label, telescope in (("same-size", same_size),
                                 ("quarter-size", quarter)):
            batch = second_vantage(sim, telescope, rng=55)
            criteria = CampaignCriteria(telescope_size=telescope.size)
            out[label] = identify_scans(batch, criteria=criteria)
        return out

    views = measure()
    primary = identify_scans(sim.batch)

    rows = [["primary (paper layout)", sim.telescope.size, len(primary),
             f"{np.median(primary.speed_pps):,.0f}"]]
    for label, telescope in (("same-size", same_size),
                             ("quarter-size", quarter)):
        view = views[label]
        rows.append([label, telescope.size, len(view),
                     f"{np.median(view.speed_pps):,.0f}"])
    emit(capsys, "\n".join([
        "", "=" * 78,
        "§7 — the same 2020 campaigns from three vantage points",
        "=" * 78,
        format_table(["vantage", "monitored", "scans found",
                      "median speed (pps)"], rows),
        "",
        "Same-size vantage: compatible results (the estimators normalise",
        "through telescope size). Quarter-size vantage: small campaigns",
        "fall below the detection thresholds — the paper's §3.4 caveat.",
    ]))

    same = views["same-size"]
    quarter_view = views["quarter-size"]
    # Equal-size vantage agrees on scan counts and median speed.
    assert abs(len(same) - len(primary)) < 0.25 * len(primary)
    assert 0.6 < np.median(same.speed_pps) / np.median(primary.speed_pps) < 1.6
    # Tool mix agrees for every major tool.
    a, b = primary.tool_shares_by_scans(), same.tool_shares_by_scans()
    for tool, share in a.items():
        if share > 0.1:
            assert abs(b.get(tool, 0) - share) < 0.15, tool
    # The small vantage undercounts.
    assert len(quarter_view) < 0.7 * len(primary)
