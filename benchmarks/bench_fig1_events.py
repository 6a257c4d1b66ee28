"""Figure 1 — scanning spikes after vulnerability disclosures decay fast.

For every disclosure event planted in the decade, measures the port's daily
activity relative to baseline, the peak surge, and the number of days until
the KS test no longer distinguishes post-event activity from baseline.
"""

import numpy as np

from conftest import check_all, emit
from repro._util.fmt import format_table
from repro.core.events import event_response


def test_fig1_event_decay(decade, capsys):
    def measure():
        responses = []
        for year, (sim, analysis) in decade.items():
            for event in sim.config.events:
                responses.append((year, event, event_response(
                    analysis, event.port, event.day_offset)))
        return responses

    responses = measure()
    assert responses, "no disclosure events in the decade"

    rows = []
    for year, event, response in responses:
        rows.append([
            year, event.name[:38], event.port,
            f"{response.peak_factor:.1f}x",
            response.days_to_normal if response.returned_to_normal else ">period",
        ])
    text = "\n".join([
        "", "=" * 78,
        "FIGURE 1 — disclosure-event response (peak over baseline, days to normal)",
        "=" * 78,
        format_table(["year", "event", "port", "peak", "days-to-normal"], rows),
        "",
        "Example decay series (first event):",
        "  " + " ".join(f"{v:.1f}" for v in responses[0][2].relative_series[:14]),
    ])
    emit(capsys, text)

    peaks = [r.peak_factor for _, _, r in responses]
    returned = [r for _, _, r in responses if r.returned_to_normal]
    median_days = (np.median([r.days_to_normal for r in returned])
                   if returned else np.inf)
    check_all([
        # Spikes are large...
        (f"median peak {np.median(peaks):.1f}x > 3x", np.median(peaks) > 3.0),
        (f"largest peak {max(peaks):.1f}x > 8x", max(peaks) > 8.0),
        # ...and the Internet forgets fast: most events return to baseline
        # within the period, within a few weeks of disclosure.
        (f"{len(returned)} of {len(responses)} events return to baseline "
         "(at least half)", len(returned) >= len(responses) * 0.5),
        (f"median days to baseline {median_days} <= 15", median_days <= 15),
    ])
