"""The reproduction scorecard on the fidelity suite's decade.

``repro-scan validate`` runs the same checks on its own, smaller periods.
Here they run on the shared decade fixture, and every claim the decade
does not reproduce fails the test by name.  No other bench re-checks one
of these claims with the same estimator on the same periods.
"""

from conftest import emit
from repro.reporting.validation import render_scorecard, validate_reproduction


def test_scorecard(analyses, sims, capsys):
    checks = validate_reproduction(analyses, sims)
    emit(capsys, "\n".join([
        "", "=" * 78, "Reproduction scorecard (the fidelity decade)", "=" * 78,
        render_scorecard(checks),
    ]))

    failed = [f"{c.claim_id} ({c.section}: paper {c.expected}, measured {c.measured})"
              for c in checks if not c.passed]
    assert not failed, "claims not reproduced: " + "; ".join(failed)
