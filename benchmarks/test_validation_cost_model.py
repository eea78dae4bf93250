"""Calibration — analytic round model vs discrete-event execution.

Not a paper figure: this benchmark pins down the substitution at the
heart of the reproduction (DESIGN.md).  Dataset generation prices
schedules with the bulk-synchronous analytic model; the discrete-event
engine executes every message.  For the reproduction to be meaningful
the two must agree on *rankings*, and their absolute ratio must sit in
a narrow, known envelope.

Shape checks: median DES/analytic ratio in [0.5, 1.2] (the DES
pipelines across rounds, so it runs a bit faster — most extreme for
single-node ring-style schedules, hence the wide lower envelope), every
case within [0.15, 2.0], mean per-config rank correlation > 0.7, and
both paths name the same fastest algorithm in > 70% of configurations.
"""

from repro.validation import validate


def test_validation_cost_model(report):
    result = validate()

    report("Calibration — analytic model vs discrete-event engine",
           result.summary_lines())

    lo, hi = result.ratio_range
    assert 0.5 <= result.median_ratio <= 1.2
    assert lo >= 0.15 and hi <= 2.0
    assert result.mean_rank_correlation > 0.7
    assert result.decision_agreement_rate > 0.7
    assert len(result.cases) > 250
