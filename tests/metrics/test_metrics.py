"""Tests for classification, economics, and complexity metrics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.claims import Claim, Span
from repro.llm import CostLedger
from repro.metrics import (
    ConfusionCounts,
    RunEconomics,
    analyse_claims,
    analyse_query,
    economics_from_totals,
    percentage,
    score_claims,
)


def make_claim(label, verdict):
    claim = Claim("The value 1 is here.", Span(2, 2), "ctx",
                  metadata={"label_correct": label})
    claim.correct = verdict
    return claim


class TestConfusion:
    def test_score_claims(self):
        claims = [
            make_claim(False, False),  # tp: incorrect, flagged
            make_claim(True, False),   # fp: correct, flagged
            make_claim(False, True),   # fn: incorrect, missed
            make_claim(True, True),    # tn
        ]
        counts = score_claims(claims)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 1, 1, 1)
        assert counts.precision == 0.5
        assert counts.recall == 0.5
        assert counts.f1 == 0.5

    def test_perfect(self):
        counts = ConfusionCounts(tp=5, tn=5)
        assert counts.precision == 1.0
        assert counts.recall == 1.0
        assert counts.f1 == 1.0

    def test_degenerate_cases(self):
        assert ConfusionCounts().precision == 0.0
        assert ConfusionCounts().recall == 0.0
        assert ConfusionCounts().f1 == 0.0

    def test_addition(self):
        total = ConfusionCounts(1, 2, 3, 4) + ConfusionCounts(4, 3, 2, 1)
        assert (total.tp, total.fp, total.fn, total.tn) == (5, 5, 5, 5)

    def test_unverified_claim_rejected(self):
        claim = make_claim(True, None)
        with pytest.raises(ValueError):
            score_claims([claim])

    def test_unlabeled_claim_rejected(self):
        claim = make_claim(True, True)
        del claim.metadata["label_correct"]
        with pytest.raises(ValueError):
            score_claims([claim])

    def test_percentage(self):
        assert percentage(0.7174) == 71.7


@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50),
       st.integers(0, 50))
@settings(max_examples=100, deadline=None)
def test_f1_is_harmonic_mean(tp, fp, fn, tn):
    counts = ConfusionCounts(tp, fp, fn, tn)
    p, r = counts.precision, counts.recall
    if p + r > 0:
        assert counts.f1 == pytest.approx(2 * p * r / (p + r))
    assert 0.0 <= counts.f1 <= 1.0
    assert min(p, r) - 1e-9 <= counts.f1 <= max(p, r) + 1e-9


class TestEconomics:
    def test_economics_of_a_capture(self):
        ledger = CostLedger()
        ledger.record("m", 100, 50, 1.0, 10.0)
        with ledger.capture() as spent:
            ledger.record("m", 100, 50, 2.0, 20.0)
        ledger.absorb(spent)
        economics = economics_from_totals(spent.totals(), claims=4)
        assert economics.cost == pytest.approx(2.0)
        assert economics.cost_per_claim == pytest.approx(0.5)
        assert economics.claims_per_hour == pytest.approx(4 * 3600 / 20.0)

    def test_zero_claims(self):
        economics = RunEconomics(0, 1.0, 10.0, 1, 100)
        assert economics.cost_per_claim == 0.0

    def test_zero_latency(self):
        economics = RunEconomics(5, 1.0, 0.0, 1, 100)
        assert economics.claims_per_hour == 0.0


class TestComplexity:
    def test_simple_lookup(self):
        measured = analyse_query(
            "SELECT a FROM t WHERE b = 'x'"
        )
        assert measured.joins == 0
        assert measured.aggregates == 0
        assert measured.subqueries == 0
        assert measured.columns == 2

    def test_percent_query(self):
        measured = analyse_query(
            "SELECT (SELECT COUNT(a) FROM t WHERE b = 'x') * 100.0 / "
            "(SELECT COUNT(a) FROM t)"
        )
        assert measured.subqueries == 2
        assert measured.aggregates == 2

    def test_join_counted(self):
        measured = analyse_query(
            "SELECT f.v FROM f JOIN d ON f.id = d.id JOIN e ON d.x = e.x"
        )
        assert measured.joins == 2

    def test_nested_join_in_subquery(self):
        measured = analyse_query(
            "SELECT v FROM f WHERE x = "
            "(SELECT MAX(x) FROM f JOIN d ON f.id = d.id)"
        )
        assert measured.joins == 1
        assert measured.subqueries == 1

    def test_group_by(self):
        measured = analyse_query(
            "SELECT g FROM t GROUP BY g ORDER BY SUM(v) DESC LIMIT 1"
        )
        assert measured.group_by == 1
        assert measured.aggregates == 1

    def test_columns_deduplicated(self):
        measured = analyse_query("SELECT a FROM t WHERE a > 1 AND a < 5")
        assert measured.columns == 1

    def test_analyse_claims_aggregation(self):
        claims = []
        for sql in ("SELECT a FROM t WHERE b = 'x'",
                    "SELECT COUNT(a) FROM t"):
            claim = Claim("v 1 w.", Span(1, 1), "ctx",
                          metadata={"reference_sql": sql})
            claims.append(claim)
        stats = analyse_claims(claims)
        assert stats.queries == 2
        assert stats.avg_aggregates == 0.5
        assert stats.max_columns == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            analyse_claims([])
