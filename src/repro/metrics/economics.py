"""Cost and throughput accounting for experiment reports."""

from __future__ import annotations

from dataclasses import dataclass

from repro.llm.ledger import LedgerTotals


@dataclass(frozen=True)
class RunEconomics:
    """Spending summary of one verification run."""

    claims: int
    cost: float
    latency_seconds: float
    llm_calls: int
    total_tokens: int

    @property
    def cost_per_claim(self) -> float:
        return self.cost / self.claims if self.claims else 0.0

    @property
    def claims_per_hour(self) -> float:
        """Simulated throughput (paper Figure 5b's x-axis)."""
        if self.latency_seconds <= 0:
            return 0.0
        return 3600.0 * self.claims / self.latency_seconds


def economics_from_totals(totals: LedgerTotals, claims: int) -> RunEconomics:
    """Build a summary from aggregated ledger totals."""
    return RunEconomics(
        claims=claims,
        cost=totals.cost,
        latency_seconds=totals.latency_seconds,
        llm_calls=totals.calls,
        total_tokens=totals.total_tokens,
    )
