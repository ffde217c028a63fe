"""Evaluation metrics: detection quality, economics, query complexity."""

from .classification import ConfusionCounts, percentage, score_claims
from .complexity import (
    ComplexityStats,
    QueryComplexity,
    analyse_claims,
    analyse_query,
)
from .economics import RunEconomics, economics_from_totals

__all__ = [
    "ComplexityStats",
    "ConfusionCounts",
    "QueryComplexity",
    "RunEconomics",
    "analyse_claims",
    "analyse_query",
    "economics_from_totals",
    "percentage",
    "score_claims",
]
