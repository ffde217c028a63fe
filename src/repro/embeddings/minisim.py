"""MiniSimLM: a deterministic stand-in for the MiniLM-L6 sentence encoder.

The paper uses MiniLM embeddings for exactly one job: scoring the semantic
similarity of two *short* strings (a textual claim value vs. a query
result), with thresholds of 0.7 (plausibility) and 0.8 (correctness), and
with tolerance for abbreviations and spelling mistakes.

Character n-gram hashing has the same similarity profile on short strings:
identical strings score 1.0, typo variants score high, unrelated strings
score near 0, and shared-word variants land in between. The embedding is a
bag of hashed character trigrams (plus word unigrams for a word-level
signal), L2-normalised, so cosine similarity is a direct overlap measure.
"""

from __future__ import annotations

import hashlib
import math
from functools import lru_cache

#: Dimensionality of the hashed embedding space. Large enough that hash
#: collisions are negligible for short strings.
EMBEDDING_DIM = 512

_NGRAM_SIZE = 3
_WORD_WEIGHT = 2.0

#: Distinct (left, right) string pairs whose score is remembered.
SIMILARITY_MEMO_SIZE = 4096


class MiniSimLM:
    """Hash-based character n-gram sentence encoder with a cosine API.

    The public surface mirrors a sentence-transformers model closely enough
    for CEDAR's needs: ``encode(text) -> list[float]`` plus a convenience
    ``similarity(a, b) -> float``.
    """

    def __init__(self, dimension: int = EMBEDDING_DIM) -> None:
        if dimension < 8:
            raise ValueError("embedding dimension must be at least 8")
        self.dimension = dimension
        self._cache: dict[str, list[float]] = {}

    def encode(self, text: str) -> list[float]:
        """Encode a string into a normalised dense vector."""
        cached = self._cache.get(text)
        if cached is not None:
            return cached
        vector = [0.0] * self.dimension
        for feature, weight in self._features(text):
            index = self._hash_feature(feature)
            vector[index] += weight
        norm = math.sqrt(sum(v * v for v in vector))
        if norm > 0:
            vector = [v / norm for v in vector]
        if len(self._cache) > 50_000:
            self._cache.clear()
        self._cache[text] = vector
        return vector

    def similarity(self, left: str, right: str) -> float:
        """Cosine similarity of two strings in [0, 1]."""
        return cosine_similarity(self.encode(left), self.encode(right))

    def _features(self, text: str):
        normalised = _normalise(text)
        if not normalised:
            return
        padded = f"  {normalised}  "
        for i in range(len(padded) - _NGRAM_SIZE + 1):
            yield padded[i:i + _NGRAM_SIZE], 1.0
        for word in normalised.split():
            yield f"w:{word}", _WORD_WEIGHT

    def _hash_feature(self, feature: str) -> int:
        digest = hashlib.blake2s(feature.encode("utf-8"),
                                 digest_size=4).digest()
        return int.from_bytes(digest, "big") % self.dimension


def cosine_similarity(left: list[float], right: list[float]) -> float:
    """Cosine similarity of two equal-length vectors, clamped to [0, 1].

    Vectors from :class:`MiniSimLM` are non-negative, so the cosine is
    already in [0, 1]; clamping guards against float error.
    """
    if len(left) != len(right):
        raise ValueError("vectors must have equal dimension")
    dot = sum(a * b for a, b in zip(left, right))
    norm_left = math.sqrt(sum(a * a for a in left))
    norm_right = math.sqrt(sum(b * b for b in right))
    if norm_left == 0 or norm_right == 0:
        return 0.0
    return max(0.0, min(1.0, dot / (norm_left * norm_right)))


def _normalise(text: str) -> str:
    lowered = text.lower().strip()
    cleaned = "".join(ch if ch.isalnum() or ch.isspace() else " "
                      for ch in lowered)
    return " ".join(cleaned.split())


_DEFAULT_MODEL: MiniSimLM | None = None


def default_model() -> MiniSimLM:
    """Return the process-wide shared encoder (embeddings are cached)."""
    global _DEFAULT_MODEL
    if _DEFAULT_MODEL is None:
        _DEFAULT_MODEL = MiniSimLM()
    return _DEFAULT_MODEL


@lru_cache(maxsize=SIMILARITY_MEMO_SIZE)
def text_similarity(left: str, right: str) -> float:
    """Similarity of two strings using the shared default encoder.

    Memoized per pair (LRU, thread-safe): retries and later stages score
    the same result against the same claim value, and a remembered float
    is the computed float, so no threshold comparison can change.
    """
    return default_model().similarity(left, right)
