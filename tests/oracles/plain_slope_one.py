"""Cleartext Slope One, the oracle the encrypted variant must agree with.

A reference ``tests/test_related_encrypted.py`` compares
:class:`repro.related.encrypted_slope_one.EncryptedSlopeOne` against, not
product code: the §9 contrast bench runs only the encrypted recommender.
Moved here verbatim from ``related/encrypted_slope_one.py``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

__all__ = ["PlainSlopeOne"]


@dataclass
class PlainSlopeOne:
    """Cleartext Slope One — the reference the encrypted variant must
    agree with."""

    #: (j, i) -> (sum of differences, count)
    deviations: Dict[Tuple[str, str], Tuple[float, int]] = field(default_factory=dict)
    user_ratings: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def fit(self, ratings: Iterable[Tuple[str, str, float]]) -> None:
        by_user: Dict[str, Dict[str, float]] = defaultdict(dict)
        for user, item, value in ratings:
            by_user[user][item] = value
        self.user_ratings = dict(by_user)
        sums: Dict[Tuple[str, str], float] = defaultdict(float)
        counts: Dict[Tuple[str, str], int] = defaultdict(int)
        for items in by_user.values():
            for j in items:
                for i in items:
                    if i == j:
                        continue
                    sums[(j, i)] += items[j] - items[i]
                    counts[(j, i)] += 1
        self.deviations = {
            pair: (sums[pair], counts[pair]) for pair in sums
        }

    def predict(self, user: str, item: str) -> Optional[float]:
        ratings = self.user_ratings.get(user, {})
        numerator = 0.0
        denominator = 0
        for rated_item, value in ratings.items():
            entry = self.deviations.get((item, rated_item))
            if entry is None or rated_item == item:
                continue
            dev_sum, count = entry
            numerator += (dev_sum / count + value) * count
            denominator += count
        if denominator == 0:
            return None
        return numerator / denominator
