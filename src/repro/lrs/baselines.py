"""Baseline recommenders the evaluation compares CCO against.

The paper's claim that PProx is algorithm-agnostic ("compatible with
arbitrary recommendation algorithms") is exercised by swapping these
into the Harness engine: every recommender sees only (pseudonymous)
user/item identifiers through the same interface.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, List, Protocol, Sequence, Tuple

__all__ = ["Recommender", "PopularityRecommender", "ItemKnnRecommender"]


class Recommender(Protocol):
    """Interface every pluggable recommendation algorithm implements."""

    def fit(self, interactions: Iterable[Tuple[str, str]]) -> None:
        """Train on (user, item) interactions."""
        ...

    def recommend(self, history: Sequence[str], n: int = 20) -> List[str]:
        """Top-*n* recommendations for a user with *history*."""
        ...


@dataclass
class PopularityRecommender:
    """Most-popular-items baseline (non-personalized)."""

    counts: Counter = field(default_factory=Counter)

    def fit(self, interactions: Iterable[Tuple[str, str]]) -> None:
        self.counts = Counter(item for _, item in interactions)

    def recommend(self, history: Sequence[str], n: int = 20) -> List[str]:
        if n <= 0:
            return []
        history_set = set(history)
        ranked = sorted(self.counts, key=lambda i: (-self.counts[i], i))
        return [item for item in ranked if item not in history_set][:n]


@dataclass
class ItemKnnRecommender:
    """Item-based collaborative filtering with cosine similarity.

    The classic alternative to CCO: similarity between items is the
    cosine of their user-incidence vectors; a user's score for a
    candidate is the summed similarity with their history items.
    """

    neighbourhood: int = 50
    #: item -> list of (neighbour, similarity), sorted by similarity.
    neighbours: Dict[str, List[Tuple[str, float]]] = field(default_factory=dict)
    popularity: Counter = field(default_factory=Counter)

    def fit(self, interactions: Iterable[Tuple[str, str]]) -> None:
        user_items: Dict[str, set] = defaultdict(set)
        for user, item in interactions:
            user_items[user].add(item)

        item_degree: Counter = Counter()
        pair_counts: Counter = Counter()
        for items in user_items.values():
            ordered = sorted(items)
            item_degree.update(ordered)
            pair_counts.update(combinations(ordered, 2))

        neighbours: Dict[str, List[Tuple[str, float]]] = defaultdict(list)
        for (first, second), both in pair_counts.items():
            similarity = both / math.sqrt(item_degree[first] * item_degree[second])
            neighbours[first].append((second, similarity))
            neighbours[second].append((first, similarity))
        self.neighbours = {}
        for item, sims in neighbours.items():
            sims.sort(key=lambda pair: (-pair[1], pair[0]))
            self.neighbours[item] = sims[: self.neighbourhood]
        self.popularity = item_degree

    def recommend(self, history: Sequence[str], n: int = 20) -> List[str]:
        if n <= 0:
            return []
        history_set = set(history)
        scores: Dict[str, float] = defaultdict(float)
        for item in dict.fromkeys(history):
            for neighbour, similarity in self.neighbours.get(item, ()):
                if neighbour not in history_set:
                    scores[neighbour] += similarity
        if not scores:
            unseen = (i for i in self.popularity if i not in history_set)
            return sorted(unseen, key=lambda i: (-self.popularity[i], i))[:n]
        return sorted(scores, key=lambda i: (-scores[i], i))[:n]
