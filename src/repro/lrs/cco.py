"""Correlated Cross-Occurrence (CCO) collaborative filtering.

The paper integrates PProx with the Universal Recommender, which
"implements collaborative filtering based on the Correlated
Cross-Occurrence (CCO) algorithm.  CCO aggregates indicators
(feedback on the access to items) and builds profiles allowing to
predict users' interests based on the history of other profiles with
high similarity" (§7).

CCO as shipped in the Universal Recommender / Mahout:

1. Build the user x item interaction matrix from the event stream
   (deduplicated, with per-user downsampling of very long histories).
2. For every item pair, test whether their co-occurrence across user
   histories is *anomalously* frequent using Dunning's log-likelihood
   ratio (LLR) over the 2x2 contingency table.
3. Keep, per item, the top-k correlated items whose LLR clears a
   threshold — these are the item's *indicators*.
4. At query time, score candidate items by the sum of LLR weights of
   indicators that appear in the querying user's history; return the
   top-n candidates not already in the history (the search-engine
   "OR-query" that Elasticsearch performs for the UR).

Model and rankings are functions of the event stream *and its order*;
the cheap forms below keep what the straight loops in
``tests/oracles/cco_reference.py`` had: pairs counted in first-seen
order, one ``llr_score`` float per distinct table, weights added in
history order (docs/architecture.md, "How the CCO model is built and
queried").  A query costs what its postings cost, never the catalogue.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["CcoModel", "CcoTrainer", "llr_score"]


def _entropy(*counts: int) -> float:
    """Unnormalized Shannon entropy term used by the LLR statistic."""
    total = sum(counts)
    if total == 0:
        return 0.0
    result = 0.0
    for count in counts:
        if count:
            result += count * math.log(count / total)
    return -result


def llr_score(k11: int, k12: int, k21: int, k22: int) -> float:
    """Dunning log-likelihood ratio of a 2x2 contingency table.

    ``k11`` users saw both items, ``k12`` only the row item, ``k21``
    only the column item, ``k22`` neither.  Larger means the
    co-occurrence is more anomalous (more informative).
    """
    row_entropy = _entropy(k11 + k12, k21 + k22)
    column_entropy = _entropy(k11 + k21, k12 + k22)
    matrix_entropy = _entropy(k11, k12, k21, k22)
    score = 2.0 * (row_entropy + column_entropy - matrix_entropy)
    # Guard against tiny negative values from floating-point error.
    return max(score, 0.0)


@dataclass
class CcoModel:
    """A trained CCO model: per-item weighted indicator lists."""

    #: item -> list of (indicator_item, llr_weight), sorted by weight.
    indicators: Dict[str, List[Tuple[str, float]]] = field(default_factory=dict)
    #: item -> global interaction count (popularity fallback ranking).
    popularity: Dict[str, int] = field(default_factory=dict)
    trained_on_events: int = 0
    #: indicator -> list of (item, weight); built lazily for queries.
    _reverse: Optional[Dict[str, List[Tuple[str, float]]]] = field(
        default=None, repr=False, compare=False
    )

    def _reverse_index(self) -> Dict[str, List[Tuple[str, float]]]:
        """Posting lists keyed by indicator (the "search index" view)."""
        if self._reverse is None:
            reverse: Dict[str, List[Tuple[str, float]]] = defaultdict(list)
            for item, weighted in self.indicators.items():
                for indicator, weight in weighted:
                    reverse[indicator].append((item, weight))
            self._reverse = dict(reverse)
        return self._reverse

    def recommend(
        self,
        history: Sequence[str],
        n: int = 20,
        exclude_history: bool = True,
    ) -> List[str]:
        """Top-*n* items for a user with interaction *history*.

        Scoring mirrors the UR's Elasticsearch query: each history item
        contributes the LLR weight of candidates for which it is an
        indicator.  Ties break by popularity, then lexicographically
        (for determinism).  Cold-start users fall back to popularity.
        Weights are summed in history order: float addition is not
        associative, and a ``set``'s order moves with ``PYTHONHASHSEED``,
        which is enough to flip the ranking of two near-equal scores.
        """
        reverse = self._reverse_index()
        scores: Dict[str, float] = defaultdict(float)
        for indicator in dict.fromkeys(history):
            for item, weight in reverse.get(indicator, ()):
                scores[item] += weight
        # Dropped after the sums instead of tested once per posting.
        excluded = set(history) if exclude_history else ()
        for item in excluded:
            scores.pop(item, None)
        popularity = self.popularity
        if not scores:
            unseen = (i for i in popularity if i not in excluded)
            return sorted(unseen, key=lambda i: (-popularity[i], i))[:n]
        candidates: Iterable[str] = scores
        if 0 < n < len(scores):
            # Nothing below the n-th largest score makes the top n; all
            # that tie with it still can, and the full key decides.
            cut = sorted(scores.values(), reverse=True)[n - 1]
            candidates = [i for i, score in scores.items() if score >= cut]
        ranked = sorted(candidates, key=lambda i: (-scores[i], -popularity.get(i, 0), i))
        return ranked[:n]

    def indicator_count(self) -> int:
        """Total number of (item, indicator) edges in the model."""
        return sum(len(v) for v in self.indicators.values())


@dataclass
class CcoTrainer:
    """Batch trainer: events -> :class:`CcoModel`.

    Parameters follow the Universal Recommender's defaults in spirit:
    *max_history* caps per-user interaction lists before pair counting
    (Mahout's ``maxPrefsPerUser`` downsampling), *max_indicators* caps
    the per-item indicator list (``maxCorrelatorsPerItem``), and
    *llr_threshold* drops non-anomalous co-occurrences.
    """

    max_history: int = 50
    max_indicators: int = 50
    llr_threshold: float = 1.0

    def train(self, interactions: Iterable[Tuple[str, str]]) -> CcoModel:
        """Train on an iterable of (user, item) interactions."""
        histories: Dict[str, List[str]] = defaultdict(list)
        seen: set = set()
        event_count = 0
        for user, item in interactions:
            event_count += 1
            if (user, item) in seen:
                continue
            seen.add((user, item))
            history = histories[user]
            if len(history) < self.max_history:
                history.append(item)

        item_counts: Counter = Counter()
        pair_counts: Counter = Counter()
        for history in histories.values():
            item_counts.update(history)
            pair_counts.update(combinations(sorted(set(history)), 2))

        total_users = len(histories)
        tables: Dict[Tuple[int, int, int], float] = {}
        indicators: Dict[str, List[Tuple[str, float]]] = defaultdict(list)
        for (first, second), k11 in pair_counts.items():
            table = (k11, item_counts[first] - k11, item_counts[second] - k11)
            score = tables.get(table)
            if score is None:
                k22 = total_users - sum(table)
                score = tables[table] = llr_score(*table, max(k22, 0))
            if score < self.llr_threshold:
                continue
            indicators[first].append((second, score))
            indicators[second].append((first, score))

        trimmed: Dict[str, List[Tuple[str, float]]] = {}
        for item, weighted in indicators.items():
            weighted.sort(key=lambda pair: (-pair[1], pair[0]))
            trimmed[item] = weighted[: self.max_indicators]

        return CcoModel(
            indicators=trimmed,
            popularity=dict(item_counts),
            trained_on_events=event_count,
        )
