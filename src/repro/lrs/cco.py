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
queried").  A query costs the prefixes it reads plus its survivors,
never the catalogue.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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


#: Postings read from the head of each list when a history has many.
#: Measured at ``scale=1.0`` (seed 7: 16,114 items, model trained in the
#: measuring process, 400 activity-weighted histories of <= 50 items,
#: median 14,000 postings each): prefixes of 32 / 64 / 128 / 256 cost
#: 2,366 / 1,555 / 1,155 / 1,258 us per query against 1,939 for reading
#: every list whole.  Shorter heads leave more survivors to re-score
#: (~ 8 us each, a cache miss per forward-list entry; at 32 the bound
#: closes for one query in sixteen and the rest are read twice), longer
#: ones more postings to sum (~ 100 ns each).
PREFIX = 128

#: Postings a history's lists must hold, in all, before only their heads
#: are read - a property of the query, not a setting.  Under it, cutting
#: and re-scoring cost more than the tails they skip: the ``scale=0.1``
#: slice (largest history 5,125 postings) costs 331 us per query read
#: whole against 483 / 1,127 through prefixes of 128 / 64; by bucket of
#: postings at prefix 128, whole / heads: 4-5,000 351 / 449 us at
#: ``scale=0.1``, 6-8,000 695 / 705 and 8-10,000 790 / 825 at
#: ``scale=0.3``, 8-10,000 1,317 / 468 and 12-15,000 1,767 / 800 at
#: ``scale=1.0``.
PREFIX_FROM_POSTINGS = 8000

#: Relative room left under the cut for rounding.  A sum of m
#: non-negative floats is within a relative m * 2**-53 of the real sum
#: whatever the order of its additions, so a partial sum, its bound and
#: the exact sum they stand for disagree by a few m * 2**-53 of the cut
#: at most; 1e-9 covers m up to a million postings per candidate.
_SLACK = 1e-9


@dataclass(frozen=True)
class _QueryIndex:
    """Posting lists over densely numbered items (the "search index")."""

    #: number -> item, in ``model.indicators`` key order.
    names: List[str]
    #: item -> number (the same ``int`` objects the postings hold).
    number: Dict[str, int]
    #: indicator -> (item numbers, weights), parallel and the weights
    #: unboxed: a query reads them in list order, and the model's own
    #: float objects lie in forward-list order, a cache miss apiece.
    postings: Dict[str, Tuple[Tuple[int, ...], "array[float]"]]
    #: One 0.0 per item; a query accumulates into a copy.
    zeros: List[float]
    #: The head length the lists were prepared for: every list longer
    #: than this is sorted by weight, descending, so its head bounds its
    #: tail.  ``None`` when heads bound nothing - some weight is
    #: negative, or a list that long names an item twice (two postings
    #: of one item must be added in forward order): every list keeps the
    #: forward lists' order and is read whole.
    prefix: Optional[int]


def _accumulate(
    index: _QueryIndex, lists: List[tuple], excluded: Set[int], prefix: int
) -> Tuple[List[float], Set[int], List[float]]:
    """Sum the first *prefix* postings of each of *lists*, in that order.

    Returns the accumulator, the items it touched less *excluded*, and
    the first unread weight of every list cut short - no posting behind
    it weighs more when the lists are sorted."""
    acc = index.zeros.copy()
    heads = []
    unread = []
    for items, weights in lists:
        if len(items) > prefix:
            unread.append(weights[prefix])
            items = items[:prefix]
            weights = weights[:prefix]
        for item, weight in zip(items, weights):
            acc[item] += weight
        heads.append(items)
    touched = set().union(*heads)
    touched -= excluded
    return acc, touched, unread


@dataclass
class CcoModel:
    """A trained CCO model: per-item weighted indicator lists."""

    #: item -> list of (indicator_item, llr_weight), sorted by weight.
    indicators: Dict[str, List[Tuple[str, float]]] = field(default_factory=dict)
    #: item -> global interaction count (popularity fallback ranking).
    popularity: Dict[str, int] = field(default_factory=dict)
    trained_on_events: int = 0
    #: Built lazily, at the first query.
    _index: Optional[_QueryIndex] = field(default=None, repr=False, compare=False)

    def _query_index(self) -> _QueryIndex:
        if self._index is None:
            # Imported by the first model that is queried: the extension
            # module is 0.1 MiB of resident memory in every process that
            # imports this package, and most never query a model.
            from array import array

            names = list(self.indicators)
            number = {name: index for index, name in enumerate(names)}
            postings: Dict[str, Tuple[List[int], "array[float]"]] = {}
            for item, weighted in self.indicators.items():
                item_number = number[item]
                for indicator, weight in weighted:
                    posting = postings.get(indicator)
                    if posting is None:
                        posting = postings[indicator] = ([], array("d"))
                    posting[0].append(item_number)
                    posting[1].append(weight)
            # Only a list longer than the prefix is ever cut short, so
            # only those need sorting (7.9 % of the postings at
            # ``scale=0.1``, 23 % at 1.0 - and a model's first query
            # waits for this).
            long = [posting for posting in postings.values() if len(posting[0]) > PREFIX]
            bounded = all(len(set(items)) == len(items) for items, _ in long) and all(
                min(weights) >= 0.0 for _, weights in postings.values()
            )
            if bounded:
                for items, weights in long:
                    # Stable: equal weights keep ``indicators`` key order.
                    order = sorted(range(len(items)), key=weights.__getitem__, reverse=True)
                    items[:] = map(items.__getitem__, order)
                    weights[:] = array("d", map(weights.__getitem__, order))
            self._index = _QueryIndex(
                names,
                number,
                {indicator: (tuple(items), weights) for indicator, (items, weights) in postings.items()},
                [0.0] * len(names),
                PREFIX if bounded else None,
            )
        return self._index

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
        if n <= 0:
            return []
        index = self._query_index()
        asked = dict.fromkeys(history)
        lists = [index.postings[item] for item in asked if item in index.postings]
        dropped = asked if exclude_history else {}
        excluded = {index.number[item] for item in dropped if item in index.number}
        everything = sum(len(items) for items, _ in lists)
        candidates = None
        if index.prefix is not None and everything > PREFIX_FROM_POSTINGS:
            scores, touched, unread = _accumulate(index, lists, excluded, index.prefix)
            candidates = self._rescored(index, asked, scores, touched, unread, n)
        if candidates is None:
            scores, candidates, _ = _accumulate(index, lists, excluded, everything)
        popularity = self.popularity
        if not candidates:
            unseen = (i for i in popularity if i not in dropped)
            return sorted(unseen, key=lambda i: (-popularity[i], i))[:n]
        if n < len(candidates):
            # Nothing below the n-th largest score makes the top n; all
            # that tie with it still can, and the full key decides.
            cut = heapq.nlargest(n, [scores[item] for item in candidates])[-1]
            candidates = [item for item in candidates if scores[item] >= cut]
        names = index.names
        ranked = sorted(
            candidates,
            key=lambda item: (-scores[item], -popularity.get(names[item], 0), names[item]),
        )
        return [names[item] for item in ranked[:n]]

    def _rescored(
        self,
        index: _QueryIndex,
        asked: Dict[str, None],
        scores: List[float],
        touched: Set[int],
        unread: List[float],
        n: int,
    ) -> Optional[Iterable[int]]:
        """The candidates that can still make the top *n* once *unread*
        tails are counted, their *scores* made exact in place; ``None``
        when the heads do not decide it."""
        if not unread:
            return touched
        if len(touched) < n:
            return None
        # An item scores at most its partial sum plus what every tail
        # can add, n items score at least the n-th partial sum.  An item
        # no head names has partial sum 0.0 - and one unread posting,
        # even of weight 0.0, makes it a candidate: 0.0 must be
        # strictly out.
        cut = heapq.nlargest(n, [scores[item] for item in touched])[-1]
        keep_from = cut * (1.0 - _SLACK) - sum(unread)
        if keep_from <= 0.0:
            return None
        position = {item: rank for rank, item in enumerate(asked)}
        names = index.names
        indicators = self.indicators
        survivors = [item for item in touched if scores[item] >= keep_from]
        for item in survivors:
            # The seed's additions, in the seed's order.
            hits = [
                (position[indicator], weight)
                for indicator, weight in indicators[names[item]]
                if indicator in position
            ]
            hits.sort()
            score = 0.0
            for _, weight in hits:
                score += weight
            scores[item] = score
        return survivors

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
