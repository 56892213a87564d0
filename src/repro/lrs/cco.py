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
``tests/oracles/cco_reference.py`` had: items keyed in the order their
pairs were first seen, one ``llr_score`` float per distinct table,
weights added in history order (docs/architecture.md, "How the CCO
model is built and queried").  Training holds one item's row of pairs
at a time, never a table of every co-occurring pair; a query costs the
prefixes it reads plus its survivors, and one catalogue-sized copy: the
``zeros`` accumulator every query starts from.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
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

@dataclass
class CcoTrainer:
    """Batch trainer: events -> :class:`CcoModel`.

    Parameters follow the Universal Recommender's defaults in spirit:
    *max_history* caps per-user interaction lists before pair counting
    (Mahout's ``maxPrefsPerUser`` downsampling), *max_indicators* caps
    the per-item indicator list (``maxCorrelatorsPerItem``), and
    *llr_threshold* drops non-anomalous co-occurrences.

    :meth:`train` builds the model one item's row of co-occurrences at a
    time: besides the numbered histories and the model it holds one row
    and at most ``2 * max_indicators`` pending entries per item, never a
    table of every co-occurring pair.
    """

    max_history: int = 50
    max_indicators: int = 50
    llr_threshold: float = 1.0

    def __post_init__(self) -> None:
        # A negative cap would slice off the weakest entries (or every
        # history) instead of capping, and no score is below NaN.
        if self.max_history < 0 or self.max_indicators < 0:
            raise ValueError(
                f"max_history and max_indicators must be >= 0, "
                f"got {self.max_history} and {self.max_indicators}"
            )
        if math.isnan(self.llr_threshold):
            raise ValueError("llr_threshold must be a number, got NaN")

    def train(self, interactions: Iterable[Tuple[str, str]]) -> CcoModel:
        """Train on an iterable of (user, item) interactions.

        Items are numbered in name order, so a user's sorted numbers are
        its sorted names.  Row ``a`` counts the pairs ``(a, b)``, ``b > a``,
        over the tails of the lists that hold ``a``; every pair with a
        smaller first member came from an earlier row, so after row ``a``
        the item's list is complete and is sorted, trimmed and kept.  An
        entry for ``b`` waits in ``b``'s pending list, cut to its top
        ``max_indicators`` whenever it reaches twice that: the top k of a
        superset contains the top k of the whole.

        ``model.indicators`` keeps the seed's key order: an item's place
        is that of the first scored pair naming it, pairs ranked by first
        sight - (first user holding both, position of each in that
        user's sorted list) - and a pair's first member before its second.
        """
        event_count, popularity, names, users = self._numbered_histories(interactions)
        total_users = len(users)
        counts = [popularity[name] for name in names]
        # A holder is (user, position) packed as user * span + position,
        # a pair's rank (user, position, position) as holder * span +
        # position, from the first user holding both: ints that order
        # as the tuples do, for any history length.
        span = max(map(len, users), default=1)
        holders: List[List[int]] = [[] for _ in names]
        for user, numbers in enumerate(users):
            for holder, item in enumerate(numbers, user * span):
                holders[item].append(holder)

        keep = self.max_indicators
        bar = -self.llr_threshold
        #: (k11, k12, k21) -> -score: one llr_score per distinct table.
        tables: Dict[Tuple[int, int, int], float] = {}
        #: -score -> score, so the model holds the memo's float objects.
        scores: Dict[float, float] = {}
        # Each item's least rank of a scored pair; above every rank.
        unranked = total_users * span * span
        ranks = [unranked] * len(names)
        #: item -> (-score, partner) entries from earlier rows.
        pending: List[Optional[List[Tuple[float, int]]]] = [[] for _ in names]
        rows: List[List[Tuple[str, float]]] = []
        for first, held in enumerate(holders):
            row: Counter = Counter()
            earliest: Dict[int, int] = {}
            # Latest holder first, so the earliest one's rank is the one kept.
            for holder in reversed(held):
                user, position = divmod(holder, span)
                numbers = users[user]
                tail = numbers[position + 1:]
                row.update(tail)
                base = holder * span
                earliest.update(zip(tail, range(base + position + 1, base + len(numbers))))
            weighted = pending[first]
            pending[first] = None
            count = counts[first]
            for second, both in row.items():
                table = (both, count - both, counts[second] - both)
                negated = tables.get(table)
                if negated is None:
                    score = llr_score(*table, max(total_users - sum(table), 0))
                    negated = tables[table] = -score
                    scores[negated] = score
                if negated > bar:
                    continue
                rank = earliest[second]
                if rank < ranks[first]:
                    ranks[first] = rank
                if rank < ranks[second]:
                    ranks[second] = rank
                weighted.append((negated, second))
                column = pending[second]
                column.append((negated, first))
                if len(column) >= 2 * keep:
                    column.sort()
                    del column[keep:]
            # (-score, number) ascending is (-score, name): the seed's order.
            weighted.sort()
            rows.append([(names[item], scores[negated]) for negated, item in weighted[:keep]])

        # Two items tie only on the pair they share; the stable sort puts
        # its first member, the smaller number, first.
        ranked = sorted(range(len(names)), key=ranks.__getitem__)
        return CcoModel(
            indicators={names[item]: rows[item] for item in ranked if ranks[item] < unranked},
            popularity=dict(popularity),
            trained_on_events=event_count,
        )

    def _numbered_histories(
        self, interactions: Iterable[Tuple[str, str]]
    ) -> Tuple[int, Counter, List[str], List[List[int]]]:
        """Events read, item counts over the capped histories, item names
        in name order, and each user's item numbers sorted - users in
        first-seen order, counts in first-seen order along them."""
        histories: Dict[str, Dict[str, None]] = {}
        event_count = 0
        for user, item in interactions:
            event_count += 1
            history = histories.get(user)
            if history is None:
                history = histories[user] = {}
            # The seed's ``seen`` set plus its cap: a history never
            # shrinks, so an item once turned away is turned away again.
            if item not in history and len(history) < self.max_history:
                history[item] = None
        popularity = Counter(chain.from_iterable(histories.values()))
        names = sorted(popularity)
        number = {name: index for index, name in enumerate(names)}
        users = [sorted(map(number.__getitem__, history)) for history in histories.values()]
        return event_count, popularity, names, users
