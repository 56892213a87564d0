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
pairs were first seen, each pair weighted by the float the oracle's
``llr_score`` returns for its table - summed per pair from the two
items' entropies and a per-training table of cell terms, the same
floats added in the same order - and weights added in history order
(docs/architecture.md, "How the CCO model is built and queried").
Training holds one item's row of pairs at a time, never a table of
every co-occurring pair or of their scores, and keeps each item's
indicator list as two parallel containers: a tuple of the indicators'
names and an ``array('d')`` of their weights, so a model holds no float
object and no pair tuple per indicator.  A query costs the prefixes it reads plus
its survivors, and one catalogue-sized copy: the ``zeros`` accumulator
every query starts from.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.lrs.store import EventStore

__all__ = ["CcoModel", "CcoTrainer"]


class _Scorer:
    """Dunning's log-likelihood ratio of item pairs, negated, and the
    threshold test, over one training's item counts.

    A pair's 2x2 table is (both items, the first only, the second only,
    neither); its score is ``2 * (row + column - matrix entropy)``, each
    entropy the negated left-to-right sum of ``k * log(k / users)`` over
    the nonzero cells it covers.  The neither cell, users less those
    holding either item, is never negative, so the row and column are
    the two items' (count, users - count): their entropies are kept per
    item and the terms ``t`` per training.  The matrix sum is added per
    pair, where the seed subtracted its negation, with ``t[0] = 0.0`` in
    place of a skipped zero cell: no term and no partial sum is
    ``-0.0``, so adding it moves no bit.  Every float is the seed's.
    """

    __slots__ = ("terms", "entropies", "counts", "users", "bar")

    def __init__(self, counts: List[int], users: int, bar: float) -> None:
        terms = [0.0] + [k * math.log(k / users) for k in range(1, users + 1)]
        self.terms = terms
        self.entropies = [-(terms[count] + terms[users - count]) for count in counts]
        self.counts = counts
        self.users = users
        #: The threshold, negated: a pair is kept at ``-score <= bar``.
        self.bar = bar

    def __call__(
        self, first: int, partners: Iterable[int], boths: Iterable[int]
    ) -> Tuple[List[float], List[int]]:
        """The negated scores and the partners, in *partners*' order, of
        the pairs (*first*, partner) held by *boths* users that clear the
        threshold; every partner is after *first*."""
        t = self.terms
        entropies = self.entropies
        counts = self.counts
        bar = self.bar
        count = counts[first]
        row = entropies[first]
        outside = self.users - count
        kept_scores: List[float] = []
        kept_partners: List[int] = []
        for second, both in zip(partners, boths):
            other = counts[second]
            negated = -2.0 * (
                row + entropies[second]
                + (((t[both] + t[count - both]) + t[other - both]) + t[outside - other + both])
            )
            # The seed's guard against a score rounding below zero.
            if negated > 0.0:
                negated = -0.0
            if negated <= bar:
                kept_scores.append(negated)
                kept_partners.append(second)
        return kept_scores, kept_partners


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
    #: indicator -> (item numbers, weights), parallel: the forward
    #: lists turned inside out, so a query reads one indicator's items
    #: and their weights in list order.
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

    #: item -> (indicator items, their LLR weights), parallel and sorted
    #: by weight, descending: a tuple of names and an ``array('d')``.
    indicators: Dict[str, Tuple[Tuple[str, ...], "array[float]"]] = field(default_factory=dict)
    #: item -> global interaction count (popularity fallback ranking).
    popularity: Dict[str, int] = field(default_factory=dict)
    trained_on_events: int = 0
    #: Built lazily, at the first query.
    _index: Optional[_QueryIndex] = field(default=None, repr=False, compare=False)

    def _query_index(self) -> _QueryIndex:
        if self._index is None:
            names = list(self.indicators)
            number = {name: index for index, name in enumerate(names)}
            postings: Dict[str, Tuple[List[int], "array[float]"]] = {}
            for item, (indicators, weights) in self.indicators.items():
                item_number = number[item]
                for indicator, weight in zip(indicators, weights):
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
                for indicator, weight in zip(*indicators[names[item]])
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
    time: besides the numbered histories, their holders and the model it
    holds one row and at most ``2 * max_indicators`` pending entries per
    item, never a table of every co-occurring pair or of their scores.
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

    def train(self, interactions: Union[EventStore, Iterable[Tuple[str, str]]]) -> CcoModel:
        """Train on a feedback store, or on an iterable of (user, item)
        interactions, which are read into one first.

        Items are numbered in name order, so a user's sorted numbers are
        its sorted names.  Row ``a`` counts the pairs ``(a, b)``, ``b > a``,
        over the tails of the lists that hold ``a``; every pair with a
        smaller first member came from an earlier row, so after row ``a``
        the item's list is complete and is sorted, trimmed and kept.  An
        entry for ``b`` waits in ``b``'s pending list, cut to its top
        ``max_indicators`` whenever it reaches twice that: the top k of a
        superset contains the top k of the whole.  A pending list is an
        ``array('d')`` of negated scores beside an ``array('i')`` of
        partners; rows are read in number order and each row's partners
        in ascending order, so partners arrive ascending and a stable
        sort on the score alone is the ``(-score, partner)`` order.

        A row's pairs are scored together by :class:`_Scorer` - the
        seed's floats, added in the seed's order, from per-item entropies
        and per-training cell terms, nothing memoised - and its kept
        pairs are filed after.

        ``model.indicators`` keeps the seed's key order: an item's place
        is that of the first scored pair naming it, pairs ranked by first
        sight - (first user holding both, position of each in that
        user's sorted list) - and a pair's first member before its second.
        A pair of ``x`` and a partner its first holder also holds ranks
        before every other pair naming ``x``, so that holder fixes
        ``x``'s rank if it holds a scored partner: row ``y`` marks each
        kept partner ``x`` whose first holder holds ``y`` (rows ascend,
        so the first mark is the least), and at row ``x`` an unmarked
        ``x`` takes the first scored partner after it in that list.
        Only when that holder holds none does ``x`` look at its later
        holders (:func:`_least_rank`).
        """
        if isinstance(interactions, EventStore):
            store = interactions
        else:
            store = EventStore()
            for user, item in interactions:
                store.insert(user, item)
        popularity, names, counts, users = self._numbered_histories(store)
        event_count = len(store)
        # One read in from pairs is freed before the first row.
        del store
        total_users = len(users)
        # Who holds each item: its users, ascending, and its position in
        # each one's sorted list.
        holder_users = [array("i") for _ in names]
        holder_positions = [array("i") for _ in names]
        for user, numbers in enumerate(users):
            for position, item in enumerate(numbers):
                holder_users[item].append(user)
                holder_positions[item].append(position)

        keep = self.max_indicators
        scored = _Scorer(counts, total_users, -self.llr_threshold)
        # A rank (user, position, position) packed as one int whose base
        # is the longest history: ints that order as the tuples do.
        # Above every rank: ``unranked`` for an item some scored pair
        # names, ``unpaired`` for one no scored pair has named yet.
        span = max(map(len, users), default=1)
        unranked = total_users * span * span
        unpaired = unranked + 1
        ranks = [unpaired] * len(names)
        #: item -> -score and partner of each entry from earlier rows.
        pending_scores = [array("d") for _ in names]
        pending_partners = [array("i") for _ in names]
        rows: List[Tuple[Tuple[str, ...], "array[float]"]] = []
        for first, (held, positions) in enumerate(zip(holder_users, holder_positions)):
            row: Counter = Counter()
            for user, position in zip(held, positions):
                row.update(users[user][position + 1:])
            # Ascending partners: the order a pending list must keep.
            row_partners = sorted(row)
            kept_scores, kept_partners = scored(
                first, row_partners, map(row.__getitem__, row_partners)
            )
            for negated, second in zip(kept_scores, kept_partners):
                if ranks[second] >= unranked:
                    # ``first`` is before ``second`` in every list holding
                    # both, and rows ascend: if ``second``'s first holder
                    # holds ``first``, this is ``second``'s least rank.
                    user = holder_users[second][0]
                    at = holder_positions[second][0]
                    numbers = users[user]
                    position = bisect_left(numbers, first, 0, at)
                    if position < at and numbers[position] == first:
                        ranks[second] = (user * span + position) * span + at
                    else:
                        ranks[second] = unranked
                column = pending_scores[second]
                column.append(negated)
                column_partners = pending_partners[second]
                column_partners.append(first)
                if len(column) >= 2 * keep:
                    values, named = column.tolist(), column_partners.tolist()
                    order = _smallest(values, keep)
                    pending_scores[second] = array("d", map(values.__getitem__, order))
                    pending_partners[second] = array("i", map(named.__getitem__, order))
            scores = pending_scores[first].tolist() + kept_scores
            partners = pending_partners[first].tolist() + kept_partners
            pending_scores[first] = pending_partners[first] = None
            if ranks[first] == unranked or (kept_partners and ranks[first] == unpaired):
                ranks[first] = _least_rank(
                    first, set(kept_partners), users, holder_users, holder_positions, scored, span
                )
            order = _smallest(scores, keep)
            # Negation flips the sign bit alone: each weight is its score's bits.
            rows.append((
                tuple([names[partners[index]] for index in order]),
                array("d", [-scores[index] for index in order]),
            ))

        # Two items tie only on the pair they share; the stable sort puts
        # its first member, the smaller number, first.
        ranked = sorted(range(len(names)), key=ranks.__getitem__)
        return CcoModel(
            indicators={names[item]: rows[item] for item in ranked if ranks[item] < unranked},
            popularity=popularity,
            trained_on_events=event_count,
        )

    def _numbered_histories(
        self, store: EventStore
    ) -> Tuple[Dict[str, int], List[str], List[int], List[List[int]]]:
        """Item counts over the capped histories, in first-seen order
        along the users; item names in name order and their counts; and
        each user's item numbers sorted, users in first-seen order."""
        table, histories = store.item_histories()
        # The seed's ``seen`` set plus its cap: a history never shrinks,
        # so an item once turned away is turned away again - a history
        # is its first ``max_history`` distinct items.
        capped = [array("i", islice(dict.fromkeys(history), self.max_history)) for history in histories]
        popularity = Counter(chain.from_iterable(capped))
        order = sorted(popularity, key=table.__getitem__)
        number = {stored: index for index, stored in enumerate(order)}
        users = [sorted(map(number.__getitem__, history)) for history in capped]
        return (
            {table[stored]: count for stored, count in popularity.items()},
            [table[stored] for stored in order],
            [popularity[stored] for stored in order],
            users,
        )


def _smallest(scores: List[float], keep: int) -> List[int]:
    """Indices of the *keep* smallest *scores*, ascending; stable, so
    equal scores stay in index order."""
    order = sorted(range(len(scores)), key=scores.__getitem__)
    del order[keep:]
    return order


def _least_rank(
    item: int,
    later: Set[int],
    users: List[List[int]],
    holder_users: List["array[int]"],
    holder_positions: List["array[int]"],
    scored: _Scorer,
    span: int,
) -> int:
    """The least rank of a scored pair naming *item*, which no earlier
    row ranked: at the first of its holders that holds a scored partner,
    the first such partner.  *later* are the scored partners after
    *item*.  In the first holder no partner before *item* is scored (it
    would have ranked it); in a later one such a partner is scored
    again, ``both`` counted from the two items' holder sets."""
    holders = None
    for index, (user, at) in enumerate(zip(holder_users[item], holder_positions[item])):
        numbers = users[user]
        for position, partner in enumerate(numbers):
            if partner > item:
                if partner in later:
                    return (user * span + at) * span + position
            elif partner < item and index:
                if holders is None:
                    holders = set(holder_users[item])
                both = len(holders.intersection(holder_users[partner]))
                if scored(partner, (item,), (both,))[0]:
                    return (user * span + position) * span + at
    raise AssertionError(f"item {item} has a scored pair no holder holds")
