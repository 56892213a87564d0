"""The LRS-side kernels as they stood before they were made cheap.

References tests (and ``benchmarks/run_lrs_bench.py``) compare
:meth:`repro.lrs.cco.CcoTrainer.train`,
:meth:`repro.lrs.cco.CcoModel.recommend` and
:class:`repro.workload.movielens.SyntheticMovieLens` against, not
product code: item pairs counted in two nested Python loops with one
``llr_score`` call per co-occurring pair, a ranking that tests history
membership once per posting and sorts every scored candidate to return
*n*, and a rating draw that hands ``rng.choices`` the raw weights so it
rebuilds the cumulative list over the whole catalogue per draw.  Slow
and obviously right; the bodies are the seed's, only the names and the
``self`` they read their parameters from changed.  Nothing here calls
into the product's kernels: ``llr_score`` and its ``_entropy`` are the
seed's own bodies, kept here (the trainer no longer has them), and the
posting lists are built below from ``model.indicators``, once per
model.  The seed's (name, weight) lists become the model's one shape -
per item a tuple of names and an ``array('d')`` of weights - only
through ``packed_indicators``, which hand-made models in the tests use
too.  The product must return the same values **in the same order** —
dict key order and list order included — and each weight bit for bit
(``model_in_order`` compares ``float.hex``).
"""

from __future__ import annotations

import math
import random
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.lrs.cco import CcoModel, CcoTrainer
from repro.workload.movielens import PAPER_SLICE

__all__ = [
    "llr_score",
    "packed_indicators",
    "reference_train",
    "reference_recommend",
    "ReferenceMovieLens",
    "model_in_order",
    "trace_in_order",
]


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


def packed_indicators(
    indicators: Dict[str, Sequence[Tuple[str, float]]]
) -> Dict[str, Tuple[Tuple[str, ...], array]]:
    """item -> [(indicator, weight)] as ``CcoModel.indicators`` holds it:
    item -> (names, weights), a tuple and an ``array('d')`` in list
    order, keys in the same order."""
    return {
        item: (tuple(name for name, _ in weighted), array("d", [weight for _, weight in weighted]))
        for item, weighted in indicators.items()
    }


def model_in_order(model: CcoModel) -> tuple:
    """A model's content with dict key order made comparable by ``==``,
    and each weight by its bits: ``==`` holds ``-0.0`` equal to ``0.0``.
    Names and weights are listed apart, so neither can outrun the other."""
    return (
        [
            (item, list(names), [weight.hex() for weight in weights])
            for item, (names, weights) in model.indicators.items()
        ],
        list(model.popularity.items()),
        model.trained_on_events,
    )


def trace_in_order(trace) -> tuple:
    """A generated trace's content, ``genres`` key order included."""
    return trace.events, list(trace.genres.items()), trace.users, trace.items


def reference_train(
    trainer: CcoTrainer, interactions: Iterable[Tuple[str, str]]
) -> CcoModel:
    """What ``trainer.train(interactions)`` must return, exactly."""
    histories: Dict[str, List[str]] = defaultdict(list)
    seen: set = set()
    event_count = 0
    for user, item in interactions:
        event_count += 1
        if (user, item) in seen:
            continue
        seen.add((user, item))
        history = histories[user]
        if len(history) < trainer.max_history:
            history.append(item)

    item_counts: Counter = Counter()
    pair_counts: Counter = Counter()
    for history in histories.values():
        for item in history:
            item_counts[item] += 1
        unique = sorted(set(history))
        for index, first in enumerate(unique):
            for second in unique[index + 1:]:
                pair_counts[(first, second)] += 1

    total_users = len(histories)
    indicators: Dict[str, List[Tuple[str, float]]] = defaultdict(list)
    for (first, second), both in pair_counts.items():
        k11 = both
        k12 = item_counts[first] - both
        k21 = item_counts[second] - both
        k22 = total_users - k11 - k12 - k21
        score = llr_score(k11, k12, k21, max(k22, 0))
        if score < trainer.llr_threshold:
            continue
        indicators[first].append((second, score))
        indicators[second].append((first, score))

    trimmed: Dict[str, List[Tuple[str, float]]] = {}
    for item, weighted in indicators.items():
        weighted.sort(key=lambda pair: (-pair[1], pair[0]))
        trimmed[item] = weighted[: trainer.max_indicators]

    return CcoModel(
        indicators=packed_indicators(trimmed),
        popularity=dict(item_counts),
        trained_on_events=event_count,
    )


def _reverse_index(model: CcoModel) -> Dict[str, List[Tuple[str, float]]]:
    """indicator -> [(item, weight)], the seed's reverse index; kept on
    the model instance under a name the product does not know."""
    reverse = vars(model).get("_oracle_reverse")
    if reverse is None:
        reverse = model._oracle_reverse = defaultdict(list)
        for item, weighted in model.indicators.items():
            for indicator, weight in zip(*weighted):
                reverse[indicator].append((item, weight))
    return reverse


def reference_recommend(
    model: CcoModel,
    history: Sequence[str],
    n: int = 20,
    exclude_history: bool = True,
) -> List[str]:
    """What ``model.recommend(history, n, exclude_history)`` must return."""
    history_set = set(history)
    reverse = _reverse_index(model)
    scores: Dict[str, float] = defaultdict(float)
    for indicator in dict.fromkeys(history):
        for item, weight in reverse.get(indicator, ()):
            if exclude_history and item in history_set:
                continue
            scores[item] += weight
    if not scores:
        ranked = sorted(
            (i for i in model.popularity if not (exclude_history and i in history_set)),
            key=lambda i: (-model.popularity[i], i),
        )
        return ranked[:n]
    ranked = sorted(
        scores,
        key=lambda i: (-scores[i], -model.popularity.get(i, 0), i),
    )
    return ranked[:n]


@dataclass
class ReferenceMovieLens:
    """The seed's generator: one ``weights=`` draw per rating."""

    seed: int = 2014
    scale: float = 0.01
    zipf_exponent: float = 1.05
    genre_count: int = 12
    genre_affinity: float = 0.85
    users: List[str] = field(default_factory=list, repr=False)
    items: List[str] = field(default_factory=list, repr=False)
    events: List[Tuple[str, str]] = field(default_factory=list, repr=False)
    genres: Dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        rng = random.Random(self.seed)
        user_count = max(int(PAPER_SLICE["users"] * self.scale), 8)
        item_count = max(int(PAPER_SLICE["movies"] * self.scale), 16)
        rating_count = max(int(PAPER_SLICE["ratings"] * self.scale), 64)
        self.users = [f"user-{index}" for index in range(user_count)]
        self.items = [f"movie-{index}" for index in range(item_count)]

        self.genres = {
            item: index % self.genre_count for index, item in enumerate(self.items)
        }
        by_genre: Dict[int, List[str]] = {}
        genre_weights: Dict[int, List[float]] = {}
        for index, item in enumerate(self.items):
            genre = self.genres[item]
            by_genre.setdefault(genre, []).append(item)
            genre_weights.setdefault(genre, []).append(
                1.0 / (index + 1) ** self.zipf_exponent
            )
        weights = [1.0 / (rank + 1) ** self.zipf_exponent for rank in range(item_count)]

        raw_activity = [rng.lognormvariate(0.0, 1.0) for _ in self.users]
        activity_scale = rating_count / sum(raw_activity)
        events: List[Tuple[str, str]] = []
        for user, activity in zip(self.users, raw_activity):
            count = max(1, round(activity * activity_scale))
            preferred = rng.sample(range(self.genre_count), k=min(2, self.genre_count))
            chosen: List[str] = []
            for _ in range(count):
                if rng.random() < self.genre_affinity:
                    genre = rng.choice(preferred)
                    chosen.append(
                        rng.choices(by_genre[genre], weights=genre_weights[genre], k=1)[0]
                    )
                else:
                    chosen.append(rng.choices(self.items, weights=weights, k=1)[0])
            seen = set()
            for item in chosen:
                if item in seen:
                    continue
                seen.add(item)
                events.append((user, item))
        rng.shuffle(events)
        self.events = events

    def query_users(self, count: int, rng: random.Random) -> List[str]:
        """The seed's get-phase sample: users weighted by activity."""
        histories: Dict[str, List[str]] = {}
        for user, item in self.events:
            histories.setdefault(user, []).append(item)
        users = list(histories)
        weights = [len(histories[user]) for user in users]
        return rng.choices(users, weights=weights, k=count)
