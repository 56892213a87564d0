"""Synthetic MovieLens-like workload.

The paper uses the 2014-2015 slice of the MovieLens ml-20m dataset:
562,888 ratings of 17,141 movies by 7,288 users.  The evaluation uses
it purely as a request stream — feedback insertions followed by
recommendation queries — so what matters for the reproduction is the
*shape* of the interaction distribution, not the actual movie titles:

* item popularity follows a heavy-tailed (Zipf-like) law;
* per-user activity is heavy-tailed too (median ~30 ratings, a long
  tail of power users);
* tastes are clustered: items belong to genres and users concentrate
  on a couple of preferred genres — the latent structure collaborative
  filtering exploits (without it, popularity is the only signal and
  CCO cannot outperform the non-personalized baseline);
* the same identifier space is reused between the feedback and the
  query phases.

:class:`SyntheticMovieLens` generates such a trace deterministically
from a seed, at a configurable scale (``scale=1.0`` approximates the
paper's slice; tests use much smaller scales).  Cost is linear in the
ratings: each rating is one ``bisect`` of a cumulative-weight list
built, with its float total and last index, once per population -
what ``random.choices(..., cum_weights=)`` computes on every call
(CPython 3.10-3.13), with the same ``rng.random()`` draw, less its
per-call checks.  ``tests/oracles/cco_reference.py`` keeps the
quadratic ``weights=`` form whose RNG draws, hence events, this must
reproduce.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

__all__ = ["SyntheticMovieLens", "PAPER_SLICE"]

#: The aggregates of the paper's dataset slice (§8).
PAPER_SLICE = {"ratings": 562_888, "movies": 17_141, "users": 7_288}

#: Exponent of the Zipf law item popularity follows.
ZIPF_EXPONENT = 1.05
#: Number of genres items are spread over.
GENRE_COUNT = 12
#: Probability a user's interaction stays within their preferred
#: genres (the rest is global Zipf exploration).
GENRE_AFFINITY = 0.85


def _population(items: List[str], weights: List[float]) -> Tuple[List[str], List[float], float, int]:
    """What ``random.choices`` derives from ``cum_weights`` on every
    call: the running sum, its total as a float and the last index."""
    cumulative = list(accumulate(weights))
    return items, cumulative, cumulative[-1] + 0.0, len(items) - 1


@dataclass
class SyntheticMovieLens:
    """Deterministic Zipf-shaped interaction trace generator."""

    seed: int = 2014
    scale: float = 0.01
    users: List[str] = field(default_factory=list, repr=False)
    items: List[str] = field(default_factory=list, repr=False)
    events: List[Tuple[str, str]] = field(default_factory=list, repr=False)
    #: item -> genre index (public catalog metadata).
    genres: Dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        rng = random.Random(self.seed)
        user_count = max(int(PAPER_SLICE["users"] * self.scale), 8)
        item_count = max(int(PAPER_SLICE["movies"] * self.scale), 16)
        rating_count = max(int(PAPER_SLICE["ratings"] * self.scale), 64)
        self.users = [f"user-{index}" for index in range(user_count)]
        self.items = [f"movie-{index}" for index in range(item_count)]

        # Genres round-robin over the popularity ranking so every genre
        # gets a share of head and tail items.
        stride = GENRE_COUNT
        self.genres = {item: index % stride for index, item in enumerate(self.items)}
        # One running sum per population, not one per draw: ``choices``
        # bisects ``cum_weights`` as given but re-accumulates ``weights``.
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(item_count)]
        catalogue = _population(self.items, weights)
        by_genre = [
            _population(self.items[genre::stride], weights[genre::stride])
            for genre in range(stride)
        ]

        # Heavy-tailed per-user activity: lognormal, normalized to hit
        # the target rating count.
        raw_activity = [rng.lognormvariate(0.0, 1.0) for _ in self.users]
        activity_scale = rating_count / sum(raw_activity)
        events: List[Tuple[str, str]] = []
        draw = rng.random
        for user, activity in zip(self.users, raw_activity):
            count = max(1, round(activity * activity_scale))
            preferred = rng.sample(range(GENRE_COUNT), k=min(2, GENRE_COUNT))
            chosen: List[str] = []
            for _ in range(count):
                if draw() < GENRE_AFFINITY:
                    population, cumulative, total, hi = by_genre[rng.choice(preferred)]
                else:
                    population, cumulative, total, hi = catalogue
                # ``rng.choices(population, cum_weights=cumulative)[0]``.
                chosen.append(population[bisect(cumulative, draw() * total, 0, hi)])
            events.extend((user, item) for item in dict.fromkeys(chosen))
        rng.shuffle(events)
        self.events = events

    @property
    def rating_count(self) -> int:
        """Number of generated (deduplicated) interactions."""
        return len(self.events)

    def user_histories(self) -> Dict[str, List[str]]:
        """Per-user item lists in event order."""
        histories: Dict[str, List[str]] = {}
        for user, item in self.events:
            histories.setdefault(user, []).append(item)
        return histories

    def feedback_stream(self) -> Sequence[Tuple[str, str]]:
        """The (user, item) stream for the feedback injection phase."""
        return self.events

    def query_users(self, count: int, rng: random.Random) -> List[str]:
        """Sample *count* users (with replacement) for the get phase.

        Active users query more often — weight by activity, as real
        front-ends would.
        """
        histories = self.user_histories()
        users = list(histories)
        weights = [len(histories[user]) for user in users]
        return rng.choices(users, weights=weights, k=count)
