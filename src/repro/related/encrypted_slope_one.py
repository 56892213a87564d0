"""Slope One collaborative filtering over Paillier-encrypted ratings.

Reproduces the encrypted-processing comparison point of the paper's
§9: Basu et al. [12, 13] ran "an homomorphically-encrypted variant of
the Slope One collaborative filtering algorithm [53]" on public
clouds and measured get latencies "in the order of several seconds" —
the class of solutions PProx's proxying approach outperforms by
orders of magnitude.

Slope One predicts a user's rating of item *j* as the average of
``r(u, i) + dev(j, i)`` over the items *i* the user rated, where
``dev(j, i)`` is the mean rating difference between the two items
across users.  In the privacy-preserving deployment:

* each user submits Paillier-encrypted ratings;
* the cloud accumulates, **without decrypting anything**, the
  per-pair ciphertext sums needed for the deviation matrix
  (homomorphic additions);
* a prediction for (user, item) is computed homomorphically from the
  encrypted deviations and the user's encrypted ratings, and only the
  user (holding the private key) decrypts the final score.

Every arithmetic step is a real modular operation on ~2048-bit
ciphertexts — the source of the multi-second latencies the paper
cites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.related.paillier import PaillierPrivateKey, PaillierPublicKey

__all__ = ["EncryptedSlopeOne"]

#: Fixed-point scaling for ratings (two decimal places).
SCALE = 100


@dataclass
class EncryptedSlopeOne:
    """Slope One where the cloud sees only Paillier ciphertexts.

    The cloud stores encrypted per-pair difference sums and the
    (cleartext) co-rating counts — counts are not sensitive under the
    scheme of Basu et al.  Predictions use the weighted Slope One
    formula, computed homomorphically.
    """

    public: PaillierPublicKey
    #: (j, i) -> encrypted sum of SCALE*(r_j - r_i)
    encrypted_dev_sums: Dict[Tuple[str, str], int] = field(default_factory=dict)
    pair_counts: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: user -> item -> encrypted SCALE*rating
    encrypted_ratings: Dict[str, Dict[str, int]] = field(default_factory=dict)
    homomorphic_ops: int = 0

    @staticmethod
    def client_encrypt_ratings(
        public: PaillierPublicKey, ratings: Dict[str, float]
    ) -> Dict[str, Tuple[int, int]]:
        """User-side encryption: each rating as ``(E(r), E(-r))``.

        The negated ciphertext lets the cloud form rating differences
        homomorphically without ever inverting (or seeing) a rating.
        """
        return {
            item: (
                public.encrypt(round(value * SCALE)),
                public.encrypt(-round(value * SCALE)),
            )
            for item, value in ratings.items()
        }

    def submit_user_ratings(
        self, user: str, encrypted: Dict[str, Tuple[int, int]]
    ) -> None:
        """The cloud ingests a user's encrypted ratings and updates the
        encrypted deviation structure — no plaintext ever involved."""
        self.encrypted_ratings[user] = {
            item: positive for item, (positive, _) in encrypted.items()
        }
        items = list(encrypted)
        for j in items:
            positive_j, _ = encrypted[j]
            for i in items:
                if i == j:
                    continue
                _, negative_i = encrypted[i]
                # E(r_j) (+) E(-r_i) = E(r_j - r_i)
                diff = self.public.add(positive_j, negative_i)
                self.homomorphic_ops += 1
                pair = (j, i)
                if pair in self.encrypted_dev_sums:
                    self.encrypted_dev_sums[pair] = self.public.add(
                        self.encrypted_dev_sums[pair], diff
                    )
                    self.homomorphic_ops += 1
                else:
                    self.encrypted_dev_sums[pair] = diff
                self.pair_counts[pair] = self.pair_counts.get(pair, 0) + 1

    def predict_encrypted(self, user: str, item: str) -> Optional[Tuple[int, int]]:
        """Compute E(SCALE * numerator) and the plaintext denominator.

        The weighted Slope One numerator is
        ``sum_i (dev_sum(item, i) + count * r(u, i))``; everything
        happens on ciphertexts.  The querying user decrypts and
        divides to obtain the prediction.
        """
        ratings = self.encrypted_ratings.get(user)
        if not ratings:
            return None
        accumulator: Optional[int] = None
        denominator = 0
        for rated_item, encrypted_rating in ratings.items():
            pair = (item, rated_item)
            if rated_item == item or pair not in self.encrypted_dev_sums:
                continue
            count = self.pair_counts[pair]
            term = self.public.add(
                self.encrypted_dev_sums[pair],
                self.public.mul_plain(encrypted_rating, count),
            )
            self.homomorphic_ops += 2
            accumulator = term if accumulator is None else self.public.add(accumulator, term)
            self.homomorphic_ops += 1
            denominator += count
        if accumulator is None or denominator == 0:
            return None
        return accumulator, denominator

    @staticmethod
    def decrypt_prediction(
        private: PaillierPrivateKey, encrypted_numerator: int, denominator: int
    ) -> float:
        """User-side decryption of a prediction."""
        return private.decrypt(encrypted_numerator) / SCALE / denominator
