"""Related-work comparison points (paper §9).

A from-scratch Paillier cryptosystem and the homomorphically-encrypted
Slope One recommender of Basu et al. — the encrypted-processing class
of solutions whose multi-second latencies motivate PProx's proxying
approach.
"""

from repro.related.encrypted_slope_one import EncryptedSlopeOne
from repro.related.paillier import (
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_paillier_keypair,
)

__all__ = [
    "EncryptedSlopeOne",
    "PaillierPublicKey",
    "PaillierPrivateKey",
    "generate_paillier_keypair",
]
