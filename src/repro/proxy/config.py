"""PProx proxy-service configuration.

One :class:`PProxConfig` captures everything Table 2 and Table 3 vary:
whether encryption and SGX are enabled, whether item identifiers are
pseudonymized (§6.3 allows disabling this), the shuffling buffer size
``S`` and its flush timer, and the number of proxy instances per
layer.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PProxConfig"]


@dataclass(frozen=True)
class PProxConfig:
    """Feature switches and sizing of a PProx deployment."""

    #: Enable the protocol's encryption (m1 disables it entirely).
    encryption: bool = True
    #: Pseudonymize item identifiers (m4 = encryption without this).
    item_pseudonymization: bool = True
    #: Run proxy data processing inside SGX enclaves (charges costs).
    sgx: bool = True
    #: Shuffling buffer size; 0 disables shuffling.
    shuffle_size: int = 10
    #: Flush a partially-filled shuffle buffer after this many seconds.
    shuffle_timeout: float = 0.25
    #: Number of proxy instances (enclaves/nodes) in the UA layer.
    ua_instances: int = 1
    #: Number of proxy instances (enclaves/nodes) in the IA layer.
    ia_instances: int = 1
    #: Load-balancing policy between layers: random | round-robin |
    #: least-pending (kube-proxy iptables default is random).
    balancing: str = "random"
    #: Extension beyond the paper: seal the entire client<->UA hop
    #: under pkUA and re-encrypt responses under a client-chosen key.
    #: Closes the wire-level variant of §6.1 case 2 found during this
    #: reproduction (an adversary holding skIA who also observes the
    #: client->UA wire can decrypt the item field / temporary key
    #: right next to the client's address).  Costs one extra symmetric
    #: pass on the UA response leg.
    harden_client_hop: bool = False

    def __post_init__(self) -> None:
        if self.shuffle_size < 0:
            raise ValueError("shuffle_size must be >= 0")
        if self.ua_instances < 1 or self.ia_instances < 1:
            raise ValueError("each proxy layer needs at least one instance")
        if self.item_pseudonymization and not self.encryption:
            # Pseudonymization is part of the encryption machinery; the
            # m1 configuration disables both.
            object.__setattr__(self, "item_pseudonymization", False)
        if self.harden_client_hop and not self.encryption:
            object.__setattr__(self, "harden_client_hop", False)

    @property
    def shuffling(self) -> bool:
        """True when request/response shuffling is active."""
        return self.shuffle_size > 0

    def describe(self) -> str:
        """One-line summary in the style of Table 2's columns."""
        enc = "*" if (self.encryption and not self.item_pseudonymization) else (
            "yes" if self.encryption else "no"
        )
        shuffle = str(self.shuffle_size) if self.shuffling else "off"
        return (
            f"enc={enc} sgx={'yes' if self.sgx else 'no'} S={shuffle}"
            f" UA={self.ua_instances} IA={self.ia_instances}"
        )
