"""Experimental deployment configurations (Tables 2 and 3).

Each named configuration reproduces one row of the paper's tables:

* ``m1``-``m9`` — micro-benchmarks: PProx against the nginx stub,
  toggling encryption / SGX / shuffling and scaling the proxy layers
  (Table 2);
* ``b1``-``b4`` — macro baselines: Harness alone with 3-12 frontends
  plus 4 support nodes (Table 3, top);
* ``f1``-``f4`` — full system: PProx + Harness (Table 3, bottom).

Node accounting follows the paper's 27-node cluster: each proxy
instance, Harness frontend and support service occupies one 2-core
NUC, and one injector node is used per 500 RPS of target load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.proxy.config import PProxConfig

__all__ = [
    "MicroConfig",
    "MacroConfig",
    "MICRO_CONFIGS",
    "MACRO_BASELINES",
    "MACRO_FULL",
    "CLUSTER_NODE_BUDGET",
    "cluster_plan",
]

#: The paper's testbed size.
CLUSTER_NODE_BUDGET = 27

#: Support nodes behind every Harness deployment (3 ES + 1 Mongo/Spark).
HARNESS_SUPPORT_NODES = 4


@dataclass(frozen=True)
class MicroConfig:
    """One Table 2 row: PProx against the stub LRS."""

    name: str
    encryption: bool
    item_pseudonymization: bool
    sgx: bool
    shuffle_size: int
    ua_instances: int
    ia_instances: int
    #: Maximal RPS the paper reports before saturation.
    max_rps: int

    def pprox_config(self, shuffle_timeout: float = 0.25) -> PProxConfig:
        """The corresponding proxy-service configuration."""
        return PProxConfig(
            encryption=self.encryption,
            item_pseudonymization=self.item_pseudonymization,
            sgx=self.sgx,
            shuffle_size=self.shuffle_size,
            shuffle_timeout=shuffle_timeout,
            ua_instances=self.ua_instances,
            ia_instances=self.ia_instances,
        )


@dataclass(frozen=True)
class MacroConfig:
    """One Table 3 row: Harness alone (b*) or PProx + Harness (f*)."""

    name: str
    frontends: int
    ua_instances: int
    ia_instances: int
    shuffle_size: int
    max_rps: int

    @property
    def with_proxy(self) -> bool:
        """True for the full (f*) configurations."""
        return self.ua_instances > 0

    def pprox_config(self, shuffle_timeout: float = 0.25) -> Optional[PProxConfig]:
        """Proxy configuration, or None for baseline rows."""
        if not self.with_proxy:
            return None
        return PProxConfig(
            encryption=True,
            item_pseudonymization=True,
            sgx=True,
            shuffle_size=self.shuffle_size,
            shuffle_timeout=shuffle_timeout,
            ua_instances=self.ua_instances,
            ia_instances=self.ia_instances,
        )

    @property
    def lrs_nodes(self) -> int:
        """Nodes of the Harness deployment (frontends + support)."""
        return self.frontends + HARNESS_SUPPORT_NODES

    @property
    def proxy_overhead(self) -> float:
        """PProx's infrastructure cost relative to the bare LRS (§8.2)."""
        return (self.ua_instances + self.ia_instances) / self.lrs_nodes


MICRO_CONFIGS: Dict[str, MicroConfig] = {
    "m1": MicroConfig("m1", False, False, False, 0, 1, 1, 250),
    "m2": MicroConfig("m2", True, True, False, 0, 1, 1, 250),
    "m3": MicroConfig("m3", True, True, True, 0, 1, 1, 250),
    "m4": MicroConfig("m4", True, False, True, 0, 1, 1, 250),
    "m5": MicroConfig("m5", True, True, True, 5, 1, 1, 250),
    "m6": MicroConfig("m6", True, True, True, 10, 1, 1, 250),
    "m7": MicroConfig("m7", True, True, True, 10, 2, 2, 500),
    "m8": MicroConfig("m8", True, True, True, 10, 3, 3, 750),
    "m9": MicroConfig("m9", True, True, True, 10, 4, 4, 1000),
}

MACRO_BASELINES: Dict[str, MacroConfig] = {
    "b1": MacroConfig("b1", 3, 0, 0, 0, 250),
    "b2": MacroConfig("b2", 6, 0, 0, 0, 500),
    "b3": MacroConfig("b3", 9, 0, 0, 0, 750),
    "b4": MacroConfig("b4", 12, 0, 0, 0, 1000),
}

MACRO_FULL: Dict[str, MacroConfig] = {
    "f1": MacroConfig("f1", 3, 1, 1, 10, 250),
    "f2": MacroConfig("f2", 6, 2, 2, 10, 500),
    "f3": MacroConfig("f3", 9, 3, 3, 10, 750),
    "f4": MacroConfig("f4", 12, 4, 4, 10, 1000),
}


def cluster_plan(config_name: str) -> Tuple[List[str], int]:
    """Node placement for a named configuration.

    Returns the list of node role labels and the total count; raises
    if the plan exceeds the 27-node testbed.
    """
    roles: List[str] = []
    if config_name in MICRO_CONFIGS:
        config = MICRO_CONFIGS[config_name]
        roles += [f"ua-{i}" for i in range(config.ua_instances)]
        roles += [f"ia-{i}" for i in range(config.ia_instances)]
        roles += ["stub-lrs"]
        injectors = 2 if config.max_rps > 500 else 1
    elif config_name in MACRO_BASELINES or config_name in MACRO_FULL:
        config = (MACRO_BASELINES.get(config_name) or MACRO_FULL[config_name])
        roles += [f"ua-{i}" for i in range(config.ua_instances)]
        roles += [f"ia-{i}" for i in range(config.ia_instances)]
        roles += [f"harness-fe-{i}" for i in range(config.frontends)]
        roles += ["es-0", "es-1", "es-2", "mongo-spark"]
        injectors = 2 if config.max_rps > 500 else 1
    else:
        raise KeyError(f"unknown configuration {config_name!r}")
    roles += [f"injector-{i}" for i in range(injectors)]
    if len(roles) > CLUSTER_NODE_BUDGET:
        raise ValueError(
            f"configuration {config_name} needs {len(roles)} nodes,"
            f" exceeding the {CLUSTER_NODE_BUDGET}-node testbed"
        )
    return roles, len(roles)
