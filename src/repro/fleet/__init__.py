"""Self-healing sharded proxy fleet.

A fleet is a set of UA+IA shard pairs behind a consistent-hash
directory.  Routing is keyed on the per-attempt request nonce — never
a user identifier — so shard placement is unlinkable to users and
every retry automatically re-rolls its shard (which is also the
failover path).  A supervisor owns the shard lifecycle (provision →
live → splitting/merging → draining → retired) with the same
pause-never-abort discipline as key rotation: handoff barriers keep
epochs/keys provisioned before a ring flip and drain in-flight
batches on the old shard, so the anonymity floor ``S*I`` holds
through splits, merges and whole-failure-domain loss.  The drill that
proves it lives with the other scenarios, in
:mod:`repro.experiments.fleet`.
"""

from repro.fleet.placement import (
    domain_kill_plan,
    domain_node,
    placement_violations,
)
from repro.fleet.ring import (
    ROUTABLE_STATES,
    SHARD_STATES,
    HashRing,
    Shard,
    ShardDirectory,
    ring_point,
)
from repro.fleet.service import ShardedPProxService, build_fleet
from repro.fleet.supervisor import FleetSupervisor, ShardOperation

__all__ = [
    "SHARD_STATES",
    "ROUTABLE_STATES",
    "ring_point",
    "Shard",
    "HashRing",
    "ShardDirectory",
    "domain_node",
    "domain_kill_plan",
    "placement_violations",
    "ShardedPProxService",
    "build_fleet",
    "FleetSupervisor",
    "ShardOperation",
]
