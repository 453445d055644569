"""Multi-node cluster simulator with a sharded object-cache tier.

The paper argues fleet economics — "even small improvements in
performance or utilization will translate into immense cost savings" —
and this subsystem is where the repo asks fleet-scale questions: N
per-node server models (mixing accelerated and software-only boxes)
behind a pluggable load balancer, shielded by a consistent-hashed
object cache, under deterministic invalidation storms.

* :mod:`repro.fleet.topology`   — node specs and fleet shapes
* :mod:`repro.fleet.balancer`   — round-robin / least-outstanding / p2c
* :mod:`repro.fleet.cache_tier` — consistent hashing, LRU, TTL, storms
* :mod:`repro.fleet.simulator`  — the event-driven composition
* :mod:`repro.fleet.overload`   — flash crowds, retry storms, recovery
* :mod:`repro.fleet.report`     — fleet-level metrics
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "balancer": (
        "BALANCERS", "BalancerPolicy", "LeastOutstanding", "PowerOfTwoChoices",
        "RoundRobin", "make_balancer",
    ),
    "cache_tier": (
        "CacheShard", "CacheTierConfig", "ObjectCacheTier", "ShardRing",
        "stable_hash64",
    ),
    "overload": (
        "OverloadConfig", "OverloadReport", "OverloadSimulator",
        "defended_config", "headline_scenarios", "min_nodes_to_survive",
        "overload_topology", "run_overload", "run_overload_matrix",
        "undefended_config",
    ),
    "report": ("FleetReport", "NodeUtilization"),
    "simulator": (
        "FleetConfig", "FleetSimulator", "fleet_slo_capacity",
        "min_nodes_for_slo", "run_fleet", "run_fleet_matrix",
    ),
    "topology": (
        "FleetTopology", "NodeSpec", "homogeneous_fleet", "mixed_fleet",
    ),
})
