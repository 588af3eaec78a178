"""OS memory management: pages, mempolicies, numactl helpers, tiering daemons.

This layer reproduces the software side of the paper's §2.3: the N:M
tiered interleave policy, NUMA-balancing promotion, hot-page selection
with the promotion rate limit, and a TPP-style alternative — all
operating on page-granular address spaces over the hardware model.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "AddressSpace": ".address_space",
    "MemoryInventory": ".address_space",
    "Page": ".page",
    "BandwidthRegulator": ".qos",
    "LatencyGuard": ".qos",
    "BindPolicy": ".policy",
    "InterleavePolicy": ".policy",
    "MemPolicy": ".policy",
    "WeightedInterleavePolicy": ".policy",
    "HotPageSelectionDaemon": ".tiering",
    "MigrationRound": ".tiering",
    "NumaBalancingDaemon": ".tiering",
    "TieringDaemon": ".tiering",
    "TieringStats": ".tiering",
    "TppDaemon": ".tiering",
    "numactl": ".numactl",
})
