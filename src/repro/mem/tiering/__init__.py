"""Kernel tiering daemons: NUMA balancing, hot-page selection (RPRL), TPP."""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "MigrationRound": ".base",
    "TieringDaemon": ".base",
    "TieringStats": ".base",
    "HotPageSelectionDaemon": ".hot_page",
    "NumaBalancingDaemon": ".numa_balancing",
    "TppDaemon": ".tpp",
})
