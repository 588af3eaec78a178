"""KeyDB-like key-value store: the paper's §4.1/§4.3 application study."""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "TABLE1_CONFIGS": ".experiment",
    "KeyDbExperiment": ".experiment",
    "build_keydb_experiment": ".experiment",
    "run_keydb_config": ".experiment",
    "run_keydb_cxl_only": ".experiment",
    "DesKeyDbServer": ".des_server",
    "FlashTier": ".flash",
    "KeyDbResult": ".result",
    "KeyDbServer": ".server",
    "KeyValueStore": ".store",
    "ServiceProfile": ".store",
})
