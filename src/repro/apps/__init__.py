"""Application studies: KV store (§4.1/§4.3), Spark (§4.2), LLM (§5)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "kvstore": ".kvstore",
    "llm": ".llm",
    "spark": ".spark",
    "ReplayResult": ".replay",
    "TraceReplayer": ".replay",
})
