"""CPU LLM inference serving: the paper's §5 application study."""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "BackendSpec": ".backend",
    "CpuBackend": ".backend",
    "KvCache": ".kvcache",
    "ModelSpec": ".model",
    "alpaca_7b": ".model",
    "LlmRouter": ".router",
    "ServingResult": ".router",
    "LLM_CONFIGS": ".serving",
    "LlmServingExperiment": ".serving",
    "ServingPoint": ".serving",
})
