"""Hardware model: devices, interconnects, topology, calibrated latency/bandwidth.

The model is calibrated to the ASIC CXL measurements published in the
paper (see :mod:`repro.hw.calibration`); everything downstream — kernel
tiering policies, application simulations, the cost model — consumes the
surfaces defined here.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "PeakBandwidthCurve": ".bandwidth",
    "write_fraction_of_mix": ".bandwidth",
    "ANCHORS": ".calibration",
    "PaperAnchors": ".calibration",
    "path_bandwidth_curve": ".calibration",
    "path_latency_model": ".calibration",
    "MemoryNode": ".device",
    "NodeKind": ".device",
    "SharedResource": ".device",
    "SsdDevice": ".device",
    "IdleLatency": ".latency",
    "LoadedLatencyModel": ".latency",
    "QueueingModel": ".latency",
    "MemoryPath": ".paths",
    "PathKind": ".paths",
    "CxlSwitch": ".pooling",
    "MemoryPool": ".pooling",
    "PoolSlice": ".pooling",
    "a1000_card": ".presets",
    "paper_baseline_platform": ".presets",
    "paper_baseline_server_spec": ".presets",
    "paper_cxl_platform": ".presets",
    "paper_cxl_server_spec": ".presets",
    "paper_testbed": ".presets",
    "sapphire_rapids_cpu": ".presets",
    "CpuSpec": ".spec",
    "CxlDeviceSpec": ".spec",
    "DimmSpec": ".spec",
    "NicSpec": ".spec",
    "ServerSpec": ".spec",
    "SsdSpec": ".spec",
    "Platform": ".topology",
    "build_platform": ".topology",
})
