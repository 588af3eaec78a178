"""repro — reproduction of "Exploring Performance and Cost Optimization
with ASIC-Based CXL Memory" (EuroSys '24).

The package provides, from the bottom up:

* :mod:`repro.sim` — seeded random streams, bandwidth arbitration,
  statistics;
* :mod:`repro.hw` — a hardware model calibrated to the paper's ASIC CXL
  measurements (Sapphire Rapids + AsteraLabs A1000);
* :mod:`repro.mem` — page-granular memory management: NUMA mempolicies
  (bind / interleave / weighted N:M) and kernel tiering daemons
  (NUMA balancing, hot-page selection with promotion rate limit, TPP);
* :mod:`repro.workloads` — MLC-style loaded-latency probes, YCSB,
  TPC-H query profiles, LLM serving traces;
* :mod:`repro.apps` — the paper's three application studies (KeyDB-like
  KV store, Spark-like shuffle engine, CPU LLM inference);
* :mod:`repro.core` — the paper's contributions: the Abstract Cost Model
  and the bandwidth-aware placement optimizer;
* :mod:`repro.analysis` — per-figure sweep specs, assemblers and rendering.

Every package resolves its exports on first access (:mod:`repro._lazy`),
so ``import repro`` loads no submodule and no numpy, and each command
loads only the modules its code path runs.

Quickstart::

    from repro import paper_cxl_platform

    platform = paper_cxl_platform()
    cxl = platform.cxl_nodes()[0]
    path = platform.path(initiator_socket=0, target_node=cxl.node_id)
    print(path.idle_latency_ns())          # ~250 ns, §3.2
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ANCHORS": ".hw",
    "PaperAnchors": ".hw",
    "MemoryPath": ".hw",
    "PathKind": ".hw",
    "Platform": ".hw",
    "ServerSpec": ".hw",
    "build_platform": ".hw",
    "paper_baseline_platform": ".hw",
    "paper_cxl_platform": ".hw",
    "paper_testbed": ".hw",
    "RngFactory": ".sim",
})
__all__.append("__version__")
