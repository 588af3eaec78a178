"""Workload generators: MLC probe, YCSB, TPC-H profiles, LLM traces."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "KeyChooser": ".distributions",
    "LatestChooser": ".distributions",
    "ScrambledZipfianChooser": ".distributions",
    "UniformChooser": ".distributions",
    "ZipfianChooser": ".distributions",
    "ChatRequest": ".llm_trace",
    "chat_trace": ".llm_trace",
    "PAPER_MIXES": ".mlc",
    "MlcCurve": ".mlc",
    "MlcPoint": ".mlc",
    "MlcProbe": ".mlc",
    "load_fractions": ".mlc",
    "PAPER_QUERY_NAMES": ".tpch",
    "QueryProfile": ".tpch",
    "QueryStage": ".tpch",
    "paper_queries": ".tpch",
    "PageTrace": ".trace",
    "graph_walk_trace": ".trace",
    "sequential_trace": ".trace",
    "strided_trace": ".trace",
    "uniform_trace": ".trace",
    "zipfian_trace": ".trace",
    "WORKLOADS": ".ycsb",
    "Operation": ".ycsb",
    "OpType": ".ycsb",
    "YcsbGenerator": ".ycsb",
    "YcsbSpec": ".ycsb",
})
