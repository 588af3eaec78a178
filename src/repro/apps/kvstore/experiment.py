"""Table 1 configurations and the KeyDB experiment driver (§4.1, §4.3).

Builds each of the paper's seven capacity-experiment configurations and
runs YCSB against it:

========================  =====================================================
``mmem``                  entire working set in main memory
``mmem-ssd-0.2``          20 % of the working set spilled to SSD (FLASH)
``mmem-ssd-0.4``          40 % spilled
``3:1`` / ``1:1`` / ``1:3``  MMEM:CXL tiered interleave (kernel N:M patch)
``hot-promote``           1:1 start, MMEM capped at half the dataset, hot-page
                          selection daemon promoting (§2.3 patches)
========================  =====================================================

Experiments run *scaled down*: the paper's 512 GB working set shrinks to
``record_count x value_size`` (default 128 MiB) with every capacity cap
scaled by the same factor, preserving all placement ratios; §4.1.2's
results depend only on those ratios and on the per-path latencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ...errors import ConfigurationError
from ...hw.presets import paper_cxl_platform
from ...hw.topology import Platform
from ...mem import numactl
from ...mem.address_space import AddressSpace, MemoryInventory
from ...mem.tiering.hot_page import HotPageSelectionDaemon
from ...sim.rng import DEFAULT_SEED, RngFactory
from ...units import KIB, PAGE_SIZE, gb_per_s
from ...workloads.ycsb import WORKLOADS, YcsbGenerator
from .flash import FlashTier
from .result import KeyDbResult
from .server import KeyDbServer
from .store import KeyValueStore, ServiceProfile

__all__ = [
    "TABLE1_CONFIGS",
    "KeyDbExperiment",
    "build_keydb_experiment",
    "default_warmup_ops",
    "fig8_warmup_ops",
    "run_keydb_config",
    "run_keydb_cxl_only",
]

#: The Table 1 configuration names, in the paper's order.
TABLE1_CONFIGS: Tuple[str, ...] = (
    "mmem",
    "mmem-ssd-0.2",
    "mmem-ssd-0.4",
    "3:1",
    "1:1",
    "1:3",
    "hot-promote",
)


@dataclass
class KeyDbExperiment:
    """One assembled configuration ready to run."""

    name: str
    platform: Platform
    server: KeyDbServer
    generator: YcsbGenerator

    def run(self, total_ops: int, warmup_ops: int = 0) -> KeyDbResult:
        """Run the workload and return throughput/latency results."""
        return self.server.run(self.generator, total_ops, warmup_ops=warmup_ops)


def default_warmup_ops(config: str, total_ops: int) -> int:
    """Operations a Fig. 5 cell discards before measuring.

    Hot-promote needs half the run for the daemon to converge; every
    other configuration warms up for a tenth.
    """
    return total_ops // 2 if config == "hot-promote" else total_ops // 10


def fig8_warmup_ops(total_ops: int) -> int:
    """Operations a Fig. 8 run discards before measuring: a tenth."""
    return total_ops // 10


def _build_store(
    config: str,
    platform: Platform,
    record_count: int,
    value_size: int,
    profile: ServiceProfile,
    rng_factory: RngFactory,
    page_size: int = PAGE_SIZE,
) -> Tuple[KeyValueStore, Optional[HotPageSelectionDaemon]]:
    dataset_bytes = record_count * value_size
    dram_ids = [n.node_id for n in platform.dram_nodes(0)]
    cxl_ids = [n.node_id for n in platform.cxl_nodes()]
    override: Dict[int, int] = {}
    flash: Optional[FlashTier] = None
    daemon: Optional[HotPageSelectionDaemon] = None

    if config == "hot-promote":
        # MMEM capped at half the dataset (§4.1.1): promotion must evict.
        override[dram_ids[0]] = dataset_bytes // 2
    inventory = MemoryInventory(platform, capacity_override=override or None)
    space = AddressSpace(inventory, page_size=page_size, name=f"keydb-{config}")

    if config == "mmem":
        policy = numactl.membind(platform, socket=0)
    elif config.startswith("mmem-ssd-"):
        spilled = float(config.rsplit("-", 1)[1])
        if not 0.0 < spilled < 1.0:
            raise ConfigurationError(f"bad spill fraction in {config!r}")
        policy = numactl.membind(platform, socket=0)
        resident = max(1, int(record_count * (1.0 - spilled)))
        flash = FlashTier(
            ssd=platform.ssds[0],
            resident_values=resident,
            value_size=value_size,
            rng=rng_factory.stream("flash"),
        )
    elif ":" in config:
        n, m = (int(x) for x in config.split(":"))
        policy = numactl.tier_interleave(platform, n, m, socket=None)
    elif config == "hot-promote":
        policy = numactl.hot_promote_initial(platform)
    else:
        raise ConfigurationError(
            f"unknown KeyDB config {config!r}; expected one of {TABLE1_CONFIGS}"
        )

    store = KeyValueStore(
        space,
        policy,
        record_count=record_count,
        value_size=value_size,
        profile=profile,
        flash=flash,
    )
    if config == "hot-promote":
        daemon = HotPageSelectionDaemon(
            space,
            dram_nodes=[dram_ids[0]],
            cxl_nodes=cxl_ids,
            scan_period_ns=20e6,  # scaled-down experiment: faster scans
            # A *binding* promotion rate limit is what makes the kernel's
            # auto-threshold settle on genuinely hot pages (§2.3); an
            # over-generous budget drives the threshold to its floor and
            # the daemon churns instead of converging.
            promote_rate_limit_bytes_per_s=gb_per_s(0.1),
            initial_threshold=4.0,
        )
    return store, daemon


def build_keydb_experiment(
    config: str,
    workload: str = "A",
    record_count: int = 131_072,
    value_size: int = KIB,
    seed: int = DEFAULT_SEED,
    threads: int = 7,
    page_size: int = PAGE_SIZE,
) -> KeyDbExperiment:
    """Assemble one Table 1 configuration (§4.1.1 methodology).

    SNC and THP are disabled, as in the paper (``page_size=4 KiB``); pass
    ``page_size=2 MiB`` to study the THP-enabled variant the paper rules
    out — placement and promotion then move 2 MiB at a time.
    """
    if workload not in WORKLOADS:
        raise ConfigurationError(f"unknown YCSB workload {workload!r}")
    platform = paper_cxl_platform(snc_enabled=False)
    rng_factory = RngFactory(seed)
    store, daemon = _build_store(
        config, platform, record_count, value_size,
        ServiceProfile.capacity(), rng_factory, page_size=page_size,
    )
    server = KeyDbServer(platform, store, threads=threads, socket=0, tiering=daemon)
    generator = YcsbGenerator(
        WORKLOADS[workload], record_count, rng_factory.stream(f"ycsb-{workload}")
    )
    return KeyDbExperiment(config, platform, server, generator)


def run_keydb_config(
    config: str,
    workload: str = "A",
    record_count: int = 131_072,
    total_ops: int = 200_000,
    warmup_ops: Optional[int] = None,
    seed: int = DEFAULT_SEED,
) -> KeyDbResult:
    """Build and run one Fig. 5 cell; returns the YCSB-style result."""
    if warmup_ops is None:
        warmup_ops = default_warmup_ops(config, total_ops)
    experiment = build_keydb_experiment(
        config, workload=workload, record_count=record_count, seed=seed
    )
    return experiment.run(total_ops, warmup_ops=warmup_ops)


def run_keydb_cxl_only(
    on_cxl: bool,
    record_count: int = 102_400,
    total_ops: int = 150_000,
    seed: int = DEFAULT_SEED,
) -> KeyDbResult:
    """The §4.3 spare-core experiment: YCSB-C bound entirely to CXL or MMEM.

    Uses the :meth:`~repro.apps.kvstore.store.ServiceProfile.vm` profile
    (100 GB dataset, read-only, Redis processing dominates) and
    ``numactl --membind`` to one tier, reproducing Fig. 8.
    """
    platform = paper_cxl_platform(snc_enabled=False)
    rng_factory = RngFactory(seed)
    inventory = MemoryInventory(platform)
    space = AddressSpace(inventory, name="keydb-vm")
    policy = numactl.membind(platform, cxl_only=on_cxl, socket=0)
    store = KeyValueStore(
        space, policy, record_count=record_count, profile=ServiceProfile.vm()
    )
    server = KeyDbServer(platform, store, threads=7, socket=0)
    generator = YcsbGenerator(
        WORKLOADS["C"], record_count, rng_factory.stream("ycsb-vm")
    )
    return server.run(generator, total_ops, warmup_ops=fig8_warmup_ops(total_ops))
