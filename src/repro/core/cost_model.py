"""The Abstract Cost Model (§6, Table 3).

Estimates TCO savings from CXL memory expansion using only values
obtainable from single-server microbenchmarks — no internal fleet data:

* ``P_s`` — throughput with (almost) the whole working set spilled to
  SSD; normalized to 1 and therefore implicit;
* ``R_d`` — relative throughput with the working set in main memory;
* ``R_c`` — relative throughput with the working set in CXL memory;
* ``C``  — MMEM:CXL capacity ratio of a CXL server;
* ``R_t`` — relative TCO of a CXL server vs a baseline server.

For a working set ``W`` the execution time of the baseline cluster is
split between the MMEM-resident segment and the SSD segment::

    T_baseline = N_b * D / R_d + (W - N_b * D)

and for the CXL cluster, between MMEM, CXL and SSD segments::

    T_cxl = N_c * D / R_d + N_c * D / (C * R_c) + (W - N_c * D - N_c * D / C)

Setting ``T_baseline == T_cxl`` yields the server-count ratio, and with
``R_t`` the TCO saving — the paper's worked example (``R_d=10, R_c=8,
C=2, R_t=1.1``) gives ``N_cxl / N_baseline = 67.29 %`` and a TCO saving
of ``25.98 %``, which this implementation reproduces exactly and the
tests assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..errors import CostModelError

__all__ = ["AbstractCostModel", "CostEstimate"]


@dataclass(frozen=True)
class CostEstimate:
    """The model's outputs for one parameter set."""

    server_ratio: float  # N_cxl / N_baseline
    tco_saving: float  # 1 - (N_cxl * R_t) / N_baseline
    servers_saved_fraction: float  # 1 - server_ratio

    def __post_init__(self) -> None:
        if self.server_ratio <= 0:
            raise CostModelError("server ratio must be positive")


@dataclass(frozen=True)
class AbstractCostModel:
    """§6's closed-form model.

    Parameters mirror Table 3.  ``d`` (the MMEM capacity per server) is
    accepted "for completeness only" — like the paper, no result depends
    on it, and :meth:`server_ratio` is independent of the working set
    ``W`` as long as both clusters do spill (the regime the model
    targets).
    """

    r_d: float
    r_c: float
    c: float
    r_t: float = 1.0
    d: Optional[float] = None

    def __post_init__(self) -> None:
        for name, value in (("R_d", self.r_d), ("R_c", self.r_c), ("C", self.c),
                            ("R_t", self.r_t), ("D", self.d)):
            if value is not None and not math.isfinite(value):
                raise CostModelError(f"{name} must be finite, got {value!r}")
        if self.r_d <= 1.0:
            raise CostModelError("R_d must exceed 1 (memory must beat SSD)")
        if self.r_c <= 1.0:
            raise CostModelError("R_c must exceed 1 (CXL must beat SSD)")
        if self.r_c > self.r_d:
            raise CostModelError("R_c cannot exceed R_d (CXL is no faster than DRAM)")
        if self.c <= 0:
            raise CostModelError("C (MMEM:CXL capacity ratio) must be positive")
        if self.r_t <= 0:
            raise CostModelError("R_t (relative TCO) must be positive")
        if self.d is not None and self.d <= 0:
            raise CostModelError("D must be positive when given")

    # -- execution-time segments (the §6 derivation, exposed for tests) ---

    def t_baseline(self, n_servers: float, w: float, d: float) -> float:
        """Execution time of the baseline cluster for working set ``w``."""
        self._check_time_args(n_servers, w, d, cxl=False)
        in_memory = n_servers * d
        return in_memory / self.r_d + (w - in_memory)

    def t_cxl(self, n_servers: float, w: float, d: float) -> float:
        """Execution time of the CXL cluster for working set ``w``."""
        self._check_time_args(n_servers, w, d, cxl=True)
        in_mmem = n_servers * d
        in_cxl = n_servers * d / self.c
        return (
            in_mmem / self.r_d
            + in_cxl / self.r_c
            + (w - in_mmem - in_cxl)
        )

    def _check_time_args(self, n: float, w: float, d: float, cxl: bool) -> None:
        if n <= 0 or w <= 0 or d <= 0:
            raise CostModelError("n_servers, w and d must be positive")
        capacity = n * d * (1 + 1 / self.c) if cxl else n * d
        if capacity > w:
            raise CostModelError(
                "the model assumes both clusters spill: working set must "
                "exceed cluster memory capacity"
            )

    # -- headline outputs --------------------------------------------------

    def server_ratio(self) -> float:
        """``N_cxl / N_baseline`` at equal performance (§6)."""
        numerator = self.c * self.r_c * (self.r_d - 1.0)
        denominator = (
            self.r_c * self.r_d * (self.c + 1.0) - self.c * self.r_c - self.r_d
        )
        if denominator <= 0:
            raise CostModelError(
                "degenerate parameters: CXL capacity adds no effective "
                "throughput (denominator <= 0)"
            )
        return numerator / denominator

    def tco_saving(self) -> float:
        """``1 - TCO_cxl / TCO_baseline`` (§6)."""
        return 1.0 - self.server_ratio() * self.r_t

    def servers_saved_fraction(self) -> float:
        """Fraction of servers removed at equal performance."""
        return 1.0 - self.server_ratio()

    def estimate(self) -> CostEstimate:
        """All outputs bundled."""
        ratio = self.server_ratio()
        return CostEstimate(
            server_ratio=ratio,
            tco_saving=1.0 - ratio * self.r_t,
            servers_saved_fraction=1.0 - ratio,
        )

    def breakeven_r_t(self) -> float:
        """The highest CXL-server cost premium with non-negative saving.

        A CXL server may cost up to ``1 / server_ratio`` times the
        baseline before the TCO saving goes negative — the extension
        hook §6 mentions for folding in controllers/switches/PCB costs.
        """
        return 1.0 / self.server_ratio()

    # -- construction from measurements ----------------------------------------

    @classmethod
    def from_measurements(
        cls, r_d: float, r_c: float, c: float, r_t: float = 1.0
    ) -> "AbstractCostModel":
        """Build from §6 microbenchmark outputs (P_s-normalized)."""
        return cls(r_d=r_d, r_c=r_c, c=c, r_t=r_t)

    @classmethod
    def paper_example(cls) -> "AbstractCostModel":
        """The §6 worked example: R_d=10, R_c=8, C=2, R_t=1.1."""
        return cls(r_d=10.0, r_c=8.0, c=2.0, r_t=1.1)
