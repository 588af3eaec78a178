"""Monotonicity properties of the loaded-latency models (hypothesis).

The MLC probe and the bandwidth curves it interpolates must obey the
physical orderings: more offered load never lowers achieved bandwidth
(or latency), and faster hardware — every bandwidth-curve knot scaled
up — never lowers capacity or raises latency.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import paper_cxl_platform
from repro.hw.bandwidth import PeakBandwidthCurve
from repro.workloads.mlc import MlcProbe

PLATFORM = paper_cxl_platform(snc_enabled=True)
CXL = PLATFORM.cxl_nodes()[0]
CXL_PATH = PLATFORM.path(0, CXL.node_id)
PROBE = MlcProbe(PLATFORM, threads=16)
# The CXL chain's capacity at a 3:1 mix: a lone flow's achieved rate
# under unbounded offered load.
CXL_CAPACITY_3_1 = PROBE.bandwidth_matrix(reads=3, writes=1)[(0, CXL.node_id)]

# Sorted offered-load fractions spanning idle through past-saturation.
_load_grids = st.lists(
    st.floats(min_value=0.02, max_value=1.15),
    min_size=3, max_size=8, unique=True,
).map(sorted)

# Interior bandwidth-curve knots; endpoints 0 and 1 are appended.
_knot_curves = st.lists(
    st.tuples(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=1e9, max_value=1e11),
    ),
    min_size=0, max_size=4,
    unique_by=lambda p: round(p[0], 3),
)


@st.composite
def _curves(draw):
    interior = sorted(draw(_knot_curves))
    lo = draw(st.floats(min_value=1e9, max_value=1e11))
    hi = draw(st.floats(min_value=1e9, max_value=1e11))
    return PeakBandwidthCurve.from_points(
        [(0.0, lo)] + interior + [(1.0, hi)]
    )


class TestLoadMonotonicity:
    @given(_load_grids, st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_curve_monotone_in_offered_load(self, loads, writes):
        curve = PROBE.loaded_latency_curve(
            CXL_PATH, reads=4, writes=writes, load_points=loads
        )
        pts = curve.points
        for prev, cur in zip(pts, pts[1:]):
            assert cur.achieved_bytes_per_s >= prev.achieved_bytes_per_s - 1e-6
            assert cur.latency_ns >= prev.latency_ns - 1e-9

    @given(_load_grids)
    @settings(max_examples=20, deadline=None)
    def test_achieved_never_exceeds_offered_or_capacity(self, loads):
        curve = PROBE.loaded_latency_curve(
            CXL_PATH, reads=3, writes=1, load_points=loads
        )
        for pt in curve.points:
            assert pt.achieved_bytes_per_s <= pt.offered_bytes_per_s + 1e-6
            assert pt.achieved_bytes_per_s <= CXL_CAPACITY_3_1 + 1e-6


class TestKnotMonotonicity:
    @given(
        _curves(),
        st.floats(min_value=1.0, max_value=4.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_capacity_monotone_in_knots(self, curve, scale, wf):
        """Scaling every knot up never lowers the interpolated peak."""
        scaled = curve.scaled(scale)
        assert scaled(wf) >= curve(wf) - 1e-6
        assert scaled(wf) == pytest.approx(
            curve(wf) * scale, rel=1e-12
        )

    @given(_curves(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_capacity_within_knot_envelope(self, curve, wf):
        """Linear interpolation stays inside the knot values' range."""
        bws = [bw for _, bw in curve.points]
        assert min(bws) - 1e-6 <= curve(wf) <= max(bws) + 1e-6
