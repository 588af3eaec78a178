"""Tests for MemoryInventory and AddressSpace."""

import pytest

from repro.errors import AllocationError, MigrationError
from repro.hw import paper_cxl_platform
from repro.mem import AddressSpace, BindPolicy, InterleavePolicy, MemoryInventory
from repro.units import GIB, PAGE_SIZE


@pytest.fixture
def platform():
    return paper_cxl_platform(snc_enabled=False)


@pytest.fixture
def inventory(platform):
    return MemoryInventory(platform)


class TestMemoryInventory:
    def test_capacities_match_platform(self, platform, inventory):
        for node_id, node in platform.nodes.items():
            assert inventory.capacity(node_id) == node.capacity_bytes
            assert inventory.used(node_id) == 0

    def test_capacity_override_caps_below_physical(self, platform):
        node = platform.dram_nodes(0)[0]
        inv = MemoryInventory(platform, capacity_override={node.node_id: GIB})
        assert inv.capacity(node.node_id) == GIB

    def test_override_cannot_exceed_physical(self, platform):
        node = platform.cxl_nodes()[0]
        inv = MemoryInventory(
            platform, capacity_override={node.node_id: node.capacity_bytes * 10}
        )
        assert inv.capacity(node.node_id) == node.capacity_bytes

    def test_reserve_release_roundtrip(self, inventory):
        inventory.reserve(0, GIB)
        assert inventory.used(0) == GIB
        assert inventory.utilization(0) > 0
        inventory.release(0, GIB)
        assert inventory.used(0) == 0

    def test_reserve_over_capacity_raises(self, inventory):
        with pytest.raises(AllocationError):
            inventory.reserve(0, inventory.capacity(0) + 1)

    def test_release_underflow_raises(self, inventory):
        with pytest.raises(AllocationError):
            inventory.release(0, 1)

    def test_negative_reserve_raises(self, inventory):
        with pytest.raises(AllocationError):
            inventory.reserve(0, -1)


class TestAddressSpace:
    def test_allocate_pages(self, inventory):
        space = AddressSpace(inventory)
        pages = space.allocate_pages(10, BindPolicy([0]))
        assert len(pages) == 10
        assert all(p.node_id == 0 for p in pages)
        assert space.total_bytes() == 10 * PAGE_SIZE
        assert inventory.used(0) == 10 * PAGE_SIZE

    def test_allocate_bytes_rounds_up(self, inventory):
        space = AddressSpace(inventory)
        pages = space.allocate_bytes(PAGE_SIZE + 1, BindPolicy([0]))
        assert len(pages) == 2

    def test_invalid_page_size(self, inventory):
        with pytest.raises(AllocationError):
            AddressSpace(inventory, page_size=0)

    def test_negative_count(self, inventory):
        space = AddressSpace(inventory)
        with pytest.raises(AllocationError):
            space.allocate_pages(-1, BindPolicy([0]))

    def test_failed_allocation_releases_its_pages(self, platform):
        cxl = platform.cxl_nodes()[0].node_id
        inv = MemoryInventory(platform, capacity_override={cxl: 3 * PAGE_SIZE})
        space = AddressSpace(inv)
        with pytest.raises(AllocationError):
            space.allocate_pages(5, BindPolicy([cxl]))  # the 4th page fails
        assert inv.used(cxl) == 0
        assert space.pages == []
        pages = space.allocate_pages(3, BindPolicy([cxl]))
        assert [p.page_id for p in pages] == [0, 1, 2]
        assert inv.used(cxl) == 3 * PAGE_SIZE

    def test_interleave_distribution(self, platform, inventory):
        space = AddressSpace(inventory)
        cxl = platform.cxl_nodes()[0].node_id
        space.allocate_pages(100, InterleavePolicy([0, cxl]))
        dist = space.node_distribution()
        assert dist[0] == dist[cxl] == 50 * PAGE_SIZE
        assert space.fraction_on([cxl]) == pytest.approx(0.5)

    def test_free_pages(self, inventory):
        space = AddressSpace(inventory)
        pages = space.allocate_pages(4, BindPolicy([0]))
        space.free_pages(pages[:2])
        assert len(space.pages) == 2
        assert inventory.used(0) == 2 * PAGE_SIZE

    def test_move_page(self, platform, inventory):
        space = AddressSpace(inventory)
        cxl = platform.cxl_nodes()[0].node_id
        (page,) = space.allocate_pages(1, BindPolicy([0]))
        space.move_page(page, cxl)
        assert page.node_id == cxl
        assert page.migrations == 1
        assert inventory.used(0) == 0
        assert inventory.used(cxl) == PAGE_SIZE

    def test_move_to_same_node_raises(self, inventory):
        space = AddressSpace(inventory)
        (page,) = space.allocate_pages(1, BindPolicy([0]))
        with pytest.raises(MigrationError):
            space.move_page(page, 0)

    def test_move_to_full_node_raises(self, platform):
        cxl = platform.cxl_nodes()[0].node_id
        inv = MemoryInventory(platform, capacity_override={cxl: PAGE_SIZE})
        space = AddressSpace(inv)
        space.allocate_pages(1, BindPolicy([cxl]))  # fill the CXL cap
        (page,) = space.allocate_pages(1, BindPolicy([0]))
        with pytest.raises(MigrationError):
            space.move_page(page, cxl)

    def test_pages_on(self, platform, inventory):
        space = AddressSpace(inventory)
        cxl = platform.cxl_nodes()[0].node_id
        space.allocate_pages(3, BindPolicy([0]))
        space.allocate_pages(2, BindPolicy([cxl]))
        assert len(space.pages_on(0)) == 3
        assert len(space.pages_on(cxl)) == 2

    def test_fraction_on_empty_space(self, inventory):
        assert AddressSpace(inventory).fraction_on([0]) == 0.0

    def test_shared_inventory_between_spaces(self, platform):
        inv = MemoryInventory(platform, capacity_override={0: 3 * PAGE_SIZE})
        a, b = AddressSpace(inv, name="a"), AddressSpace(inv, name="b")
        a.allocate_pages(2, BindPolicy([0]))
        b.allocate_pages(1, BindPolicy([0]))
        with pytest.raises(AllocationError):
            b.allocate_pages(1, BindPolicy([0]))
