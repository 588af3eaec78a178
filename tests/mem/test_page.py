"""Tests for Page heat tracking."""

import pytest

from repro.mem import Page


class TestPage:
    def test_initial_state(self):
        p = Page(0, node_id=3)
        assert p.heat == 0.0
        assert p.access_count == 0
        assert p.heat_at(1e9) == 0.0
        assert p.idle_ns(0.0) == float("inf")

    def test_touch_accumulates_heat(self):
        p = Page(0, 0)
        p.touch(0.0)
        p.touch(0.0)
        assert p.heat == pytest.approx(2.0)
        assert p.access_count == 2

    def test_heat_decays_with_half_life(self):
        p = Page(0, 0)
        p.touch(0.0)
        # One half-life later the stored heat halves, plus the new touch.
        p.touch(Page.HEAT_HALF_LIFE)
        assert p.heat == pytest.approx(1.5)

    def test_heat_at_does_not_mutate(self):
        p = Page(0, 0)
        p.touch(0.0)
        before = p.heat
        assert p.heat_at(Page.HEAT_HALF_LIFE) == pytest.approx(0.5)
        assert p.heat == before
        assert p.access_count == 1

    def test_write_counting(self):
        p = Page(0, 0)
        p.touch(0.0, is_write=True)
        p.touch(1.0, is_write=False)
        assert p.write_count == 1
        assert p.access_count == 2

    def test_hot_vs_cold_distinction(self):
        """A page touched repeatedly stays hotter than one touched once —
        the property every tiering daemon relies on."""
        hot, cold = Page(0, 0), Page(1, 0)
        for i in range(10):
            hot.touch(i * 1e6)
        cold.touch(0.0)
        now = 10e6
        assert hot.heat_at(now) > cold.heat_at(now) * 5

    def test_idle_ns(self):
        p = Page(0, 0)
        p.touch(100.0)
        assert p.idle_ns(600.0) == 500.0


class TestTouchMany:
    @staticmethod
    def _state(page):
        return (page.heat, page.last_access_ns, page.access_count, page.write_count)

    @pytest.mark.parametrize("count", [1, 2, 3, 17, 250])
    @pytest.mark.parametrize("elapsed", [0.0, 1.0, 3.7e6, 1e9])
    def test_equals_repeated_touches(self, count, elapsed):
        grouped, looped = Page(0, 0), Page(1, 0)
        for page in (grouped, looped):
            for i in range(5):
                page.touch(i * 1.3e6, is_write=i % 2 == 0)
        now = 4 * 1.3e6 + elapsed
        writes = count // 3
        grouped.touch_many(now, count, writes)
        for i in range(count):
            looped.touch(now, is_write=i < writes)
        assert self._state(grouped) == self._state(looped)

    def test_first_touch_of_a_fresh_page(self):
        grouped, looped = Page(0, 0), Page(1, 0)
        grouped.touch_many(5.0, 4, 4)
        for _ in range(4):
            looped.touch(5.0, is_write=True)
        assert self._state(grouped) == self._state(looped)

    def test_adds_one_per_touch(self):
        # Two +1.0 adds round differently from one +2.0 add.
        heat = 0.02544078739100653
        assert heat + 1.0 + 1.0 != heat + 2.0
        page = Page(0, 0)
        page.heat, page.last_access_ns = heat, 10.0
        page.touch_many(10.0, 2)
        assert page.heat == 2.0254407873910063
