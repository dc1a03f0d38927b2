"""Unit tests for per-vertex memory meters."""

import networkx as nx
import pytest

from repro.congest.memory import MemoryMeter
from repro.errors import MemoryAccountingError


class TestStore:
    def test_store_sets_current(self):
        meter = MemoryMeter()
        meter.store("a", 5)
        assert meter.current == 5

    def test_store_updates_high_water(self):
        meter = MemoryMeter()
        meter.store("a", 5)
        assert meter.high_water == 5

    def test_restore_replaces_not_adds(self):
        meter = MemoryMeter()
        meter.store("a", 5)
        meter.store("a", 3)
        assert meter.current == 3

    def test_high_water_survives_shrink(self):
        meter = MemoryMeter()
        meter.store("a", 5)
        meter.store("a", 1)
        assert meter.high_water == 5

    def test_negative_store_raises(self):
        meter = MemoryMeter()
        with pytest.raises(MemoryAccountingError):
            meter.store("a", -1)

    def test_zero_store_allowed(self):
        meter = MemoryMeter()
        meter.store("a", 0)
        assert meter.current == 0


class TestAdd:
    def test_add_accumulates(self):
        meter = MemoryMeter()
        meter.add("list", 2)
        meter.add("list", 3)
        assert meter.current == 5

    def test_add_to_fresh_key(self):
        meter = MemoryMeter()
        meter.add("x", 4)
        assert meter.current == 4


class TestFree:
    def test_free_releases(self):
        meter = MemoryMeter()
        meter.store("a", 5)
        meter.free("a")
        assert meter.current == 0

    def test_free_absent_key_is_noop(self):
        meter = MemoryMeter()
        meter.free("ghost")
        assert meter.current == 0

    def test_free_keeps_high_water(self):
        meter = MemoryMeter()
        meter.store("a", 7)
        meter.free("a")
        assert meter.high_water == 7

    def test_free_prefix(self):
        meter = MemoryMeter()
        meter.store("stage1/a", 2)
        meter.store("stage1/b", 3)
        meter.store("stage2/c", 4)
        meter.free_prefix("stage1/")
        assert meter.current == 4

    def test_high_water_tracks_simultaneous_peak(self):
        meter = MemoryMeter()
        meter.store("a", 3)
        meter.store("b", 4)  # peak 7
        meter.free("a")
        meter.store("c", 2)  # now 6
        assert meter.high_water == 7
        assert meter.current == 6


class TestInspection:
    def test_items_lists_contents(self):
        meter = MemoryMeter()
        meter.store("a", 1)
        meter.store("b", 2)
        assert dict(meter.items()) == {"a": 1, "b": 2}

    def test_high_water_excluding_prefix(self):
        meter = MemoryMeter()
        meter.store("relay/buf", 10)
        meter.store("algo/x", 3)
        assert meter.high_water_excluding("relay/") == 3


class TestSnapshot:
    def test_groups_by_first_slash_segment(self):
        meter = MemoryMeter()
        meter.store("tree/ancestors", 3)
        meter.store("tree/labels", 2)
        meter.store("relay/buf", 5)
        assert meter.snapshot() == {"tree/": 5, "relay/": 5}

    def test_slashless_key_groups_under_itself(self):
        meter = MemoryMeter()
        meter.store("scratch", 4)
        assert meter.snapshot() == {"scratch": 4}

    def test_prefix_returns_exact_keys(self):
        meter = MemoryMeter()
        meter.store("tree/ancestors", 3)
        meter.store("tree/labels", 2)
        meter.store("relay/buf", 5)
        assert meter.snapshot("tree/") == {
            "tree/ancestors": 3, "tree/labels": 2}

    def test_prefix_without_matches_is_empty(self):
        meter = MemoryMeter()
        meter.store("a", 1)
        assert meter.snapshot("missing/") == {}

    def test_snapshot_tracks_frees(self):
        meter = MemoryMeter()
        meter.store("tree/a", 3)
        meter.free("tree/a")
        assert meter.snapshot() == {}

    def test_snapshot_sums_match_current(self):
        meter = MemoryMeter()
        meter.store("tree/a", 3)
        meter.store("hopset/b", 7)
        meter.store("loose", 2)
        assert sum(meter.snapshot().values()) == meter.current


class TestPrefixIndexTeardownCost:
    """The group index pins stage-teardown cost (docstring of
    :mod:`repro.congest.memory`): freeing a slash-qualified prefix scans
    only that group's live keys, regardless of how much else is stored."""

    def test_free_prefix_scans_only_its_group(self):
        meter = MemoryMeter()
        for i in range(500):
            meter.store(f"big/key-{i}", 1)
        for i in range(3):
            meter.store(f"t/key-{i}", 1)
        meter.free_prefix("t/")
        assert meter.last_prefix_scan == 3
        assert meter.current == 500

    def test_free_prefix_absent_group_scans_nothing(self):
        meter = MemoryMeter()
        for i in range(100):
            meter.store(f"big/key-{i}", 1)
        meter.free_prefix("gone/")
        assert meter.last_prefix_scan == 0
        assert meter.current == 100

    def test_partial_prefix_within_group(self):
        meter = MemoryMeter()
        meter.store("hopset/scratch-1", 2)
        meter.store("hopset/scratch-2", 2)
        meter.store("hopset/keep", 5)
        meter.free_prefix("hopset/scratch-")
        assert meter.last_prefix_scan == 3  # the group, not all live keys
        assert meter.current == 5
        assert meter.snapshot("hopset/") == {"hopset/keep": 5}

    def test_slashless_prefix_falls_back_to_full_scan(self):
        meter = MemoryMeter()
        meter.store("alpha", 1)
        meter.store("beta", 1)
        meter.store("tree/a", 1)
        meter.free_prefix("al")
        assert meter.last_prefix_scan == 3
        assert meter.current == 2

    def test_scan_cost_does_not_scale_with_other_groups(self):
        meter = MemoryMeter()
        for g in range(50):
            for i in range(10):
                meter.store(f"group{g}/k{i}", 1)
        meter.store("tiny/only", 1)
        meter.free_prefix("tiny/")
        assert meter.last_prefix_scan == 1
        assert meter.current == 500

    def test_group_index_survives_free_and_restore(self):
        meter = MemoryMeter()
        meter.store("t/a", 1)
        meter.free("t/a")
        meter.store("t/b", 2)
        meter.free_prefix("t/")
        assert meter.last_prefix_scan == 1
        assert meter.current == 0


class TestExactFreeResetsPin:
    """Regression: an exact-key :meth:`MemoryMeter.free` resolves through
    the item index without scanning any keys, so it resets
    ``last_prefix_scan`` to 0.  Bulk exact-key teardowns (``free_key``
    issued after a round closes) used to leave the pin stale at whatever
    an *earlier* ``free_prefix`` had scanned."""

    def test_free_resets_stale_pin(self):
        meter = MemoryMeter()
        for i in range(7):
            meter.store(f"t/key-{i}", 1)
        meter.free_prefix("t/")
        assert meter.last_prefix_scan == 7  # the stale value to clear
        meter.store("relay/broadcast", 3)
        meter.free("relay/broadcast")
        assert meter.last_prefix_scan == 0
        assert meter.current == 0

    def test_free_of_absent_key_also_resets(self):
        meter = MemoryMeter()
        meter.store("t/a", 1)
        meter.free_prefix("t/")
        assert meter.last_prefix_scan == 1
        meter.free("ghost")
        assert meter.last_prefix_scan == 0

    def test_free_prefix_pin_not_clobbered_by_its_own_frees(self):
        meter = MemoryMeter()
        meter.store("t/a", 1)
        meter.store("t/b", 1)
        meter.free_prefix("t/")
        # The internal per-key frees must not reset the count the call
        # just recorded.
        assert meter.last_prefix_scan == 2


class TestNetworkBulkFrees:
    """Engine-parametrized: meter state after network-level bulk frees is
    identical across reference and fastpath."""

    def test_free_key_resets_prefix_pin_at_every_vertex(self, engine):
        net = engine(nx.path_graph(4))
        for v in net.nodes():
            net.mem(v).store("tree/a", 2)
        net.free_all("tree/")  # prefix teardown pins a scan count of 1
        assert all(net.mem(v).last_prefix_scan == 1 for v in net.nodes())
        net.store_all("relay/broadcast", 3)
        net.free_key("relay/broadcast")  # bulk exact-key teardown
        assert all(net.mem(v).last_prefix_scan == 0 for v in net.nodes())
        assert all(net.mem(v).current == 0 for v in net.nodes())

    def test_high_water_after_round_teardown(self, engine):
        net = engine(nx.path_graph(3))
        net.store_all("relay/buf", 4)
        net.flood_all("flood")
        net.deliver_batch()
        net.free_key("relay/buf")
        assert net.max_memory() == 4
        assert all(net.mem(v).current == 0 for v in net.nodes())
