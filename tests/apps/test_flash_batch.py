"""The batched FLASH tier paths equal their per-key references, exactly.

``FlashTier.access_many`` walks an epoch's keys in one call and draws
the churn variates after the walk as one block; ``register_values``
registers a key range in one call.  The references are the per-key
calls they replace: ``access`` (with ``register_value`` for the values
an insert brings into existence, at its place in the order) and
``register_value``.  Both arms start from identically built tiers and
must agree on the misses, the LRU order, every counter and the rng's
next variate.
"""

import numpy as np
import pytest

from repro.apps.kvstore import FlashTier, KeyValueStore
from repro.hw import paper_cxl_platform
from repro.hw.device import SsdDevice
from repro.hw.spec import SsdSpec
from repro.mem import AddressSpace, BindPolicy, MemoryInventory


def _flash(capacity, registered, cache_inefficiency=1.0, seed=3):
    flash = FlashTier(
        SsdDevice(SsdSpec()), resident_values=capacity, value_size=1024,
        cache_inefficiency=cache_inefficiency, rng=np.random.default_rng(seed),
    )
    for key in range(registered):
        flash.register_value(key)
    return flash


def _state(flash):
    return (
        list(flash._resident), flash.total_values, flash.faults, flash.hits,
        flash.evictions, flash._rng.random(),
    )


def _per_key(flash, keys, inserts):
    new = dict(inserts)
    misses = []
    for i, key in enumerate(keys):
        for value in new.get(i, ()):
            flash.register_value(value)
        misses.append(flash.access(key))
    return misses


def _stream(seed, registered, ops, low=0, insert_every=0, grow=1):
    """Seeded keys over ``[low, registered)``, with inserts every few ops.

    An insert registers ``grow`` new values and accesses the last, as a
    YCSB insert accesses the key it creates.
    """
    rng = np.random.default_rng(seed)
    keys, inserts, total = [], [], registered
    for i in range(ops):
        if insert_every and i % insert_every == insert_every - 1:
            inserts.append((i, range(total, total + grow)))
            total += grow
            keys.append(total - 1)
        else:
            keys.append(int(rng.integers(low, total)))
    return keys, inserts


SCENARIOS = {
    # Hot keys among the newest values: nearly every access is resident
    # and draws for churn.
    "resident-heavy": dict(capacity=90, registered=100, stream=dict(low=70)),
    # Uniform over a dataset 50x the cache: nearly every access faults.
    "miss-heavy": dict(capacity=10, registered=500, stream={}),
    "capacity-1": dict(capacity=1, registered=4, stream={}),
    "inserts": dict(capacity=50, registered=60, stream=dict(insert_every=7)),
    "multi-value-inserts": dict(
        capacity=50, registered=60, stream=dict(insert_every=5, grow=3)
    ),
    # The dataset starts inside the cache (no churn), and inserts push
    # it past capacity in the middle of the batch.
    "spill-starts-mid-batch": dict(
        capacity=40, registered=30, stream=dict(insert_every=4, grow=2)
    ),
    "no-churn": dict(capacity=30, registered=100, stream={}, cache_inefficiency=0.0),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_access_many_matches_per_key_access(name, seed):
    scenario = SCENARIOS[name]
    keys, inserts = _stream(seed, scenario["registered"], 400, **scenario["stream"])
    arms = [
        _flash(scenario["capacity"], scenario["registered"],
               scenario.get("cache_inefficiency", 1.0), seed)
        for _ in range(2)
    ]
    batched = arms[0].access_many(keys, inserts)
    reference = _per_key(arms[1], keys, inserts)
    assert batched.dtype == bool
    assert batched.tolist() == reference
    assert _state(arms[0]) == _state(arms[1])


def test_access_many_covers_hits_and_churn_misses():
    keys, inserts = _stream(5, 100, 400, low=70)
    flash = _flash(90, 100)
    misses = flash.access_many(keys, inserts)
    assert flash.hits > 0 and flash.faults > 0
    assert int(misses.sum()) == flash.faults


def test_empty_batch_draws_nothing():
    arms = [_flash(5, 10) for _ in range(2)]
    assert arms[0].access_many([], []).tolist() == []
    assert _state(arms[0]) == _state(arms[1])


@pytest.mark.parametrize(
    "capacity, registered, faulted, keys",
    [
        (10, 0, [], range(0, 4)),  # fits
        (10, 0, [], range(0, 25)),  # evicts new values too
        (10, 6, [2, 0, 5], range(6, 9)),  # fills the cache exactly
        (10, 8, [7, 1], range(8, 20)),  # evicts old, then new values
        (1, 3, [0], range(3, 6)),
        (4, 4, [], range(4, 4)),  # empty range
    ],
)
def test_register_values_matches_per_key_registration(capacity, registered, faulted, keys):
    arms = [_flash(capacity, registered) for _ in range(2)]
    for flash in arms:
        for key in faulted:  # reorder the LRU
            flash.fault_in(key)
    arms[0].register_values(keys)
    for key in keys:
        arms[1].register_value(key)
    assert _state(arms[0]) == _state(arms[1])


def test_store_build_registers_as_per_key_registration():
    platform = paper_cxl_platform(snc_enabled=False)
    flash = _flash(3000, 0)
    store = KeyValueStore(
        AddressSpace(MemoryInventory(platform)), BindPolicy([0]),
        record_count=4096, flash=flash,
    )
    assert _state(store.flash) == _state(_flash(3000, 4096))
