"""Property tests for the resharding half of the router (ISSUE 8).

* **Round trip** -- ``without(s).with_shard(s)`` restores the *exact*
  tenant -> shard mapping: the ring is a pure function of (seed, shard
  set), so an evict followed by a re-add is a true identity.
* **Growth stability** -- adding a shard moves tenants only *onto* the
  new shard, never between surviving shards (the mirror image of the
  removal-stability property in ``tests/serve/test_router.py``).
* **Structured validation** -- the vnode count and the fabric's shard
  count are policy knobs validated at construction with a
  :class:`FabricConfigError` naming the knob.
* **Probe-ready tiering** -- a fully-quarantined shard whose breaker
  cool-down elapsed ranks as tier 1 (its next offload is the half-open
  probe), which is what closes the double-quarantine fallback hole.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.breaker import BreakerState
from repro.serve.errors import FabricConfigError
from repro.serve.fabric import FabricPolicy
from repro.serve.router import (
    ConsistentHashRouter,
    RouterPolicy,
    ShardView,
    least_loaded_fallback,
    ranked_fallbacks,
)

_TENANTS = st.lists(
    st.text(alphabet="abcdefghij-0123456789", min_size=1, max_size=12),
    min_size=1, max_size=24, unique=True)

_POLICIES = st.builds(
    RouterPolicy,
    vnodes=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1))

_SHARD_COUNTS = st.integers(min_value=2, max_value=8)


@given(tenants=_TENANTS, policy=_POLICIES, shards=_SHARD_COUNTS,
       data=st.data())
@settings(max_examples=150)
def test_without_then_with_shard_is_identity(tenants, policy, shards,
                                             data):
    router = ConsistentHashRouter(list(range(shards)), policy)
    before = router.table(tenants)
    victim = data.draw(st.integers(min_value=0, max_value=shards - 1))
    restored = router.without(victim).with_shard(victim)
    assert restored.table(tenants) == before
    assert restored.shard_ids == router.shard_ids


@given(tenants=_TENANTS, policy=_POLICIES, shards=_SHARD_COUNTS)
@settings(max_examples=150)
def test_adding_a_shard_moves_tenants_only_onto_it(tenants, policy,
                                                   shards):
    router = ConsistentHashRouter(list(range(shards)), policy)
    before = router.table(tenants)
    after = router.with_shard(shards).table(tenants)
    for tenant in tenants:
        if after[tenant] != before[tenant]:
            assert after[tenant] == shards


def test_vnodes_must_be_positive():
    with pytest.raises(FabricConfigError) as exc:
        RouterPolicy(vnodes=0)
    assert exc.value.knob == "vnodes"
    assert exc.value.value == 0
    with pytest.raises(FabricConfigError):
        RouterPolicy(vnodes=-3)


def test_fabric_needs_a_shard():
    with pytest.raises(FabricConfigError) as exc:
        FabricPolicy(shards=0)
    assert exc.value.knob == "shards"
    # FabricConfigError stays a ValueError for pre-existing call sites.
    assert isinstance(exc.value, ValueError)


def _view(index, states, load=0.0, probe_ready=()):
    return ShardView(index=index, breaker_states=tuple(states),
                     load=load, probe_ready=tuple(probe_ready))


def test_probe_ready_open_shard_ranks_as_probing():
    quarantined = _view(0, [BreakerState.OPEN], probe_ready=[False])
    probe_ready = _view(1, [BreakerState.OPEN], probe_ready=[True])
    assert quarantined.effective_tier() == 2
    assert not quarantined.routable
    assert probe_ready.effective_tier() == 1
    assert probe_ready.routable
    assert ranked_fallbacks([quarantined, probe_ready]) == [1, 0]


def test_empty_probe_ready_degrades_to_static_tier():
    view = _view(0, [BreakerState.OPEN])
    assert view.effective_tier() == view.health_tier() == 2


_TILES = st.lists(
    st.tuples(st.sampled_from([BreakerState.CLOSED, BreakerState.OPEN,
                               BreakerState.HALF_OPEN]),
              st.booleans()),
    min_size=1, max_size=4)


@given(views=st.lists(
    st.tuples(_TILES,
              st.floats(min_value=0.0, max_value=1e6,
                        allow_nan=False)),
    min_size=1, max_size=8))
@settings(max_examples=100)
def test_ranked_fallbacks_head_matches_least_loaded(views):
    shard_views = []
    for i, (tiles, load) in enumerate(views):
        states = [s for s, _ in tiles]
        probe = tuple(p for _, p in tiles)
        shard_views.append(_view(i, states, load, probe))
    ranked = ranked_fallbacks(shard_views)
    assert sorted(ranked) == list(range(len(shard_views)))
    assert least_loaded_fallback(shard_views) == ranked[0]
    tiers = [next(v for v in shard_views if v.index == i)
             .effective_tier() for i in ranked]
    assert tiers == sorted(tiers)
