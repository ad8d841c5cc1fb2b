"""The LLC model's fast path is bit-identical to its reference formulation.

``SharedCache.insert``, ``SharedCache._evict_from_others``,
``integrate_duration`` and ``estimate_duration_ns`` are the simulator's
hottest code, written with comparisons instead of ``min``/``max``, C-level
list building and a local running total.  The frozen copies below are the
plain formulation they replaced; every operation sequence must leave both
with the same occupancy entries in the same order, the same ``_total``
bits and the same return values.

The second half pins the seams the per-layer tracer patches: fills go
through ``SharedCache.insert`` and evictions through
``SharedCache._evict_from_others``, looked up on the class at call time.
"""

from __future__ import annotations

import random
from typing import Any, Hashable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cache import (
    _EPSILON_BYTES,
    MemoryProfile,
    SegmentResult,
    SharedCache,
    estimate_duration_ns,
    integrate_duration,
)


# ----------------------------------------------------------------------
# frozen reference formulation (do not optimise)
# ----------------------------------------------------------------------
class ReferenceCache(SharedCache):
    """``SharedCache`` with the reference ``insert`` and eviction bodies."""

    __slots__ = ()

    @property
    def reference_free_bytes(self) -> float:
        return max(0.0, self.capacity_bytes - self._total)

    def insert(self, actor: Hashable, nbytes: float, wss_bytes: int) -> None:
        if nbytes <= 0:
            return
        target = min(float(wss_bytes), self.capacity_bytes)
        occupancy = self._occupancy.get(actor, 0.0)
        grow = min(nbytes, max(0.0, target - occupancy))
        churn = max(0.0, nbytes - grow)
        if grow > 0:
            from_free = min(grow, self.reference_free_bytes)
            need = grow - from_free
            if need > 0:
                self._evict_from_others(actor, need)
            self._occupancy[actor] = occupancy + grow
            self._total += grow
        if churn > 0:
            others = self._total - self._occupancy.get(actor, 0.0)
            if others > 0:
                pressure = min(others, churn * (others / self.capacity_bytes))
                self._evict_from_others(actor, pressure)

    def _evict_from_others(self, actor: Hashable, amount: float) -> float:
        victims = [(a, occ) for a, occ in self._occupancy.items() if a is not actor]
        others_total = sum(occ for _, occ in victims)
        if others_total <= 0:
            return 0.0
        amount = min(amount, others_total)
        for victim, occ in victims:
            share = occ / others_total
            taken = amount * share
            remaining = occ - taken
            if remaining < _EPSILON_BYTES:
                self._total -= occ
                del self._occupancy[victim]
            else:
                self._total -= taken
                self._occupancy[victim] = remaining
        return amount


def reference_integrate_duration(
    cache: SharedCache,
    actor: Hashable,
    profile: MemoryProfile,
    duration_ns: float,
    hit_ns: float,
    miss_ns: float,
    substeps: int = 8,
) -> SegmentResult:
    result = SegmentResult()
    if duration_ns <= 0:
        return result
    dt = duration_ns / substeps
    wss = profile.wss_bytes
    ref_rate = profile.llc_ref_rate
    base_cpi = profile.base_cpi_ns
    exponent = cache.reuse_exponent
    line_bytes = cache.line_bytes
    occupancy = cache._occupancy
    insert = cache.insert
    instructions_total = 0.0
    refs_total = 0.0
    misses_total = 0.0
    elapsed_total = 0.0
    for _ in range(substeps):
        if wss <= 0:
            p_hit = 1.0
        else:
            fraction = min(1.0, occupancy.get(actor, 0.0) / float(wss))
            p_hit = fraction ** exponent
        per_instr = base_cpi + ref_rate * (
            p_hit * hit_ns + (1.0 - p_hit) * miss_ns
        )
        instructions = dt / per_instr
        refs = instructions * ref_rate
        misses = refs * (1.0 - p_hit)
        if misses > 0.0:
            insert(actor, misses * line_bytes, wss)
        instructions_total += instructions
        refs_total += refs
        misses_total += misses
        elapsed_total += dt
    result.instructions = instructions_total
    result.llc_refs = refs_total
    result.llc_misses = misses_total
    result.elapsed_ns = elapsed_total
    return result


def reference_estimate_duration_ns(
    cache: SharedCache,
    actor: Hashable,
    profile: MemoryProfile,
    instructions: float,
    hit_ns: float,
    miss_ns: float,
) -> float:
    wss = profile.wss_bytes
    if wss <= 0:
        p_hit = 1.0
    else:
        fraction = min(1.0, cache._occupancy.get(actor, 0.0) / float(wss))
        p_hit = fraction ** cache.reuse_exponent
    return instructions * (
        profile.base_cpi_ns
        + profile.llc_ref_rate * (p_hit * hit_ns + (1.0 - p_hit) * miss_ns)
    )


# ----------------------------------------------------------------------
# bit comparison
# ----------------------------------------------------------------------
class Actor:
    """An identity-hashed actor handle, like the simulator's threads."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


def bits(value: Any) -> tuple[str, str]:
    """A value's type and exact bits (``float.hex`` for floats)."""
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, repr(value))


def cache_bits(cache: SharedCache) -> tuple[list[tuple[int, tuple]], tuple]:
    items = [(id(actor), bits(occ)) for actor, occ in cache._occupancy.items()]
    return items, bits(cache._total)


def segment_bits(segment: SegmentResult) -> list[tuple[str, str]]:
    return [
        bits(segment.instructions),
        bits(segment.llc_refs),
        bits(segment.llc_misses),
        bits(segment.elapsed_ns),
    ]


CAPACITY = 64 * 1024
ACTORS = [Actor(f"a{i}") for i in range(6)]

#: fill sizes: mostly a sizeable share of the cache, so evictions take
#: a large part of their victims and a reordered float operation shows
#: past rounding; plus values at the eviction threshold, int and float
#: edges, 0, -0.0 and negative values
sizeable_st = st.floats(min_value=1.0, max_value=2.0 * CAPACITY)
nbytes_st = st.one_of(
    sizeable_st,
    sizeable_st,
    sizeable_st,
    st.sampled_from([0, -1, 0.0, -0.0, -3.5, 0.25, 1, 1.0, 64, CAPACITY]),
    st.integers(min_value=-CAPACITY, max_value=4 * CAPACITY),
    st.floats(
        min_value=-float(CAPACITY),
        max_value=4.0 * CAPACITY,
        allow_nan=False,
        allow_infinity=False,
    ),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)

#: working sets of 0, below and above the capacity (and, for raw fills,
#: negative); each op draws its own, so an actor's wss changes over time
wss_st = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=CAPACITY - 1),
    st.integers(min_value=CAPACITY, max_value=8 * CAPACITY),
)
raw_wss_st = st.one_of(wss_st, st.integers(min_value=-CAPACITY, max_value=-1))

actor_st = st.integers(min_value=0, max_value=len(ACTORS) - 1)

profile_st = st.builds(
    MemoryProfile,
    wss_bytes=wss_st,
    llc_ref_rate=st.one_of(
        st.just(0.0), st.floats(min_value=0.0, max_value=0.2, allow_nan=False)
    ),
    base_cpi_ns=st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
)

latency_st = st.floats(min_value=0.0, max_value=300.0, allow_nan=False)

insert_st = st.tuples(st.just("insert"), actor_st, nbytes_st, raw_wss_st)

#: fills dominate, as in the simulator
op_st = st.one_of(
    insert_st,
    insert_st,
    insert_st,
    st.tuples(st.just("evict_others"), actor_st, nbytes_st),
    st.tuples(st.just("evict_actor"), actor_st),
    st.tuples(
        st.just("integrate"),
        actor_st,
        profile_st,
        st.one_of(
            st.sampled_from([0.0, -1.0]),
            st.floats(min_value=1.0, max_value=5e7, allow_nan=False),
        ),
        latency_st,
        latency_st,
        st.integers(min_value=1, max_value=8),
    ),
    st.tuples(
        st.just("estimate"),
        actor_st,
        profile_st,
        st.floats(min_value=0.0, max_value=1e8, allow_nan=False),
        latency_st,
        latency_st,
    ),
)

#: a few resident actors to start from, so early fills already evict
#: several victims
warm_st = st.lists(
    st.tuples(
        actor_st, st.floats(min_value=0.05 * CAPACITY, max_value=0.6 * CAPACITY)
    ),
    min_size=2,
    max_size=6,
)


def apply(cache: SharedCache, op: tuple, reference: bool) -> Any:
    kind, actor = op[0], ACTORS[op[1]]
    if kind == "insert":
        return cache.insert(actor, op[2], op[3])
    if kind == "evict_others":
        return cache._evict_from_others(actor, op[2])
    if kind == "evict_actor":
        return cache.evict_actor(actor)
    if kind == "integrate":
        integrate = reference_integrate_duration if reference else integrate_duration
        _, _, profile, duration, hit_ns, miss_ns, substeps = op
        return segment_bits(
            integrate(cache, actor, profile, duration, hit_ns, miss_ns, substeps)
        )
    estimate = reference_estimate_duration_ns if reference else estimate_duration_ns
    _, _, profile, instructions, hit_ns, miss_ns = op
    return estimate(cache, actor, profile, instructions, hit_ns, miss_ns)


def assert_same_run(ops: list[tuple], exponent: float) -> None:
    ref = ReferenceCache(CAPACITY, reuse_exponent=exponent)
    new = SharedCache(CAPACITY, reuse_exponent=exponent)
    for op in ops:
        expected = apply(ref, op, reference=True)
        got = apply(new, op, reference=False)
        assert bits(got) == bits(expected), op
        assert cache_bits(new) == cache_bits(ref), op


@settings(max_examples=300, deadline=None)
@given(
    warm=warm_st,
    ops=st.lists(op_st, max_size=60),
    exponent=st.sampled_from([0.5, 1.0, 0.3]),
)
def test_fast_path_matches_reference_bit_for_bit(warm, ops, exponent):
    fills = [("insert", actor, nbytes, CAPACITY) for actor, nbytes in warm]
    assert_same_run(fills + ops, exponent)


def random_wss(rng: random.Random) -> int:
    """0, below the capacity, or above it."""
    return rng.choice(
        [0, rng.randrange(1, CAPACITY), rng.randrange(CAPACITY, 8 * CAPACITY)]
    )


def random_op(rng: random.Random) -> tuple:
    """One op of a long seeded walk, weighted like the simulator's mix."""
    actor = rng.randrange(len(ACTORS))
    roll = rng.random()
    if roll < 0.55:
        if rng.random() < 0.1:
            nbytes = rng.choice([0, -1, 0.0, -0.0, 0.5, 1, 64, CAPACITY])
        else:
            nbytes = rng.uniform(1.0, 1.5 * CAPACITY)
        return ("insert", actor, nbytes, random_wss(rng))
    if roll < 0.65:
        return ("evict_others", actor, rng.uniform(0.0, CAPACITY))
    if roll < 0.7:
        return ("evict_actor", actor)
    profile = MemoryProfile(
        wss_bytes=random_wss(rng),
        llc_ref_rate=rng.choice([0.0, rng.uniform(0.0, 0.05)]),
        base_cpi_ns=rng.uniform(0.1, 1.0),
    )
    if roll < 0.95:
        duration = rng.uniform(0.0, 2e6)
        return ("integrate", actor, profile, duration, 12.0, 80.0, rng.randint(1, 8))
    return ("estimate", actor, profile, rng.uniform(0.0, 1e7), 12.0, 80.0)


@pytest.mark.parametrize("seed", range(4))
def test_long_seeded_walk_matches_reference_bit_for_bit(seed):
    rng = random.Random(seed)
    assert_same_run([random_op(rng) for _ in range(3000)], 0.5)


def test_reentered_actor_moves_to_the_end_in_both():
    """An actor evicted below the threshold and refilled is re-appended;
    the victims' order (and so the float sums) must follow it."""
    a, b, c = ACTORS[:3]
    caches = (ReferenceCache(CAPACITY), SharedCache(CAPACITY))
    for cache in caches:
        cache.insert(a, 0.5, CAPACITY)
        cache.insert(b, CAPACITY / 2, CAPACITY)
        cache.insert(c, CAPACITY, CAPACITY)  # a falls below 1 byte
        assert a not in cache._occupancy
        cache.insert(a, 300.0, CAPACITY)
        assert list(cache._occupancy)[-1] is a
    assert cache_bits(caches[1]) == cache_bits(caches[0])


def test_equal_but_distinct_actor_is_still_a_victim():
    """Exclusion is by identity: an equal key that is another object is
    evicted like any neighbour, as in the reference."""
    first, second = "".join(["ab", "c"]), "".join(["a", "bc"])
    assert first == second and first is not second
    caches = (ReferenceCache(1024), SharedCache(1024))
    for cache in caches:
        cache.insert(first, 600.0, 4096)
        cache.insert("other", 424.0, 4096)
        assert cache._evict_from_others(second, 100.0) == 100.0
    assert cache_bits(caches[1]) == cache_bits(caches[0])


# ----------------------------------------------------------------------
# tracer seams
# ----------------------------------------------------------------------
MB = 1024 * 1024


def count_seams(monkeypatch: pytest.MonkeyPatch, cls: type) -> dict[str, int]:
    """Wrap ``cls.insert``/``cls._evict_from_others`` the way the
    per-layer tracer does and return its counters."""
    counts = {"inserts": 0, "evicting_inserts": 0, "evictions": 0, "visits": 0}
    insert = cls.insert
    evict = cls._evict_from_others

    def counted_insert(cache: SharedCache, *args: Any) -> None:
        before = counts["evictions"]
        insert(cache, *args)
        counts["inserts"] += 1
        if counts["evictions"] != before:
            counts["evicting_inserts"] += 1

    def counted_evict(cache: SharedCache, actor: Any, amount: float) -> float:
        counts["evictions"] += 1
        counts["visits"] += len(cache._occupancy) - (actor in cache._occupancy)
        return evict(cache, actor, amount)

    monkeypatch.setattr(cls, "insert", counted_insert)
    monkeypatch.setattr(cls, "_evict_from_others", counted_evict)
    return counts


def llco_with_llcf_neighbours(cls: type) -> tuple[SharedCache, Actor]:
    cache = cls(8 * MB)
    for i in range(3):
        cache.insert(Actor(f"llcf{i}"), 2 * MB, 2 * MB)
    cache.insert(Actor("partial"), 2 * MB, 6 * MB)  # the cache is full
    return cache, Actor("llco")


LLCO = MemoryProfile(wss_bytes=64 * MB, llc_ref_rate=0.03)


def test_integrate_fills_and_evicts_through_the_class_seams(monkeypatch):
    """Every missing substep calls ``SharedCache.insert`` and every fill
    that evicts calls ``SharedCache._evict_from_others``: the per-layer
    tracer counts exactly these, so inlining either zeroes its
    ``hardware.cache.*`` counters."""
    cache, actor = llco_with_llcf_neighbours(ReferenceCache)
    expected = count_seams(monkeypatch, ReferenceCache)
    reference_integrate_duration(cache, actor, LLCO, 2e6, 12.0, 80.0)

    cache, actor = llco_with_llcf_neighbours(SharedCache)
    counts = count_seams(monkeypatch, SharedCache)
    integrate_duration(cache, actor, LLCO, 2e6, 12.0, 80.0)

    # an LLCO working set misses in every substep, and once the cache is
    # full every fill displaces the LLCF neighbours
    assert counts["inserts"] == 8
    assert counts["evicting_inserts"] == 8
    assert counts["visits"] > 0
    assert counts == expected


def test_warm_actor_makes_no_fills(monkeypatch):
    cache = SharedCache(8 * MB)
    actor = Actor("warm")
    cache.insert(actor, 2 * MB, 2 * MB)
    counts = count_seams(monkeypatch, SharedCache)
    profile = MemoryProfile(wss_bytes=2 * MB, llc_ref_rate=0.03)
    integrate_duration(cache, actor, profile, 1e6, 12.0, 80.0)
    assert counts["inserts"] == 0
    assert counts["evictions"] == 0
