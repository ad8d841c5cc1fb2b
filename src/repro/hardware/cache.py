"""Analytic shared last-level-cache model.

Rather than simulating individual memory accesses, the model tracks how
many bytes of each actor's (guest thread's) working set are resident in
the socket's LLC, and integrates CPU execution over a run segment in a
handful of sub-steps:

* hit probability of an actor = resident bytes / working-set size
  (uniform-access approximation),
* each LLC miss fetches one line, growing the actor's residency and
  evicting co-resident actors proportionally to their occupancy once the
  cache is full,
* instruction cost = ``base_cpi_ns + llc_ref_rate * (p_hit * hit_ns +
  (1 - p_hit) * miss_ns)``.

This reproduces exactly the effects the paper builds on: an LLC-friendly
(LLCF) working set is evicted while its vCPU is descheduled and must be
re-fetched on return — so short quanta mean permanently cold caches —
while a trashing (LLCO) working set misses at a floor rate regardless of
quantum and constantly evicts its neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

#: Occupancy amounts below this many bytes are dropped to keep the
#: occupancy table small and avoid float dust.
_EPSILON_BYTES = 1.0


@dataclass(frozen=True, slots=True)
class MemoryProfile:
    """How a stream of instructions exercises the memory hierarchy.

    ``llc_ref_rate`` is the number of references that reach the LLC per
    instruction, i.e. *after* filtering by the private L1/L2 — a
    low-level-cache-friendly workload therefore has a near-zero rate
    even though it touches memory constantly.  ``base_cpi_ns`` is the
    cost per instruction excluding LLC/DRAM stalls (core pipeline plus
    L1/L2 time).
    """

    wss_bytes: int = 0
    llc_ref_rate: float = 0.0
    base_cpi_ns: float = 0.30

    def __post_init__(self) -> None:
        if self.wss_bytes < 0:
            raise ValueError("working-set size cannot be negative")
        if self.llc_ref_rate < 0:
            raise ValueError("LLC reference rate cannot be negative")
        if self.base_cpi_ns <= 0:
            raise ValueError("base CPI must be positive")


@dataclass(slots=True)
class SegmentResult:
    """What happened during one integrated run segment."""

    instructions: float = 0.0
    llc_refs: float = 0.0
    llc_misses: float = 0.0
    elapsed_ns: float = 0.0

    def merge(self, other: "SegmentResult") -> None:
        self.instructions += other.instructions
        self.llc_refs += other.llc_refs
        self.llc_misses += other.llc_misses
        self.elapsed_ns += other.elapsed_ns


class SharedCache:
    """A socket-wide LLC with per-actor occupancy accounting.

    Actors are arbitrary hashable handles (the simulator uses guest
    thread objects).  Occupancies are floats in bytes; the invariant
    ``sum(occupancy) <= capacity`` always holds.
    """

    __slots__ = (
        "capacity_bytes", "line_bytes", "reuse_exponent", "_occupancy", "_total",
    )

    def __init__(
        self,
        capacity_bytes: int,
        line_bytes: int = 64,
        reuse_exponent: float = 0.5,
    ):
        if capacity_bytes <= 0 or line_bytes <= 0:
            raise ValueError("capacity and line size must be positive")
        if not 0 < reuse_exponent <= 1.0:
            raise ValueError("reuse exponent must be in (0, 1]")
        self.capacity_bytes = float(capacity_bytes)
        self.line_bytes = float(line_bytes)
        #: concavity of the hit curve: real programs have a hot subset,
        #: so the first resident fraction of the working set serves a
        #: disproportionate share of hits (p_hit = resident_fraction **
        #: reuse_exponent).  1.0 recovers the uniform-access model.
        self.reuse_exponent = reuse_exponent
        self._occupancy: dict[Hashable, float] = {}
        self._total = 0.0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def occupancy_of(self, actor: Hashable) -> float:
        return self._occupancy.get(actor, 0.0)

    @property
    def total_occupancy(self) -> float:
        return self._total

    def actors(self) -> list[Hashable]:
        return list(self._occupancy)

    def hit_probability(self, actor: Hashable, wss_bytes: int) -> float:
        """P(reference hits), concave in the resident fraction."""
        if wss_bytes <= 0:
            return 1.0
        fraction = min(1.0, self.occupancy_of(actor) / float(wss_bytes))
        return fraction ** self.reuse_exponent

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, actor: Hashable, nbytes: float, wss_bytes: int) -> None:
        """Account ``nbytes`` of miss fills for ``actor``.

        Residency grows toward ``min(wss, capacity)``; growth beyond the
        free space evicts other actors proportionally to their share.
        Fills past the target (a trashing working set cycling through
        itself) keep evicting others at a reduced pressure without
        growing the actor, which is how an LLCO stream keeps the whole
        socket's cache churned.

        This and :meth:`_evict_from_others` are the simulator's hottest
        code, so ``min(a, b)`` is spelled ``b if b < a else a`` and
        ``max(a, b)`` ``b if b > a else a``: the same operand wins on
        ties, so every float is bit-identical to the ``min``/``max``
        formulation (DESIGN.md §9).
        """
        if nbytes <= 0:
            return
        capacity = self.capacity_bytes
        occupancies = self._occupancy
        target = float(wss_bytes)
        if capacity < target:
            target = capacity
        occupancy = occupancies.get(actor, 0.0)
        room = target - occupancy
        if not room > 0.0:
            room = 0.0
        grow = room if room < nbytes else nbytes
        churn = nbytes - grow
        if grow > 0:
            free = capacity - self._total
            if not free > 0.0:
                free = 0.0
            need = grow - (free if free < grow else grow)
            if need > 0:
                self._evict_from_others(actor, need)
            occupancy = occupancy + grow
            occupancies[actor] = occupancy
            self._total += grow
        if churn > 0:
            # A working set larger than the cache re-fetches its own
            # lines; a fraction of those fills still displace other
            # actors' lines (set-conflict pressure).  The displaced space
            # is re-used by the churning actor only up to its target;
            # otherwise it stays free until someone misses.
            others = self._total - occupancy
            if others > 0:
                pressure = churn * (others / capacity)
                self._evict_from_others(
                    actor, pressure if pressure < others else others
                )

    def _evict_from_others(self, actor: Hashable, amount: float) -> float:
        """Evict up to ``amount`` bytes from everyone but ``actor``.

        Each victim loses its share of ``amount`` in proportion to its
        occupancy; one left below ``_EPSILON_BYTES`` is dropped.
        ``actor`` is excluded by identity.  ``others_total`` stays a
        ``sum()`` over the victims in table order: ``sum`` of floats is
        compensated from Python 3.12, so a hand-written loop would round
        differently there.
        """
        occupancies = self._occupancy
        victims = list(occupancies)
        sizes = list(occupancies.values())
        if actor in occupancies:
            index = victims.index(actor)
            if victims[index] is actor:
                del victims[index]
                del sizes[index]
        others_total = sum(sizes)
        if others_total <= 0:
            return 0.0
        if others_total < amount:
            amount = others_total
        total = self._total
        for victim, occ in zip(victims, sizes):
            taken = amount * (occ / others_total)
            remaining = occ - taken
            if remaining < _EPSILON_BYTES:
                total -= occ
                del occupancies[victim]
            else:
                total -= taken
                occupancies[victim] = remaining
        self._total = total
        return amount

    def evict_actor(self, actor: Hashable) -> float:
        """Remove all of ``actor``'s lines (e.g. after socket migration)."""
        occupancy = self._occupancy.pop(actor, 0.0)
        self._total -= occupancy
        if self._total < 0:
            self._total = 0.0
        return occupancy

    def flush(self) -> None:
        """Empty the whole cache."""
        self._occupancy.clear()
        self._total = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        used = 100.0 * self._total / self.capacity_bytes
        return f"<SharedCache {used:.1f}% of {int(self.capacity_bytes)}B>"


# ----------------------------------------------------------------------
# segment integration
# ----------------------------------------------------------------------
def integrate_duration(
    cache: SharedCache,
    actor: Hashable,
    profile: MemoryProfile,
    duration_ns: float,
    hit_ns: float,
    miss_ns: float,
    substeps: int = 8,
) -> SegmentResult:
    """Advance ``actor`` by ``duration_ns`` of CPU time.

    Returns the instructions/refs/misses retired and updates the cache
    occupancy as the working set warms.  Sub-stepping captures the
    warm-up curve: the first sub-steps run miss-heavy and the later ones
    at the warmed speed.

    This is the hottest arithmetic in the whole simulator (it runs at
    every segment boundary), so the body of :meth:`SharedCache.
    hit_probability` and the per-instruction cost are inlined below, with
    ``min`` spelled as a comparison that keeps the same operand on ties.
    The float operations and their order are exactly those of the plain
    formulation — the golden-shape tests require bit-for-bit equal
    results.  Every substep that misses fills through ``cache.insert``
    (looked up on the class, where the per-layer tracer counts it).
    """
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
    wss_bytes = float(wss)
    instructions_total = 0.0
    refs_total = 0.0
    misses_total = 0.0
    elapsed_total = 0.0
    for _ in range(substeps):
        if wss <= 0:
            p_hit = 1.0
        else:
            fraction = occupancy.get(actor, 0.0) / wss_bytes
            if not fraction < 1.0:
                fraction = 1.0
            p_hit = fraction ** exponent
        p_miss = 1.0 - p_hit
        per_instr = base_cpi + ref_rate * (p_hit * hit_ns + p_miss * miss_ns)
        instructions = dt / per_instr
        refs = instructions * ref_rate
        misses = refs * p_miss
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


def estimate_duration_ns(
    cache: SharedCache,
    actor: Hashable,
    profile: MemoryProfile,
    instructions: float,
    hit_ns: float,
    miss_ns: float,
) -> float:
    """Cheap non-mutating estimate of the time ``instructions`` will take.

    Assumes the current hit probability holds for the whole burst, which
    under-estimates cold-cache bursts slightly; callers re-evaluate at
    every segment boundary so the error never accumulates.
    """
    wss = profile.wss_bytes
    if wss <= 0:
        p_hit = 1.0
    else:
        fraction = cache._occupancy.get(actor, 0.0) / float(wss)
        if not fraction < 1.0:
            fraction = 1.0
        p_hit = fraction ** cache.reuse_exponent
    return instructions * (
        profile.base_cpi_ns
        + profile.llc_ref_rate * (p_hit * hit_ns + (1.0 - p_hit) * miss_ns)
    )


__all__ = [
    "MemoryProfile",
    "SegmentResult",
    "SharedCache",
    "integrate_duration",
    "estimate_duration_ns",
]
