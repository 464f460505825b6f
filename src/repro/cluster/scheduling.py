"""The pluggable policy layer of the scheduling engine.

A :class:`SchedulingPolicy` answers three questions for the engine
(:class:`~repro.cluster.scheduler.ClusterSimulator`):

* :meth:`~SchedulingPolicy.order` — how is the pending queue prioritized
  at each dispatch?
* :meth:`~SchedulingPolicy.reserve` — where on the reservation calendar
  does a queued job's guaranteed start go?
* :meth:`~SchedulingPolicy.can_backfill` — may a job outside the reserved
  window start *now* without delaying any held reservation?

The engine calls :meth:`~SchedulingPolicy.plan` once per dispatch after
the head-of-queue start loop stalls; the base implementation composes
``reserve``/``can_backfill`` into the classic reservation-backfill sweep
(stmobo's ``_backfill_sched`` shape): the first ``reserve_depth`` queued
jobs hold calendar reservations, everything behind them may backfill
into the gaps.  Depth 0 is plain priority scheduling (FIFO/EDF/
fair-share), depth 1 is EASY, depth *k* is hybrid-*k*, depth ``None``
is conservative backfill.

Policies register under a name; :func:`get_policy` resolves names
(including parameterized ``"hybrid-<k>"`` forms) and ready-made
instances.  ``"backfill"`` — the seed's name for EASY — stays registered
so the R1 tables are untouched.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.calendar import ReservationCalendar
    from repro.cluster.jobs import JobRecord
    from repro.cluster.scheduler import ClusterSimulator

__all__ = [
    "SchedulingPolicy",
    "FifoPolicy",
    "EdfPolicy",
    "FairsharePolicy",
    "EasyBackfill",
    "ConservativeBackfill",
    "HybridBackfill",
    "register_policy",
    "get_policy",
    "available_policies",
]

# Priority keys a reservation-family policy can order its queue by.
_ORDER_KEYS: dict[str, Callable] = {
    "fifo": None,  # type: ignore[dict-item]  # submission order (no re-sort)
    "edf": lambda record, sim: record.job.deadline,
    "fairshare": lambda record, sim: sim.usage.get(record.job.project, 0.0),
}


class SchedulingPolicy:
    """Base scheduling discipline; subclasses override the three hooks.

    Attributes
    ----------
    name:
        Registry identity, also stamped into the contention fold that
        ``cluster_run_finish`` carries.
    reserve_depth:
        How many queued jobs hold calendar reservations during
        :meth:`plan`: ``0`` disables backfill entirely, ``k`` reserves the
        first *k*, ``None`` reserves every queued job (conservative).
    """

    name: str = "?"
    reserve_depth: int | None = 0

    def __init__(self, *, key: str = "fifo") -> None:
        if key not in _ORDER_KEYS:
            raise ValueError(
                f"unknown order key {key!r}; expected one of "
                f"{sorted(_ORDER_KEYS)}"
            )
        self.key = key
        self._key_fn = _ORDER_KEYS[key]
        # job_id -> reserved start held after the previous plan() pass;
        # the engine reads this to emit job_preempt on revocations.
        self._reserved: dict[int, float] = {}

    # -- lifecycle --------------------------------------------------------

    def reset(self) -> None:
        """Drop per-run state (the engine calls this when a run begins)."""
        self._reserved = {}

    # -- the protocol -----------------------------------------------------

    def order(self, queue: "deque[JobRecord]",
              sim: "ClusterSimulator") -> "deque[JobRecord]":
        """Re-prioritize the pending queue; stable for equal keys."""
        if self._key_fn is None:
            return queue
        return deque(sorted(queue, key=lambda r: self._key_fn(r, sim)))

    def reserve(self, record: "JobRecord", calendar: "ReservationCalendar",
                now: float) -> float:
        """The earliest calendar slot for ``record``'s whole window."""
        job = record.job
        return calendar.earliest_fit(job.n_gpus, job.duration, now, mem=job.mem)

    def can_backfill(self, record: "JobRecord",
                     calendar: "ReservationCalendar", now: float) -> bool:
        """May ``record`` start now without delaying any reservation?

        ``calendar`` already carries the running jobs *and* every
        reservation placed this pass, so a fit check over the candidate's
        window is exactly "no reservation is pushed later".
        """
        job = record.job
        return calendar.fits(now, job.duration, job.n_gpus, mem=job.mem)

    # -- the dispatch-time sweep -----------------------------------------

    def plan(self, sim: "ClusterSimulator") -> None:
        """Reserve + backfill after the head-start loop has stalled.

        The sweep walks the (already ordered) queue once.  Jobs inside
        the reserve window start immediately when their earliest fit is
        *now*, otherwise they hold a reservation on a scratch copy of the
        calendar; jobs beyond the window start only where
        :meth:`can_backfill` proves no reservation is delayed.
        """
        if self.reserve_depth == 0:
            return
        now = sim.now
        overlay = sim.calendar.copy()
        queue = sim.queue
        previous = self._reserved
        held: dict[int, float] = {}
        reserved = 0
        index = 0
        while index < len(queue):
            record = queue[index]
            job = record.job
            if self.reserve_depth is None or reserved < self.reserve_depth:
                start = self.reserve(record, overlay, now)
                if start <= now and sim.pool.can_allocate(job.n_gpus, job.mem):
                    del queue[index]
                    sim._start(record)
                    overlay.add(now, now + job.duration, job.n_gpus, job.mem)
                    continue
                overlay.add(start, start + job.duration, job.n_gpus, job.mem)
                held[job.job_id] = start
                old = previous.get(job.job_id)
                if old is not None and start > old + 1e-12:
                    sim._emit_preempt(record, old, start)
                reserved += 1
            elif not sim.pool.available:
                break  # every job needs a GPU: nothing more can backfill
            elif sim.pool.can_allocate(job.n_gpus, job.mem) and \
                    self.can_backfill(record, overlay, now):
                del queue[index]
                sim._start(record)
                overlay.add(now, now + job.duration, job.n_gpus, job.mem)
                continue
            index += 1
        # A job that held a reservation but fell outside the window (the
        # queue was re-ordered past depth k) lost it outright.
        if len(held) < len(previous):
            still_queued = {r.job.job_id: r for r in queue}
            for job_id, old in previous.items():
                if job_id not in held and job_id in still_queued:
                    sim._emit_preempt(still_queued[job_id], old, None)
        self._reserved = held


class FifoPolicy(SchedulingPolicy):
    """Strict submission order; a blocked head stalls everything."""

    name = "fifo"
    reserve_depth = 0


class EdfPolicy(SchedulingPolicy):
    """Earliest poster deadline first; still head-blocks once sorted.

    Models course staff assigning priorities by poster date.
    """

    name = "edf"
    reserve_depth = 0

    def __init__(self) -> None:
        super().__init__(key="edf")


class FairsharePolicy(SchedulingPolicy):
    """Lightest committed-GPU-hours project first (slurm fair-share).

    Light users cut ahead of a heavy user's queue: the paper notes that
    while some students launched huge allocations, others were stuck.
    """

    name = "fairshare"
    reserve_depth = 0

    def __init__(self) -> None:
        super().__init__(key="fairshare")


class EasyBackfill(SchedulingPolicy):
    """FIFO + EASY backfill (Lifka): only the head holds a reservation."""

    name = "backfill"  # the seed's registry name for EASY
    reserve_depth = 1


class ConservativeBackfill(SchedulingPolicy):
    """Every queued job holds a calendar reservation.

    A job starts out of order only when doing so delays *no* reservation,
    so every job owns a guaranteed worst-case start time — the
    no-starvation end of the backfill family.  An ``order`` key other
    than FIFO (e.g. ``"edf"``) lets higher-priority arrivals displace
    held reservations; each displacement is a revocation, surfaced as a
    ``job_preempt`` event.
    """

    name = "conservative"
    reserve_depth = None


class HybridBackfill(SchedulingPolicy):
    """The first ``k`` queued jobs hold reservations; the rest backfill.

    ``k = 1`` is EASY, large ``k`` approaches conservative; the sweet
    spot trades queue-head protection against backfill opportunity
    (stmobo's hybrid-k).
    """

    reserve_depth: int

    def __init__(self, k: int, *, key: str = "fifo") -> None:
        if k < 1:
            raise ValueError(f"hybrid depth k must be >= 1, got {k}")
        super().__init__(key=key)
        self.reserve_depth = int(k)
        self.name = f"hybrid-{k}" if key == "fifo" else f"hybrid-{k}-{key}"


# -- the registry ---------------------------------------------------------

_REGISTRY: dict[str, Callable[[], SchedulingPolicy]] = {}


def register_policy(name: str,
                    factory: Callable[[], SchedulingPolicy]) -> None:
    """Register a policy factory under ``name`` (case-insensitive)."""
    key = name.lower()
    if key in _REGISTRY:
        raise ValueError(f"policy {name!r} already registered")
    _REGISTRY[key] = factory


def available_policies() -> list[str]:
    """Registered policy names (the parameterized ``hybrid-<k>`` family is
    resolvable beyond the pre-registered depths)."""
    return sorted(_REGISTRY)


def get_policy(spec) -> SchedulingPolicy:
    """Resolve ``spec`` into a fresh :class:`SchedulingPolicy` instance.

    Accepts a policy instance (returned as-is) or a registry name.
    ``"hybrid-<k>"`` and ``"conservative-<key>"`` / ``"hybrid-<k>-<key>"``
    forms are parsed structurally, so any depth and any order key compose
    without pre-registration.
    """
    if isinstance(spec, SchedulingPolicy):
        return spec
    if not isinstance(spec, str):
        raise TypeError(f"cannot resolve scheduling policy from {spec!r}")
    key = spec.lower()
    if key in _REGISTRY:
        return _REGISTRY[key]()
    parsed = _parse_parameterized(key)
    if parsed is not None:
        return parsed
    raise KeyError(
        f"unknown scheduling policy {spec!r}; registered: "
        f"{', '.join(available_policies())} (plus hybrid-<k>[-<key>] and "
        f"conservative-<key> forms)"
    )


def _parse_parameterized(key: str) -> SchedulingPolicy | None:
    parts = key.split("-")
    if parts[0] == "hybrid" and len(parts) in (2, 3) and parts[1].isdigit():
        order = parts[2] if len(parts) == 3 else "fifo"
        if order in _ORDER_KEYS:
            return HybridBackfill(int(parts[1]), key=order)
    if parts[0] == "conservative" and len(parts) == 2 and \
            parts[1] in _ORDER_KEYS:
        policy = ConservativeBackfill(key=parts[1])
        policy.name = f"conservative-{parts[1]}"
        return policy
    return None


register_policy("fifo", FifoPolicy)
register_policy("edf", EdfPolicy)
register_policy("fairshare", FairsharePolicy)
register_policy("backfill", EasyBackfill)  # the seed's name for EASY
register_policy("easy", EasyBackfill)
register_policy("conservative", ConservativeBackfill)
register_policy("hybrid-2", lambda: HybridBackfill(2))
register_policy("hybrid-4", lambda: HybridBackfill(4))
