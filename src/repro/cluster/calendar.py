"""Reservation calendar: the free-capacity timeline of the scheduling engine.

A :class:`ReservationCalendar` is a sorted timeline of capacity-change
breakpoints (the sorted-timeline incarnation of the AVL "future resource
tree" in stmobo's ``sched_model_v2``).  Segment ``i`` spans
``[times[i], times[i+1])`` and carries the resources committed over that
span; the final segment extends to infinity.  Three queries drive every
reservation-based policy:

* :meth:`available` — free capacity at an instant;
* :meth:`fits` — would a job starting *now* oversubscribe any future
  instant of its run window?
* :meth:`earliest_fit` — the earliest start time at which a job's whole
  window fits, used to place EASY/conservative/hybrid-k reservations.

Breakpoint insertion uses :func:`bisect.insort` (O(log n) search plus a
memmove), window scans touch only the segments they overlap, and
:meth:`prune` folds breakpoints behind the advancing simulation clock so
the timeline length tracks *concurrent* commitments, not total jobs —
that is what keeps the DES near-linear out to millions of jobs.

Capacity is two-dimensional (GPUs plus memory) per the
:class:`~repro.cluster.resources.ResourceVector` convention: a memory
capacity of zero means memory is untracked and only the GPU dimension
constrains placement.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.cluster.resources import MEM_EPSILON

__all__ = ["CalendarOps", "ReservationCalendar"]


@dataclass(slots=True)
class CalendarOps:
    """Work counts of one calendar and every copy made from it, so the
    overlays policies plan on add to the engine's totals."""

    earliest_fit_calls: int = 0
    fits_calls: int = 0
    add_calls: int = 0
    copy_calls: int = 0
    prune_calls: int = 0
    segments_scanned: int = 0  # visited by earliest_fit and fits
    segments_copied: int = 0


class ReservationCalendar:
    """Sorted capacity-change timeline over (gpus, mem) resources.

    Examples
    --------
    >>> cal = ReservationCalendar(4)
    >>> cal.add(0.0, 10.0, 3)          # a running job holds 3 GPUs
    >>> cal.available(5.0)
    1
    >>> cal.earliest_fit(2, 5.0, 0.0)  # a 2-GPU job must wait for t=10
    10.0
    >>> cal.fits(0.0, 5.0, 1)          # a 1-GPU job backfills now
    True
    """

    def __init__(self, gpus: int, mem: float = 0.0) -> None:
        if gpus < 1:
            raise ValueError(f"gpus must be >= 1, got {gpus}")
        if mem < 0:
            raise ValueError(f"mem must be >= 0, got {mem}")
        self.capacity_gpus = int(gpus)
        self.capacity_mem = float(mem)  # 0.0 = memory untracked
        self._times: list[float] = [0.0]
        self._gpus: list[int] = [0]
        self._mem: list[float] = [0.0]
        self.ops = CalendarOps()  # shared with every copy

    def __len__(self) -> int:
        return len(self._times)

    def copy(self) -> "ReservationCalendar":
        """An independent snapshot (reservation overlays plan on a copy,
        so the committed running-jobs timeline is never perturbed)."""
        ops = self.ops
        ops.copy_calls += 1
        ops.segments_copied += len(self._times)
        dup = ReservationCalendar.__new__(ReservationCalendar)
        dup.capacity_gpus = self.capacity_gpus
        dup.capacity_mem = self.capacity_mem
        dup._times = self._times.copy()
        dup._gpus = self._gpus.copy()
        dup._mem = self._mem.copy()
        dup.ops = ops
        return dup

    # -- breakpoint maintenance ------------------------------------------

    def _split(self, t: float) -> int:
        """Ensure a breakpoint at ``t``; return its segment index."""
        times = self._times
        i = bisect_right(times, t) - 1
        if i < 0:
            # Before the first breakpoint: usage there is zero.
            times.insert(0, t)
            self._gpus.insert(0, 0)
            self._mem.insert(0, 0.0)
            return 0
        if times[i] == t:
            return i
        times.insert(i + 1, t)
        self._gpus.insert(i + 1, self._gpus[i])
        self._mem.insert(i + 1, self._mem[i])
        return i + 1

    def add(self, start: float, end: float, gpus: int, mem: float = 0.0) -> None:
        """Commit ``gpus``/``mem`` over ``[start, end)``."""
        if end <= start:
            raise ValueError(f"empty interval [{start}, {end})")
        self.ops.add_calls += 1
        i = self._split(start)
        j = self._split(end)
        for k in range(i, j):
            self._gpus[k] += gpus
            self._mem[k] += mem

    def remove(self, start: float, end: float, gpus: int, mem: float = 0.0) -> None:
        """Undo a matching :meth:`add` (used to roll back reservations)."""
        self.add(start, end, -gpus, -mem)

    def prune(self, now: float) -> None:
        """Drop breakpoints strictly before ``now`` (history is settled).

        The segment covering ``now`` becomes the new origin, so the
        timeline only ever holds the *future* capacity profile.
        """
        self.ops.prune_calls += 1
        i = bisect_right(self._times, now) - 1
        if i > 0:
            del self._times[:i]
            del self._gpus[:i]
            del self._mem[:i]

    # -- queries ----------------------------------------------------------

    def _segment_at(self, t: float) -> int:
        return max(0, bisect_right(self._times, t) - 1)

    def available(self, t: float) -> int:
        """Free GPUs at instant ``t``."""
        return self.capacity_gpus - self._gpus[self._segment_at(t)]

    def available_mem(self, t: float) -> float:
        """Free memory at instant ``t`` (infinite when untracked)."""
        if self.capacity_mem <= 0.0:
            return float("inf")
        return self.capacity_mem - self._mem[self._segment_at(t)]

    def _segment_fits(self, k: int, gpus: int, mem: float) -> bool:
        if self._gpus[k] + gpus > self.capacity_gpus:
            return False
        if mem > 0.0 and self.capacity_mem > 0.0:
            # Same slack as GPUPool.can_allocate: add/remove cycles leave
            # float residue in segment sums, which must never push a
            # full-capacity reservation into the infinite-retry lane.
            return self._mem[k] + mem <= self.capacity_mem + MEM_EPSILON
        return True

    def fits(self, start: float, duration: float, gpus: int,
             mem: float = 0.0) -> bool:
        """True when ``[start, start+duration)`` never oversubscribes."""
        end = start + duration
        times = self._times
        n = len(times)
        first = k = self._segment_at(start)
        while True:
            fits = self._segment_fits(k, gpus, mem)
            k += 1
            if not fits or k >= n or times[k] >= end:
                break
        ops = self.ops
        ops.fits_calls += 1
        ops.segments_scanned += k - first
        return fits

    def earliest_fit(self, gpus: int, duration: float, not_before: float,
                     mem: float = 0.0) -> float:
        """Earliest ``t >= not_before`` where the whole window fits.

        Raises when the request exceeds total capacity (it can never fit).
        """
        if gpus > self.capacity_gpus or (
            mem > 0.0 and self.capacity_mem > 0.0 and mem > self.capacity_mem
        ):
            raise ValueError(
                f"request ({gpus} GPUs, {mem} mem) exceeds capacity "
                f"({self.capacity_gpus} GPUs, {self.capacity_mem} mem)"
            )
        times = self._times
        n = len(times)
        candidate = not_before
        first = k = self._segment_at(not_before)
        window_end = candidate + duration
        while True:
            if not self._segment_fits(k, gpus, mem):
                # Restart the window at the next capacity change.
                k += 1
                if k >= n:  # pragma: no cover - guarded by capacity check
                    raise RuntimeError("no feasible start found")
                candidate = times[k]
                window_end = candidate + duration
                continue
            # Segment k fits; does the window extend past it?
            if k + 1 >= n or times[k + 1] >= window_end:
                break
            k += 1
        ops = self.ops
        ops.earliest_fit_calls += 1
        ops.segments_scanned += k - first + 1
        return candidate

    def as_profile(self) -> list[tuple[float, int, float]]:
        """The timeline as ``(time, gpus_used, mem_used)`` rows (debugging)."""
        return list(zip(self._times, self._gpus, self._mem))
