"""Single global event queue.

Events carry (time, sequence) keys: simultaneous events run in insertion
order, so a run is a pure function of its inputs. The loop is strictly
single-threaded; determinism outranks speed.

``schedule_at(when, fn, *args)`` stores ``fn`` and its arguments in the heap
entry ``(when, seq, fn, args)`` and the loop calls ``fn(*args)``, so callers
pass a bound method and its arguments instead of building a closure per
event. ``seq`` is unique, so two entries never compare ``fn`` or ``args``.
Every event goes through ``schedule_at``.

The heap is the one record of the work left: a pending lease, control
message, link arrival, scenario event or timer is an entry in it, so
``pending()`` tells whether anything but a given set of events is left, and
``run`` ends when the heap is empty.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Tuple

_Entry = Tuple[int, int, Callable[..., None], Tuple[Any, ...]]


class Simulator:
    def __init__(self) -> None:
        self.now: int = 0
        self._heap: List[_Entry] = []
        self._seq = 0

    def schedule_at(self, when: int, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at simulated time ``when``."""
        if when < self.now:
            raise ValueError(f"cannot schedule into the past: {when} < {self.now}")
        heapq.heappush(self._heap, (when, self._seq, fn, args))
        self._seq += 1

    def schedule(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        self.schedule_at(self.now + delay, fn, *args)

    def pending(self) -> int:
        return len(self._heap)

    def run(self, until: float = math.inf) -> None:
        """Process events until the queue drains (or past ``until``)."""
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] <= until:
            when, _, fn, args = pop(heap)
            self.now = when
            fn(*args)
