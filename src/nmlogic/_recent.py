"""Memo tables bounded in entries and bytes, for the grids and programs, whose weights differ.

A :class:`Recent` table keeps the values most recently added to it, at most
``entries`` of them weighing at most ``nbytes`` by the weights given when
they were added, and drops the oldest first; a value heavier than ``nbytes``
on its own is never kept.  So no table grows with the inputs it has seen:
every value is released once enough newer ones arrive.
"""

from __future__ import annotations

import threading


class Recent:
    """The values most recently added through :meth:`add`, read by :meth:`get`."""

    def __init__(self, entries: int, nbytes: int):
        self.entries, self.nbytes = entries, nbytes
        self._values: dict = {}
        self._weights: dict = {}  # by key, oldest first
        self._lock = threading.Lock()
        # The value kept under a key, or None: one C call, taking no lock.
        self.get = self._values.get

    def add(self, key, value, weight: int):
        """Keep ``value`` under ``key`` unless it alone weighs over ``nbytes``; return it.

        The lock makes an addition and its evictions one step for concurrent writers.
        """
        if weight <= self.nbytes:
            with self._lock:
                weights = self._weights
                weights.pop(key, None)
                while weights and (len(weights) >= self.entries
                                   or sum(weights.values()) + weight > self.nbytes):
                    oldest = next(iter(weights))
                    del weights[oldest], self._values[oldest]
                weights[key] = weight
                self._values[key] = value
        return value
