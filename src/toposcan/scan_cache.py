"""LRU cache that amortizes scan-index construction across repeated shapes.

Index pairs are keyed by (height, width, device tag), so each device tag
keeps its own entries. A hit returns the stored pair without rebuilding;
a miss builds outside the lock, registers the pair, and evicts the
least-recently-used entry once capacity is exceeded. Misses are
single-flight: a caller that requests a key while it is being built
waits for that build, so concurrent misses build each key once.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from concurrent.futures import Future
from dataclasses import asdict, dataclass, replace

from .scan_order import GridShape, IndexPair, _require_instance, _require_int, build_topoa_indices

__all__ = ["CacheKey", "CacheStats", "ScanCache"]

DEFAULT_CAPACITY = 64


@dataclass(frozen=True)
class CacheKey:
    """Lookup key: grid height, grid width, and a placement tag.

    Height and width follow :class:`GridShape`'s rule (integers >= 1, not
    bools), so a malformed key fails here, before any counter moves.
    """

    height: int
    width: int
    device: str = "host"

    def __post_init__(self) -> None:
        shape = GridShape(self.height, self.width)
        object.__setattr__(self, "height", shape.height)
        object.__setattr__(self, "width", shape.width)
        if not isinstance(self.device, str) or not self.device:
            raise ValueError(f"device tag must be a non-empty string, got {self.device!r}")

    @property
    def shape(self) -> GridShape:
        return GridShape(self.height, self.width)


@dataclass
class CacheStats:
    """Counters for cache accounting.

    ``requests == hits + misses`` holds at every snapshot, ``misses``
    equals the number of builds, and ``evictions <= misses``. A request
    that waits on another caller's in-flight build counts as a hit.
    ``build_time_total`` accumulates seconds spent in miss-path requests
    (index construction included), ``lookup_time_total`` the seconds
    spent in hit-path requests.
    """

    requests: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    build_time_total: float = 0.0
    lookup_time_total: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / max(self.requests, 1)

    def as_dict(self) -> dict:
        return {**asdict(self), "hit_rate": self.hit_rate}


class ScanCache:
    """Thread-safe, single-flight LRU cache of scan index pairs.

    Entry order is recency order: a hit moves its key to the end and
    eviction pops the front, so eviction is deterministic for a given
    request sequence.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        builder: Callable[[GridShape], IndexPair] = build_topoa_indices,
    ):
        self._capacity = _require_int("capacity", capacity, 1)
        self._builder = _require_instance("builder", builder, Callable)
        self._entries: "OrderedDict[CacheKey, IndexPair]" = OrderedDict()
        self._in_flight: dict[CacheKey, Future] = {}
        self._lock = threading.Lock()
        self._stats = CacheStats()

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[CacheKey]:
        with self._lock:
            return list(self._entries)

    def get_or_build(self, key: CacheKey) -> IndexPair:
        """Return the index pair for ``key``, building it on a miss.

        The first caller to miss a key builds it; callers arriving while
        that build runs wait for it and count as hits. If the build
        raises, every waiter gets the same exception and nothing is
        retained, so the next request builds again.

        Raises:
            ValueError: if ``key`` is not a :class:`CacheKey`.
        """
        _require_instance("key", key, CacheKey)
        start = time.perf_counter()
        with self._lock:
            self._stats.requests += 1
            indices = self._entries.get(key)
            if indices is not None:
                self._stats.hits += 1
                self._entries.move_to_end(key)
                self._stats.lookup_time_total += time.perf_counter() - start
                return indices
            pending = self._in_flight.get(key)
            if pending is None:
                self._stats.misses += 1
                self._in_flight[key] = building = Future()
            else:
                self._stats.hits += 1
        if pending is not None:
            indices = pending.result()
            with self._lock:
                self._stats.lookup_time_total += time.perf_counter() - start
            return indices
        try:
            indices = self._builder(key.shape)
        except BaseException as exc:
            with self._lock:
                del self._in_flight[key]
            building.set_exception(exc)
            raise
        with self._lock:
            del self._in_flight[key]
            self._entries[key] = indices
            if len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._stats.evictions += 1
            self._stats.build_time_total += time.perf_counter() - start
        building.set_result(indices)
        return indices

    def snapshot_stats(self) -> CacheStats:
        """Consistent point-in-time copy of the counters."""
        with self._lock:
            return replace(self._stats)
