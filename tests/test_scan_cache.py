"""Cache behavior: hits, LRU eviction, key validation, stats, and concurrency."""

import threading
import time

import numpy as np
import pytest

from toposcan.scan_cache import CacheKey, ScanCache
from toposcan.scan_order import GridShape, build_topoa_indices


def key(h, w, device="host"):
    return CacheKey(h, w, device)


class TestBasics:
    def test_cold_then_warm(self):
        cache = ScanCache(capacity=8)
        k = key(4, 4)
        first = cache.get_or_build(k)
        second = cache.get_or_build(k)
        assert first is second
        stats = cache.snapshot_stats()
        assert (stats.requests, stats.hits, stats.misses) == (2, 1, 1)

    def test_returns_correct_indices(self):
        cache = ScanCache(capacity=8)
        for h, w in [(1, 1), (3, 5), (7, 2)]:
            pair = cache.get_or_build(key(h, w))
            reference = build_topoa_indices(GridShape(h, w))
            assert np.array_equal(pair.forward, reference.forward)
            assert np.array_equal(pair.inverse, reference.inverse)

    def test_lru_eviction_a_b_a_c(self):
        cache = ScanCache(capacity=2)
        a, b, c = key(2, 2), key(3, 3), key(4, 4)
        for k in (a, b, a, c):
            cache.get_or_build(k)
        # A was refreshed, so C's insertion evicted B.
        assert a in cache and c in cache and b not in cache
        stats = cache.snapshot_stats()
        assert (stats.requests, stats.hits, stats.misses, stats.evictions) == (4, 1, 3, 1)
        cache.get_or_build(b)
        assert cache.snapshot_stats().misses == 4

    def test_hundred_repeats_hit_rate(self):
        cache = ScanCache(capacity=4)
        k = key(6, 6)
        for _ in range(100):
            cache.get_or_build(k)
        stats = cache.snapshot_stats()
        assert (stats.requests, stats.hits, stats.misses) == (100, 99, 1)
        assert stats.hit_rate == 0.99

    def test_fresh_cache_stats_are_zero(self):
        stats = ScanCache(capacity=1).snapshot_stats()
        assert stats.as_dict() == {
            "requests": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "hit_rate": 0.0,
            "build_time_total": 0.0,
            "lookup_time_total": 0.0,
        }

    def test_capacity_zero_rejected(self):
        with pytest.raises(ValueError):
            ScanCache(capacity=0)

    @pytest.mark.parametrize("capacity", [2.5, True, "3", None])
    def test_capacity_takes_integers_only(self, capacity):
        with pytest.raises(ValueError, match="must be an integer"):
            ScanCache(capacity=capacity)

    def test_numpy_integer_capacity_becomes_int(self):
        capacity = ScanCache(capacity=np.int64(3)).capacity
        assert capacity == 3 and type(capacity) is int

    def test_size_never_exceeds_capacity(self):
        cache = ScanCache(capacity=3)
        for h in range(1, 10):
            cache.get_or_build(key(h, 1))
            assert len(cache) <= 3

    def test_devices_keep_separate_entries(self):
        cache = ScanCache(capacity=4)
        host = cache.get_or_build(key(3, 3))
        accel = cache.get_or_build(key(3, 3, "accel:0"))
        assert host is not accel
        assert np.array_equal(host.forward, accel.forward)
        assert cache.snapshot_stats().misses == 2


class TestKeyValidation:
    @pytest.mark.parametrize(
        "h, w", [(2.5, 3), (3, 2.5), (True, 3), (3, False), ("3", 3), (0, 3), (3, -1)]
    )
    def test_malformed_dimensions_rejected(self, h, w):
        with pytest.raises(ValueError):
            CacheKey(h, w)

    @pytest.mark.parametrize("device", ["", 123, b"host", ("a",), None])
    def test_malformed_device_rejected(self, device):
        with pytest.raises(ValueError, match="non-empty string"):
            CacheKey(2, 2, device)

    def test_numpy_integers_normalize_to_the_int_key(self):
        k = CacheKey(np.int64(4), np.int32(5))
        assert type(k.height) is int and type(k.width) is int
        assert k == CacheKey(4, 5)


class TestLruDiscipline:
    def test_random_workload_matches_reference_model(self):
        rng = np.random.default_rng(1234)
        capacity = 4
        cache = ScanCache(capacity=capacity)
        # Independent reference: dict of key -> last-used tick, evicting
        # the minimal tick, alongside reference-built indices.
        model: dict[CacheKey, int] = {}
        tick = 0
        hits = misses = evictions = 0
        pool = [key(int(h), int(w)) for h, w in rng.integers(1, 9, size=(12, 2))]
        for _ in range(600):
            k = pool[int(rng.integers(0, len(pool)))]
            pair = cache.get_or_build(k)
            assert np.array_equal(pair.forward, build_topoa_indices(k.shape).forward)
            tick += 1
            if k in model:
                hits += 1
            else:
                misses += 1
            model[k] = tick
            if len(model) > capacity:
                victim = min(model, key=model.get)
                del model[victim]
                evictions += 1
            assert set(cache.keys()) == set(model)
            stats = cache.snapshot_stats()
            assert stats.requests == stats.hits + stats.misses
            assert (stats.hits, stats.misses, stats.evictions) == (hits, misses, evictions)
            assert stats.evictions <= stats.misses

    def test_amortization_single_construction(self):
        built = []

        def counting_builder(shape):
            built.append(shape)
            return build_topoa_indices(shape)

        cache = ScanCache(capacity=4, builder=counting_builder)
        for _ in range(50):
            cache.get_or_build(key(16, 16))
        assert len(built) == 1

    def test_every_warm_request_is_faster_than_the_build(self):
        import gc
        import time

        cache = ScanCache(capacity=4)
        k = key(256, 256)
        gc.disable()
        try:
            t0 = time.perf_counter()
            cache.get_or_build(k)
            cold = time.perf_counter() - t0
            warm = []
            for _ in range(30):
                t0 = time.perf_counter()
                cache.get_or_build(k)
                warm.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        assert max(warm) < cold


class TestConcurrency:
    def test_racing_misses_on_one_key_retain_single_entry(self):
        built = []

        def counting_builder(shape):
            built.append(shape)
            return build_topoa_indices(shape)

        cache = ScanCache(capacity=4, builder=counting_builder)
        k = key(24, 24)
        barrier = threading.Barrier(8)
        results = []

        def worker():
            barrier.wait()
            results.append(cache.get_or_build(k))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == 1
        reference = build_topoa_indices(GridShape(24, 24))
        for pair in results:
            assert np.array_equal(pair.forward, reference.forward)
            assert np.array_equal(pair.inverse, reference.inverse)
        stats = cache.snapshot_stats()
        assert stats.requests == 8
        assert stats.requests == stats.hits + stats.misses
        assert stats.misses == 1
        assert built == [GridShape(24, 24)]

    def test_failed_build_reaches_every_waiter_and_leaves_nothing(self):
        threads_n = 8
        calls = []
        fail = True

        def builder(shape):
            calls.append(shape)
            if fail:
                # Hold the build until every racer has joined it.
                deadline = time.monotonic() + 10.0
                while cache.snapshot_stats().requests < threads_n:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
                raise RuntimeError("build failed")
            return build_topoa_indices(shape)

        cache = ScanCache(capacity=4, builder=builder)
        k = key(5, 7)
        barrier = threading.Barrier(threads_n)
        errors = []

        def worker():
            barrier.wait()
            try:
                cache.get_or_build(k)
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == ["build failed"] * threads_n
        assert len(calls) == 1
        assert len(cache) == 0
        stats = cache.snapshot_stats()
        assert (stats.requests, stats.hits, stats.misses) == (threads_n, threads_n - 1, 1)

        fail = False
        pair = cache.get_or_build(k)
        assert np.array_equal(pair.forward, build_topoa_indices(GridShape(5, 7)).forward)
        assert len(calls) == 2 and len(cache) == 1
        assert cache.snapshot_stats().misses == 2

    def test_parallel_requests_once_key_set(self):
        cache = ScanCache(capacity=16)
        pool = [key(h, w) for h in (2, 3, 5) for w in (2, 4)]
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(80):
                k = pool[int(rng.integers(0, len(pool)))]
                pair = cache.get_or_build(k)
                ref = build_topoa_indices(k.shape)
                if not np.array_equal(pair.forward, ref.forward):
                    errors.append(k)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.snapshot_stats()
        assert stats.requests == 6 * 80
        assert stats.requests == stats.hits + stats.misses
