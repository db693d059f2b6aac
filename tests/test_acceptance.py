"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import gc
import json
import time

import numpy as np
import pytest

from toposcan.bench import StageModel, analytic_hit_rate, key_stream, make_scenario, run_scenario
from toposcan.cli import main as cli_main
from toposcan.hsic_gate import (
    BranchPair,
    GateConfig,
    _hsic,
    _rbf,
    _sq_dists,
    fuse_with_diagnostics,
)
from toposcan.scan_cache import CacheKey, ScanCache
from toposcan.scan_order import (
    GridShape,
    build_cross_indices,
    build_topoa_indices,
)
from toposcan.ssm import (
    FeatureMap,
    SsmParams,
    discretize,
    multi_direction_scan,
    scan_sequence,
)
from toposcan.topo_metrics import count_components, count_holes, topo_errors


def report_pass(number, description):
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_permutation_and_inverse_suite():
    """All rows are permutations and the scatter identity holds on [1,32]^2."""
    start = time.perf_counter()
    for h in range(1, 33):
        for w in range(1, 33):
            shape = GridShape(h, w)
            length = shape.length
            expected = np.arange(length)
            for pair in (build_topoa_indices(shape), build_cross_indices(shape)):
                for k in range(4):
                    row = pair.forward[k]
                    assert np.array_equal(np.sort(row), expected), (h, w, k)
                    assert np.array_equal(pair.inverse[k, row], expected), (h, w, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"suite took {elapsed:.1f}s, budget is 10s"
    report_pass(1, f"permutation + inverse over [1,32]^2 in {elapsed:.2f}s")


def test_criterion_2_locality_suite():
    """Diagonal-family steps have squared length in {1, 2}; Cross-Scan does not."""
    for h in range(1, 33):
        for w in range(1, 33):
            shape = GridShape(h, w)
            diag = build_topoa_indices(shape).base[0]
            anti = build_topoa_indices(shape).base[1]
            for order in (diag, anti, diag[::-1], anti[::-1]):
                i, j = np.divmod(order, shape.width)
                sq = np.diff(i) ** 2 + np.diff(j) ** 2
                assert np.all((sq == 1) | (sq == 2)), (h, w)
    # Contrast: row-major on a 2x3 grid jumps from (0,2) to (1,0).
    shape = GridShape(2, 3)
    row_major = build_cross_indices(shape).forward[0]
    i, j = np.divmod(row_major, shape.width)
    sq = np.diff(i) ** 2 + np.diff(j) ** 2
    assert sq.max() >= 5
    report_pass(2, "locality bound over [1,32]^2, with Cross-Scan counterexample")


def test_criterion_3_known_vectors():
    assert build_topoa_indices(GridShape(2, 2)).base[0].tolist() == [0, 2, 1, 3]
    assert build_topoa_indices(GridShape(3, 3)).base[0].tolist() == [0, 3, 1, 2, 4, 6, 7, 5, 8]
    assert build_topoa_indices(GridShape(2, 2)).base[1].tolist() == [1, 3, 0, 2]
    report_pass(3, "hand-traced order vectors for 2x2 and 3x3 grids")


def test_criterion_4_cache_oracle():
    """Cached output is element-identical to uncached builds under every capacity."""
    rng = np.random.default_rng(2024)
    pool = []
    seen = set()
    while len(pool) < 24:
        h, w = (int(v) for v in rng.integers(1, 65, size=2))
        if (h, w) not in seen:
            seen.add((h, w))
            pool.append(CacheKey(h, w, "host"))
    reference = {key: build_topoa_indices(key.shape) for key in pool}

    for capacity in (1, 2, 8, 64):
        cache = ScanCache(capacity=capacity)
        model = {}  # key -> last-used tick (reference LRU)
        tick = 0
        for _ in range(1000):
            key = pool[int(rng.integers(0, len(pool)))]
            expected_victim = None
            if key not in model and len(model) == capacity:
                expected_victim = min(model, key=model.get)
            pair = cache.get_or_build(key)
            ref = reference[key]
            assert np.array_equal(pair.forward, ref.forward)
            assert np.array_equal(pair.inverse, ref.inverse)
            tick += 1
            model[key] = tick
            if len(model) > capacity:
                victim = min(model, key=model.get)
                del model[victim]
                assert victim == expected_victim
                assert victim not in cache
            assert set(cache.keys()) == set(model)
            stats = cache.snapshot_stats()
            assert stats.requests == stats.hits + stats.misses
            assert stats.evictions <= stats.misses
        assert len(cache) <= capacity
    report_pass(4, "cache oracle equivalence and LRU discipline for M in {1,2,8,64}")


def test_criterion_5_amortization():
    """One construction per key; warm requests cost < 50% of the cold build."""
    built = []

    def counting_builder(shape):
        built.append(shape)
        return build_topoa_indices(shape)

    cache = ScanCache(capacity=8, builder=counting_builder)
    key = CacheKey(128, 128, "host")
    gc.disable()
    try:
        t0 = time.perf_counter()
        cache.get_or_build(key)
        cold = time.perf_counter() - t0
        warm_times = []
        for _ in range(99):
            t0 = time.perf_counter()
            cache.get_or_build(key)
            warm_times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    assert len(built) == 1, "repeated requests must construct exactly once"
    assert cache.snapshot_stats().requests == 100
    warm_mean = sum(warm_times) / len(warm_times)
    assert warm_mean < 0.5 * cold, f"warm {warm_mean:.2e}s vs cold {cold:.2e}s"
    report_pass(
        5, f"amortization: warm/cold request cost ratio {warm_mean / cold:.3f} (< 0.5)"
    )


def test_criterion_6_hit_rate_reproduction():
    """Measured hit rate equals the analytic oracle; scenario ordering holds."""
    stages = StageModel()
    rates = {}
    for name in ("fixed", "two-scale", "multi-scale", "unique"):
        scenario = make_scenario(name, sample_count=100, seed=0)
        unique = len({k for sample in key_stream(scenario, stages) for k in sample})
        report = run_scenario(scenario, stages, cache_capacity=max(64, unique))
        analytic = analytic_hit_rate(scenario, stages)
        assert report.hit_rate_pct == analytic, (name, report.hit_rate_pct, analytic)
        rates[scenario.name] = report.hit_rate_pct
    assert (
        rates["fixed"]
        >= rates["two_scale"]
        >= rates["multi_scale"]
        >= rates["unique_per_sample"]
    ), rates
    report_pass(
        6,
        "hit rates match the analytic oracle exactly; ordering "
        f"{rates['fixed']:.2f} >= {rates['two_scale']:.2f} >= "
        f"{rates['multi_scale']:.2f} >= {rates['unique_per_sample']:.2f}",
    )


def test_criterion_7_ssm_oracle():
    """Recurrence matches the unrolled kernel; identity mode is bit-exact."""
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        params = SsmParams(
            a=-rng.uniform(0.05, 4.0, n),
            b=rng.standard_normal(n),
            c=rng.standard_normal(n),
            d=float(rng.standard_normal()),
            delta=float(rng.uniform(0.01, 1.0)),
        )
        t_len = int(rng.integers(1, 65))
        x = rng.standard_normal(t_len)
        y = scan_sequence(x, params)
        a_bar, b_bar = discretize(params)
        kernel = np.array([float(params.c @ (a_bar**p * b_bar)) for p in range(t_len)])
        oracle = np.array(
            [kernel[: t + 1][::-1] @ x[: t + 1] + params.d * x[t] for t in range(t_len)]
        )
        np.testing.assert_allclose(y, oracle, rtol=1e-10, atol=1e-12)

    shape = GridShape(9, 7)
    fm = FeatureMap(data=rng.standard_normal((2, 3, shape.length)), shape=shape)
    # c = 0 and d = 1: each of the four directions returns its input bit-exactly.
    passthrough = SsmParams(
        a=[-1.0, -2.0, -3.0, -4.0], b=np.ones(4), c=np.zeros(4), d=1.0, delta=0.1
    )
    for indices in (build_topoa_indices(shape), build_cross_indices(shape)):
        out = multi_direction_scan(fm, indices, passthrough)
        assert np.array_equal(out.data, 4.0 * fm.data)
    report_pass(7, "recurrence vs unrolled kernel (200 cases) and bit-exact identity mode")


def test_criterion_8_hsic_suite():
    """Estimator vs trace oracle, degenerate cases, and fusion arithmetic."""
    rng = np.random.default_rng(123)
    for _ in range(500):
        c = int(rng.integers(2, 65))
        gc_, gt_ = rng.standard_normal((2, c, c + 2))
        kc, kt = gc_ @ gc_.T, gt_ @ gt_.T
        estimate = _hsic(np.stack((kc, kt)))
        h = np.eye(c) - np.ones((c, c)) / c
        oracle = float(np.trace(kc @ h @ kt @ h) / (c - 1) ** 2)
        assert estimate == pytest.approx(oracle, rel=1e-10, abs=1e-12)
        assert estimate >= -1e-12

    # Constant branch: identical descriptor rows collapse to an all-ones kernel.
    ones = _rbf(_sq_dists(np.tile(np.arange(5.0), (6, 1))), 1.0)
    g = rng.standard_normal((6, 8))
    assert abs(_hsic(np.stack((g @ g.T, ones)))) <= 1e-12

    f = rng.standard_normal((2, 6, 40))
    fused, _ = fuse_with_diagnostics(BranchPair(f_cross=f, f_topoa=f.copy()))
    np.testing.assert_allclose(fused, f, rtol=1e-12)

    ft = rng.standard_normal((1, 5, 30))
    fc = np.tile(rng.standard_normal((1, 1, 30)), (1, 5, 1))
    out, diags = fuse_with_diagnostics(BranchPair(f_cross=fc, f_topoa=ft), GateConfig())
    assert diags[0].hsic == 0.0 and diags[0].w == 0.5
    np.testing.assert_allclose(out, 0.4 * fc + 0.6 * ft, rtol=1e-12, atol=1e-12)
    report_pass(8, "estimator vs trace oracle (500 cases), degenerate and fusion checks")


def test_criterion_9_topology_oracle():
    """Exhaustive 4x4 comparison against bit-level flood-fill oracles."""
    start = time.perf_counter()
    neigh8 = [0] * 16
    neigh4 = [0] * 16
    for i in range(4):
        for j in range(4):
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if di == dj == 0:
                        continue
                    ni, nj = i + di, j + dj
                    if 0 <= ni < 4 and 0 <= nj < 4:
                        bit = 1 << (ni * 4 + nj)
                        neigh8[i * 4 + j] |= bit
                        if abs(di) + abs(dj) == 1:
                            neigh4[i * 4 + j] |= bit
    border = 0
    for i in range(4):
        for j in range(4):
            if i in (0, 3) or j in (0, 3):
                border |= 1 << (i * 4 + j)

    def spread(cells, neigh, allowed):
        frontier = cells
        region = cells
        while frontier:
            grow = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                grow |= neigh[b.bit_length() - 1]
            frontier = grow & allowed & ~region
            region |= frontier
        return region

    def component_count(cells, neigh):
        count = 0
        while cells:
            seed = cells & -cells
            region = seed
            frontier = seed
            while frontier:
                grow = 0
                f = frontier
                while f:
                    b = f & -f
                    f ^= b
                    grow |= neigh[b.bit_length() - 1]
                frontier = grow & cells & ~region
                region |= frontier
            count += 1
            cells &= ~region
        return count

    grids = ((np.arange(65536)[:, None] >> np.arange(16)) & 1).astype(bool)
    grids = grids.reshape(-1, 4, 4)
    for bits in range(65536):
        mask = grids[bits]
        fg = bits
        bg = ~bits & 0xFFFF
        reachable = spread(bg & border, neigh4, bg) if bg & border else 0
        interior = bg & ~reachable
        assert count_components(mask) == component_count(fg, neigh8), bits
        assert count_holes(mask) == component_count(interior, neigh4), bits

    annulus = np.zeros((5, 5), dtype=bool)
    annulus[1:4, 1:4] = True
    annulus[2, 2] = False
    assert (count_components(annulus), count_holes(annulus)) == (1, 1)
    errors = topo_errors(annulus, annulus)
    assert (errors.cce, errors.hce, errors.etm) == (0, 0, 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"suite took {elapsed:.1f}s, budget is 30s"
    report_pass(9, f"exhaustive 4x4 oracle equivalence in {elapsed:.2f}s")


def test_criterion_10_determinism(capsys):
    """Same seed: identical key streams, hit counts, and stable report fields."""
    scenario = make_scenario("multi-scale", sample_count=12, seed=42)
    stages = StageModel(strides=(8, 16, 32))
    assert key_stream(scenario, stages) == key_stream(scenario, stages)
    first = run_scenario(scenario, stages, cache_capacity=64)
    second = run_scenario(scenario, stages, cache_capacity=64)
    assert first.stable_dict() == second.stable_dict()
    assert first.hit_rate_pct == second.hit_rate_pct
    assert first.total_requests == second.total_requests

    args = ["gate", "diag", "--b", "2", "--c", "6", "--l", "96", "--seed", "17"]
    assert cli_main(args) == 0
    out1 = capsys.readouterr().out
    assert cli_main(args) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    for item1, item2 in zip(json.loads(out1), json.loads(out2)):
        assert item1["hsic"] == item2["hsic"]
        assert item1["w"] == item2["w"]
    report_pass(10, "bench reports and gate diagnostics reproduce bit-identically")
