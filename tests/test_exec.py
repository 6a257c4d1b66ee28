"""Tests for the parallel execution layer (``repro.exec``).

The contract under test: per-year randomness is derived from
``(world seed, year)`` alone, so captures are byte-identical at any worker
count and in any simulation order, and the capture cache returns exactly
what synthesis would have produced.
"""

import struct

import numpy as np
import pytest

from repro.core.campaigns import identify_scans
from repro.exec import CaptureCache
from repro.simulation import TelescopeWorld

SEED = 31
YEARS = [2015, 2020]
DAYS = 4
MAX_PACKETS = 24_000
MIN_SCANS = 60


def _simulate(workers, years=YEARS, seed=SEED, cache=None):
    world = TelescopeWorld(rng=seed)
    return world.simulate_years(
        years, days=DAYS, max_packets=MAX_PACKETS, min_scans=MIN_SCANS,
        workers=workers, cache=cache,
    )


def _flip_meta_byte(data):
    """XOR one byte in the middle of the JSON metadata block."""
    (meta_len,) = struct.unpack("<I", data[8:12])
    at = 12 + meta_len // 2
    return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:]


def _flip_chunk_count(data):
    """XOR the high byte of the first chunk's packet count: the header then
    claims ~4 billion packets, far more than the file holds."""
    (meta_len,) = struct.unpack("<I", data[8:12])
    at = 12 + meta_len + 3
    return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:]


#: Ways a cache entry gets damaged on disk; each must read as a miss.
DAMAGE = {
    "truncated": lambda data: data[: len(data) // 2],
    "tail-cut": lambda data: data[:-7],
    "emptied": lambda data: b"",
    "garbage": lambda data: bytes(range(256)) * 8,
    "meta-byte-flipped": _flip_meta_byte,
    "chunk-count-flipped": _flip_chunk_count,
    "meta-field-renamed": lambda data: data.replace(
        b'"coverage_cap"', b'"coverage_cbp"', 1),
}


def _assert_batches_identical(a, b):
    cols_a, cols_b = a.columns(), b.columns()
    assert cols_a.keys() == cols_b.keys()
    for name in cols_a:
        assert cols_a[name].dtype == cols_b[name].dtype, name
        assert np.array_equal(cols_a[name], cols_b[name]), name


def _assert_results_identical(a, b):
    assert a.year == b.year
    assert a.packet_scale == b.packet_scale
    assert a.scan_scale == b.scan_scale
    assert a.background_sources == b.background_sources
    assert a.backscatter_packets == b.backscatter_packets
    assert a.coverage_cap == b.coverage_cap
    assert a.campaigns == b.campaigns
    _assert_batches_identical(a.batch, b.batch)


def _assert_scan_tables_identical(a, b):
    assert len(a) == len(b)
    for name in ("src_ip", "start", "end", "packets", "distinct_dsts",
                 "primary_port", "tool", "match_fraction", "speed_pps",
                 "coverage", "sequential", "window_mode", "ttl_mode"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for pa, pb in zip(a.port_sets, b.port_sets):
        assert np.array_equal(pa, pb)


class TestWorkerDeterminism:
    def test_serial_matches_parallel(self):
        serial = _simulate(workers=0)
        for workers in (1, 4):
            parallel = _simulate(workers=workers)
            for year in YEARS:
                _assert_results_identical(serial[year], parallel[year])

    def test_scan_tables_identical_across_worker_counts(self):
        serial = _simulate(workers=0)
        parallel = _simulate(workers=4)
        for year in YEARS:
            _assert_scan_tables_identical(
                identify_scans(serial[year].batch),
                identify_scans(parallel[year].batch),
            )

    def test_year_order_is_irrelevant(self):
        forward = _simulate(workers=0, years=YEARS)
        shuffled = _simulate(workers=0, years=list(reversed(YEARS)))
        for year in YEARS:
            _assert_results_identical(forward[year], shuffled[year])

    def test_single_year_matches_decade_member(self):
        alone = _simulate(workers=0, years=[YEARS[-1]])
        together = _simulate(workers=0, years=YEARS)
        _assert_results_identical(alone[YEARS[-1]], together[YEARS[-1]])

    def test_parallel_results_share_parent_objects(self):
        world = TelescopeWorld(rng=SEED)
        results = world.simulate_years(
            YEARS, days=DAYS, max_packets=MAX_PACKETS, min_scans=MIN_SCANS,
            workers=2,
        )
        for result in results.values():
            assert result.telescope is world.telescope
            assert result.registry is world.registry

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            _simulate(workers=-1)

    def test_duplicate_years_simulated_once(self):
        results = _simulate(workers=0, years=[2020, 2020, 2015])
        assert sorted(results) == [2015, 2020]


class TestCaptureCache:
    def test_miss_then_hit(self, tmp_path):
        cache = CaptureCache(tmp_path / "cache")
        first = _simulate(workers=0, cache=cache)
        assert cache.hits == 0
        assert cache.misses == len(YEARS)
        assert all(not r.cache_hit for r in first.values())
        assert len(cache.entries()) == len(YEARS)

        second = _simulate(workers=0, cache=cache)
        assert cache.hits == len(YEARS)
        assert all(r.cache_hit for r in second.values())
        for year in YEARS:
            _assert_results_identical(first[year], second[year])

    def test_hit_attaches_live_world_objects(self, tmp_path):
        cache = CaptureCache(tmp_path / "cache")
        _simulate(workers=0, years=[2020], cache=cache)
        world = TelescopeWorld(rng=SEED)
        result = world.simulate_years(
            [2020], days=DAYS, max_packets=MAX_PACKETS, min_scans=MIN_SCANS,
            cache=cache,
        )[2020]
        assert result.cache_hit
        assert result.telescope is world.telescope
        assert result.registry is world.registry

    def test_key_sensitivity(self, tmp_path):
        cache = CaptureCache(tmp_path / "cache")
        world_a = TelescopeWorld(rng=SEED)
        world_b = TelescopeWorld(rng=SEED + 1)
        base = cache.key_for(world_a, 2020, days=DAYS,
                             max_packets=MAX_PACKETS, min_scans=MIN_SCANS)
        assert base == cache.key_for(world_a, 2020, days=DAYS,
                                     max_packets=MAX_PACKETS,
                                     min_scans=MIN_SCANS)
        others = {
            "seed": cache.key_for(world_b, 2020, days=DAYS,
                                  max_packets=MAX_PACKETS,
                                  min_scans=MIN_SCANS),
            "year": cache.key_for(world_a, 2015, days=DAYS,
                                  max_packets=MAX_PACKETS,
                                  min_scans=MIN_SCANS),
            "days": cache.key_for(world_a, 2020, days=DAYS + 1,
                                  max_packets=MAX_PACKETS,
                                  min_scans=MIN_SCANS),
            "budget": cache.key_for(world_a, 2020, days=DAYS,
                                    max_packets=MAX_PACKETS + 1,
                                    min_scans=MIN_SCANS),
        }
        assert base not in others.values()
        assert len(set(others.values())) == len(others)

    def test_parallel_run_populates_and_reuses_cache(self, tmp_path):
        cache = CaptureCache(tmp_path / "cache")
        first = _simulate(workers=2, cache=cache)
        warm = CaptureCache(tmp_path / "cache")
        second = _simulate(workers=2, cache=warm)
        assert warm.hits == len(YEARS)
        assert warm.misses == 0
        for year in YEARS:
            _assert_results_identical(first[year], second[year])

    def test_damaged_entry_is_a_miss(self, tmp_path):
        cache = CaptureCache(tmp_path / "cache")
        world = TelescopeWorld(rng=SEED)
        key = cache.key_for(world, 2020, days=DAYS, max_packets=MAX_PACKETS,
                            min_scans=MIN_SCANS)
        # A foreign trace squatting on the key's filename must be ignored.
        from repro.telescope.trace import write_trace
        from repro.telescope.packet import PacketBatch
        write_trace(cache.path_for(key), PacketBatch.empty(),
                    meta={"cache_key": "not-the-key"})
        assert cache.load(key, world) is None
        assert cache.misses == 1

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_entry_is_resimulated(self, tmp_path, damage):
        def simulate(cache=None):
            return TelescopeWorld(rng=SEED).simulate_year(
                2015, days=DAYS, max_packets=MAX_PACKETS, min_scans=MIN_SCANS,
                cache=cache)

        uncached = simulate()
        cache = CaptureCache(tmp_path / "cache")
        simulate(cache)
        (path,) = cache.entries()
        path.write_bytes(DAMAGE[damage](path.read_bytes()))

        again = simulate(cache)
        assert not again.cache_hit
        _assert_results_identical(again, uncached)
        # The re-simulation replaced the damaged file.
        hit = simulate(cache)
        assert hit.cache_hit
        _assert_results_identical(hit, uncached)

    def test_clear(self, tmp_path):
        cache = CaptureCache(tmp_path / "cache")
        _simulate(workers=0, years=[2020], cache=cache)
        assert cache.clear() == 1
        assert cache.entries() == []


class TestCacheMaintenance:
    def _filled(self, tmp_path):
        cache = CaptureCache(tmp_path / "cache")
        _simulate(workers=0, cache=cache)  # one entry per year in YEARS
        return cache

    def test_usage_orders_lru_first(self, tmp_path):
        import os

        cache = self._filled(tmp_path)
        rows = cache.usage()
        assert len(rows) == len(YEARS)
        assert all(row.bytes > 0 for row in rows)
        # force a known order, then check it is honoured
        os.utime(rows[0].path, (2_000_000, 2_000_000))
        os.utime(rows[1].path, (1_000_000, 1_000_000))
        reordered = cache.usage()
        assert reordered[0].key == rows[1].key
        assert reordered[-1].key == rows[0].key
        assert cache.total_bytes() == sum(row.bytes for row in rows)

    def test_load_refreshes_lru_position(self, tmp_path):
        import os

        cache = self._filled(tmp_path)
        rows = cache.usage()
        for row, stamp in zip(rows, (1_000_000, 2_000_000)):
            os.utime(row.path, (stamp, stamp))
        oldest = cache.usage()[0]
        # a hit on the oldest entry must move it to most-recently-used
        world = TelescopeWorld(rng=SEED)
        year = next(
            y for y in YEARS
            if cache.key_for(world, y, days=DAYS, max_packets=MAX_PACKETS,
                             min_scans=MIN_SCANS) == oldest.key
        )
        assert cache.load(oldest.key, world) is not None
        assert cache.usage()[-1].key == oldest.key

    def test_prune_evicts_oldest_until_budget(self, tmp_path):
        import os

        cache = self._filled(tmp_path)
        rows = cache.usage()
        os.utime(rows[0].path, (1_000_000, 1_000_000))
        os.utime(rows[1].path, (2_000_000, 2_000_000))
        keep = rows[1]
        removed = cache.prune(max_bytes=keep.bytes)
        assert [row.key for row in removed] == [rows[0].key]
        assert not rows[0].path.exists()
        assert keep.path.exists()
        assert cache.total_bytes() <= keep.bytes
        # already within budget: nothing further happens
        assert cache.prune(max_bytes=keep.bytes) == []

    def test_prune_to_zero_clears_everything(self, tmp_path):
        cache = self._filled(tmp_path)
        removed = cache.prune(max_bytes=0)
        assert len(removed) == len(YEARS)
        assert cache.entries() == []
        with pytest.raises(ValueError):
            cache.prune(max_bytes=-1)
