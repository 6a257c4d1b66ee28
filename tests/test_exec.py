"""Tests for the parallel execution layer (``repro.exec``).

The contract under test: per-year randomness is derived from
``(world seed, year)`` alone, so captures are byte-identical at any worker
count and in any simulation order, and the capture cache returns exactly
what synthesis would have produced.
"""

import dataclasses
import json
import os
import struct
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.exec.cache as cache_module
from repro.core.campaigns import identify_scans
from repro.enrichment.types import ScannerType
from repro.exec import CaptureCache
from repro.scanners.base import Tool
from repro.simulation import TelescopeWorld
from repro.simulation.campaigns import CampaignSpec
from repro.simulation.config import year_config
from repro.simulation.world import SimulationResult
from repro.telescope.packet import PacketBatch
from repro.telescope.trace import _COLUMN_ORDER, TraceWriter
from tests.test_trace import sample_batch

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


def _first_chunk(data):
    """Byte offset of the first chunk header: past the magic, metadata,
    array block and header CRC."""
    (meta_len,) = struct.unpack("<I", data[8:12])
    (arrays_len,) = struct.unpack("<I", data[12 + meta_len:16 + meta_len])
    return 16 + meta_len + arrays_len + 4


def _flip_chunk_count(data):
    """XOR the high byte of the first chunk's packet count: the header then
    claims ~4 billion packets, far more than the file holds."""
    at = _first_chunk(data) + 3
    return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:]


def _flip_packet_byte(data):
    """XOR one byte inside the first chunk's packet columns."""
    at = _first_chunk(data) + 8 + 1000
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


def _flip_campaign_byte(data):
    """XOR one byte in the middle of the array block (campaign columns)."""
    (meta_len,) = struct.unpack("<I", data[8:12])
    (arrays_len,) = struct.unpack("<I", data[12 + meta_len:16 + meta_len])
    at = 16 + meta_len + arrays_len // 2
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


#: Ways a cache entry gets damaged on disk; each must read as a miss.
DAMAGE = {
    "truncated": lambda data: data[: len(data) // 2],
    "tail-cut": lambda data: data[:-7],
    "emptied": lambda data: b"",
    "garbage": lambda data: bytes(range(256)) * 8,
    "meta-byte-flipped": _flip_meta_byte,
    "chunk-count-flipped": _flip_chunk_count,
    "packet-byte-flipped": _flip_packet_byte,
    "campaign-byte-flipped": _flip_campaign_byte,
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


def _write_schema_1_entry(path, result, key):
    """``result`` as cache schema 1 stored it: an ``RTRACE01`` file whose
    metadata holds the campaign list as JSON."""
    meta = {
        "cache_key": key,
        "year": result.year,
        "days": result.days,
        "packet_scale": result.packet_scale,
        "scan_scale": result.scan_scale,
        "background_sources": result.background_sources,
        "backscatter_packets": result.backscatter_packets,
        "coverage_cap": result.coverage_cap,
        "campaigns": [{
            "campaign_id": s.campaign_id, "cohort": s.cohort,
            "scanner_type": s.scanner_type.value, "tool": s.tool.value,
            "country": s.country, "src_ips": list(s.src_ips),
            "ports": list(s.ports), "start": s.start,
            "rate_pps": s.rate_pps, "telescope_hits": s.telescope_hits,
            "ipv4_coverage": s.ipv4_coverage, "sequential": s.sequential,
            "fingerprintable": s.fingerprintable,
            "organisation": s.organisation,
        } for s in result.campaigns],
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    cols = result.batch.columns()
    body = b"".join(np.ascontiguousarray(cols[name], dtype=dtype).tobytes()
                    for name, dtype in _COLUMN_ORDER)
    path.write_bytes(b"RTRACE01" + struct.pack("<I", len(blob)) + blob
                     + struct.pack("<I", len(result.batch)) + body
                     + struct.pack("<I", 0))


class TestSchemaBump:
    """Schema 2 stores campaigns as columns; schema-1 entries are misses."""

    def _simulate(self, cache=None):
        return TelescopeWorld(rng=SEED).simulate_year(
            2015, days=DAYS, max_packets=MAX_PACKETS, min_scans=MIN_SCANS,
            cache=cache)

    def _keys(self, cache, monkeypatch):
        world = TelescopeWorld(rng=SEED)
        args = dict(days=DAYS, max_packets=MAX_PACKETS, min_scans=MIN_SCANS)
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "CACHE_SCHEMA_VERSION", 1)
            old = cache.key_for(world, 2015, **args)
        return old, cache.key_for(world, 2015, **args)

    def test_schema_1_entry_is_a_miss_and_restored_as_v2(self, tmp_path,
                                                         monkeypatch):
        uncached = self._simulate()
        cache = CaptureCache(tmp_path / "cache")
        old_key, new_key = self._keys(cache, monkeypatch)
        assert old_key != new_key
        _write_schema_1_entry(cache.path_for(old_key), uncached, old_key)

        again = self._simulate(cache)
        assert not again.cache_hit and cache.misses == 1
        _assert_results_identical(again, uncached)
        assert cache.path_for(new_key).read_bytes()[:8] == b"RTRACE02"
        hit = self._simulate(cache)
        assert hit.cache_hit
        _assert_results_identical(hit, uncached)

    def test_schema_1_layout_under_the_current_key_is_a_miss(self, tmp_path,
                                                            monkeypatch):
        uncached = self._simulate()
        cache = CaptureCache(tmp_path / "cache")
        _, key = self._keys(cache, monkeypatch)
        _write_schema_1_entry(cache.path_for(key), uncached, key)

        again = self._simulate(cache)
        assert not again.cache_hit
        assert cache.path_for(key).read_bytes()[:8] == b"RTRACE02"
        hit = self._simulate(cache)
        assert hit.cache_hit
        _assert_results_identical(hit, uncached)


_EDGE_SPEC = CampaignSpec(
    campaign_id=0, cohort="", scanner_type=ScannerType.HOSTING,
    tool=Tool.ZMAP, country="", src_ips=(0, 0xFFFFFFFF, 7), ports=(0, 65535),
    start=-0.0, rate_pps=1.0, telescope_hits=0, ipv4_coverage=1.0,
)

_SPECS = st.builds(
    CampaignSpec,
    campaign_id=st.integers(-2**63, 2**63 - 1),
    cohort=st.text(max_size=8),
    scanner_type=st.sampled_from(ScannerType),
    tool=st.sampled_from(Tool),
    country=st.text(max_size=3),
    src_ips=st.lists(st.sampled_from([0, 0xFFFFFFFF]) | st.integers(0, 2**32 - 1),
                     min_size=1, max_size=4).map(tuple),
    ports=st.lists(st.sampled_from([0, 65535]) | st.integers(0, 2**16 - 1),
                   min_size=1, max_size=30).map(tuple),
    start=st.floats(allow_nan=False, allow_infinity=False),
    rate_pps=st.floats(min_value=0, exclude_min=True, allow_infinity=False),
    telescope_hits=st.integers(0, 2**63 - 1),
    ipv4_coverage=st.floats(min_value=0, max_value=1, exclude_min=True),
    sequential=st.booleans(),
    fingerprintable=st.booleans(),
    organisation=st.text(max_size=8),
)


class TestCampaignColumns:
    @example(specs=[])
    @example(specs=[_EDGE_SPEC, dataclasses.replace(
        _EDGE_SPEC, campaign_id=1, src_ips=(5,), ports=(65535,),
        organisation="Censys", sequential=True, fingerprintable=False)])
    @given(specs=st.lists(_SPECS, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_store_load_is_field_for_field(self, tmp_path_factory, specs):
        cache = CaptureCache(tmp_path_factory.mktemp("cache"))
        result = SimulationResult(
            year=2020, config=year_config(2020, days=1), telescope=None,
            registry=None, batch=PacketBatch.empty(), campaigns=specs,
            packet_scale=1e-3, scan_scale=1e-2, background_sources=3,
        )
        cache.store("k" * 32, result)
        loaded = cache.load("k" * 32, SimpleNamespace(telescope=None,
                                                      registry=None))
        assert loaded is not None
        assert len(loaded.campaigns) == len(specs)
        for got, want in zip(loaded.campaigns, specs):
            for field in dataclasses.fields(CampaignSpec):
                # repr tells 0.0 from -0.0, 1 from True and int from float.
                assert (repr(getattr(got, field.name))
                        == repr(getattr(want, field.name))), field.name

    def test_campaigns_are_columns_not_json(self, tmp_path):
        cache = CaptureCache(tmp_path / "cache")
        (result,) = _simulate(workers=0, years=[2020], cache=cache).values()
        (path,) = cache.entries()
        data = path.read_bytes()
        (meta_len,) = struct.unpack("<I", data[8:12])
        plain = json.loads(data[12:12 + meta_len])
        assert "campaigns" not in plain and "src_ips" not in plain
        assert len(plain["cohort"]) == len(result.campaigns)


class TestOrphanedTempFiles:
    """A store killed before its rename leaves a temp file; the cache
    counts and prunes it once the writing process is gone."""

    def test_dead_writers_file_is_counted_and_pruned(self, tmp_path):
        cache = CaptureCache(tmp_path / "cache")
        target = cache.path_for("c" * 32)
        script = (
            "import os, sys\n"
            "from repro.telescope import TraceWriter\n"
            "from tests.test_trace import sample_batch\n"
            "writer = TraceWriter(sys.argv[1]).__enter__()\n"
            "writer.write(sample_batch(1000))\n"
            "os._exit(9)\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
        child = subprocess.run([sys.executable, "-c", script, str(target)],
                               env=env, capture_output=True, text=True,
                               timeout=120)
        assert child.returncode == 9, child.stderr
        (orphan,) = cache.orphans()
        assert orphan.name.startswith(target.name + ".tmp")
        assert cache.entries() == []
        (row,) = cache.usage()
        assert row.orphan and row.key == "c" * 32 and row.bytes > 0
        assert cache.total_bytes() == row.bytes
        removed = cache.prune(max_bytes=10**12)  # within budget, still goes
        assert [r.path for r in removed] == [orphan]
        assert list(cache.root.iterdir()) == []

    def test_live_writers_file_is_never_touched(self, tmp_path):
        cache = CaptureCache(tmp_path / "cache")
        with TraceWriter(cache.path_for("d" * 32)) as writer:
            writer.write(sample_batch(1000))
            (tmp,) = cache.root.iterdir()
            assert cache.orphans() == [] and cache.usage() == []
            assert cache.prune(max_bytes=0) == [] and cache.clear() == 0
            assert tmp.exists()
        assert [p.name for p in cache.root.iterdir()] == ["d" * 32 + ".rtrace"]
