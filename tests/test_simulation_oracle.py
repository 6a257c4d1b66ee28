"""The simulator's sampling rewrites draw the same random stream as their
reference forms in ``tests/simulation_oracle.py``.

Each comparison runs the library and the oracle on twin generators and
requires equal outputs *and* an equal generator state afterwards, so no
later draw can move.  These tests stand in for a pinned capture digest,
which would break whenever NumPy changes its random streams.

``Telescope.observe`` draws nothing: it is compared with its three-pass
reference column for column, bit for bit, and counter for counter, on
simulated periods and on crafted batches.
"""

import numpy as np
import pytest

from repro.simulation import TelescopeWorld
from repro.simulation.ports import PortSelector
from repro.telescope import FLAG_ACK, FLAG_RST, FLAG_SYN, Telescope
from repro.telescope.addresses import AddressSet
from repro.telescope.packet import PacketBatch

from tests import simulation_oracle as oracle

SEEDS = (0, 1, 7, 2024, 99_991)
COUNTS = (1, 2, 5, 30, 300, 1000, 5000)
#: 80 and 23 have aliases, 445 is the single-port selector's own port.
PRIMARIES = (80, 23, 445, 31_337)

_THIRTY_NINE = {
    port: 1.0 / (rank + 1)
    for rank, port in enumerate((
        80, 443, 22, 23, 21, 25, 3389, 8080, 8443, 3306, 1433, 5900, 110,
        143, 445, 53, 5432, 6379, 8000, 8888, 81, 2323, 5555, 9200, 11211,
        2375, 2222, 2121, 3390, 5901, 5902, 14433, 33060, 6380, 5556, 8545,
        8546, 1443, 4443,
    ))
}

#: name -> (port weights, tail fraction, alias adoption)
SELECTORS = {
    "named-only": ({80: 5.0, 443: 3.0, 22: 2.0, 23: 1.0, 8080: 1.0}, 0.0, 0.5),
    "tail-30pct": ({80: 5.0, 443: 3.0, 22: 2.0, 23: 1.0, 8080: 1.0}, 0.3, 0.5),
    "tail-only": ({}, 1.0, 0.5),
    "single-port": ({445: 1.0}, 0.0, 0.5),
    "39-ports-tail-5pct": (_THIRTY_NINE, 0.05, 0.87),
}


def _twins(name, seed):
    weights, tail, adoption = SELECTORS[name]
    return tuple(
        PortSelector(weights, tail_fraction=tail, alias_adoption=adoption,
                     rng=np.random.default_rng(seed))
        for _ in range(2)
    )


def _state(selector):
    return selector._rng.bit_generator.state


@pytest.mark.parametrize("name", sorted(SELECTORS))
def test_sample_primary_draws_like_choice(name):
    for seed in SEEDS:
        new, ref = _twins(name, seed)
        for count in COUNTS:
            got = new.sample_primary(count)
            want = oracle.sample_primary(ref, count)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (seed, count)
            assert _state(new) == _state(ref), (seed, count)


@pytest.mark.parametrize("name", sorted(SELECTORS))
def test_sample_port_set_draws_like_rejection_loop(name):
    # Every seed and alias mode at the small counts.  A large count may run
    # the reference loop for 20 draws per port, so each runs once.
    modes = (None, True, False)
    cases = [(seed, count, force) for seed in SEEDS
             for count in COUNTS[:4] for force in modes]
    cases += list(zip(SEEDS, COUNTS[4:], modes))
    for i, (seed, count, force_alias) in enumerate(cases):
        primary = PRIMARIES[i % len(PRIMARIES)]
        new, ref = _twins(name, seed)
        got = new.sample_port_set(primary, count, force_alias=force_alias)
        want = oracle.sample_port_set(ref, primary, count, force_alias=force_alias)
        case = (seed, count, force_alias, primary)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), case
        assert _state(new) == _state(ref), case


def test_port_priority_matches_setdiff_order():
    for covered in (1, 25, 26, 27, 1000, 50_000, 65_535):
        got = TelescopeWorld._port_priority(covered)
        assert np.array_equal(got, oracle.port_priority(covered)), covered
        assert not got.flags.writeable


def test_address_set_matches_set_sorted(rng):
    inputs = [
        [],
        [5, 3, 5, 1],
        range(1000, 1100),
        rng.integers(0, 2**32, size=5000, dtype=np.uint32),
        np.repeat(rng.integers(0, 2**20, size=700), 3),
        np.array([0, 2**32 - 1, 0], dtype=np.uint32),
    ]
    for addresses in inputs:
        got = AddressSet(addresses)
        want = AddressSet.__new__(AddressSet)
        oracle.address_set_init(want, addresses)
        assert got.addresses.dtype == want.addresses.dtype
        assert np.array_equal(got.addresses, want.addresses)


def _capture(world):
    sim = world.simulate_year(2020, days=3, max_packets=40_000, min_scans=200)
    return sim.batch.columns(), sim.campaigns


def test_world_matches_oracle_patched_world(monkeypatch):
    cols, specs = _capture(TelescopeWorld(rng=13))
    # The run must reach every patched path: institutional port chunks and
    # multi-port cohort scans (the rejection loop), besides the telescope.
    assert any(spec.organisation for spec in specs)
    assert any(len(spec.ports) > 1 and not spec.organisation for spec in specs)

    monkeypatch.setattr(AddressSet, "__init__", oracle.address_set_init)
    monkeypatch.setattr(PortSelector, "sample_primary", oracle.sample_primary)
    monkeypatch.setattr(PortSelector, "sample_port_set", oracle.sample_port_set)
    monkeypatch.setattr(TelescopeWorld, "_port_priority",
                        staticmethod(oracle.port_priority))
    ref_cols, ref_specs = _capture(TelescopeWorld(rng=13))

    assert cols.keys() == ref_cols.keys()
    for name in cols:
        assert cols[name].dtype == ref_cols[name].dtype, name
        assert np.array_equal(cols[name], ref_cols[name]), name
    assert len(specs) == len(ref_specs)
    for spec, ref in zip(specs, ref_specs):
        assert spec == ref, spec.campaign_id


def _assert_same_capture(got, want):
    got_cols, want_cols = got.columns(), want.columns()
    assert got_cols.keys() == want_cols.keys()
    for name in got_cols:
        assert got_cols[name].dtype == want_cols[name].dtype, name
        # Bit for bit: NaN times and -0.0 compare by their bytes.
        assert got_cols[name].tobytes() == want_cols[name].tobytes(), name


@pytest.mark.parametrize("year", [2016, 2020])
def test_world_observes_like_three_pass_oracle(monkeypatch, year):
    """Before and after the 2017 ingress block."""
    def period():
        world = TelescopeWorld(rng=13)
        sim = world.simulate_year(year, days=3, max_packets=40_000, min_scans=200)
        return sim.batch, world.telescope.stats

    batch, stats = period()
    monkeypatch.setattr(Telescope, "observe", oracle.observe)
    ref_batch, ref_stats = period()
    _assert_same_capture(batch, ref_batch)
    assert stats == ref_stats
    assert stats.backscatter > 0
    assert (stats.ingress_dropped > 0) == (year >= 2017)


_MEMBERS = np.arange(1000, 1100)
#: Outside the members: both ends of IPv4 and each side of the set.
_EDGES = np.array([0, 2**32 - 1, 999, 1100])


def _crafted(rng, n, times):
    dst = rng.choice(np.concatenate([_MEMBERS, _EDGES]), size=n)
    flags = rng.choice(
        np.array([FLAG_SYN, FLAG_SYN, FLAG_SYN | FLAG_ACK, FLAG_RST]), size=n
    )
    dst_port = rng.choice(np.array([23, 445, 80, 8080]), size=n)
    # Every NaN time is a kept probe in any year.
    nan = np.isnan(times)
    dst[nan], flags[nan], dst_port[nan] = _MEMBERS[0], FLAG_SYN, 80
    return PacketBatch(
        time=times,
        src_ip=rng.integers(0, 2**32, size=n),
        dst_ip=dst,
        src_port=rng.integers(0, 2**16, size=n),
        dst_port=dst_port,
        ip_id=rng.integers(0, 2**16, size=n),
        seq=rng.integers(0, 2**32, size=n),
        ttl=rng.integers(0, 256, size=n),
        window=rng.integers(0, 2**16, size=n),
        flags=flags,
    )


def _crafted_batches():
    rng = np.random.default_rng(5)
    ties = rng.integers(0, 20, size=3000).astype(np.float64)
    signed_zeros = ties.copy()
    signed_zeros[rng.random(3000) < 0.3] = -0.0
    signed_zeros[rng.random(3000) < 0.3] = 0.0
    with_nan = ties.copy()
    with_nan[rng.integers(0, 3000, size=7)] = np.nan
    mixed = _crafted(rng, 3000, ties)
    outside_or_backscatter = (~np.isin(mixed.dst_ip, _MEMBERS)
                              | (mixed.flags != FLAG_SYN))
    return {
        "ties": mixed,
        "signed-zeros": _crafted(rng, 3000, signed_zeros),
        "nan-times": _crafted(rng, 3000, with_nan),
        "distinct-times": _crafted(rng, 3000, rng.random(3000) * 1e5),
        "empty": PacketBatch.empty(),
        "nothing-kept": mixed.where(outside_or_backscatter),
    }


@pytest.mark.parametrize("name", sorted(_crafted_batches()))
@pytest.mark.parametrize("year", [2016, 2017])
def test_observe_matches_three_pass_oracle(name, year):
    batch = _crafted_batches()[name]
    new = Telescope(AddressSet(_MEMBERS))
    ref = Telescope(AddressSet(_MEMBERS))
    _assert_same_capture(new.observe(batch, year), oracle.observe(ref, batch, year))
    assert new.stats == ref.stats
    if name == "nothing-kept":
        assert len(batch) and new.stats.scan_probes == 0
