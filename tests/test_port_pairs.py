"""Distinct (source, port) pairs and distinct sources, against the
``np.unique`` forms the sort-based versions replaced.

The reference forms below are the library's former bodies of
``ports_per_source``, ``top_ports_by_sources`` and
``PacketBatch.distinct_sources``; nothing in ``src/`` calls them.  Outputs
must match value for value and dtype for dtype, so Figure 3 and Table 1's
ranks and ties cannot move.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.ecosystem import PortShare, top_ports_by_sources
from repro.core.ports_analysis import ports_per_source, source_port_pairs
from repro.telescope.packet import PacketBatch


def reference_pairs(batch):
    return np.unique(
        (batch.src_ip.astype(np.uint64) << np.uint64(16))
        | batch.dst_port.astype(np.uint64)
    )


def reference_ports_per_source(batch):
    if len(batch) == 0:
        return np.array([], dtype=np.int64)
    sources = (reference_pairs(batch) >> np.uint64(16)).astype(np.uint64)
    _, counts = np.unique(sources, return_counts=True)
    return counts.astype(np.int64)


def reference_top_ports_by_sources(analysis, k=5):
    batch = analysis.study_batch
    if len(batch) == 0:
        return []
    ports = (reference_pairs(batch) & np.uint64(0xFFFF)).astype(np.int64)
    port_values, counts = np.unique(ports, return_counts=True)
    order = np.argsort(counts)[::-1][:k]
    total_sources = analysis.distinct_sources
    return [
        PortShare(int(port_values[i]), counts[i] / max(total_sources, 1))
        for i in order
    ]


def reference_distinct_sources(batch):
    return int(np.unique(batch.src_ip).size) if len(batch) else 0


def batch_of(rows):
    n = len(rows)
    zeros = np.zeros(n, dtype=np.uint32)
    return PacketBatch(
        time=np.arange(n, dtype=np.float64),
        src_ip=np.array([src for src, _ in rows], dtype=np.uint32),
        dst_ip=zeros,
        src_port=zeros,
        dst_port=np.array([port for _, port in rows], dtype=np.uint16),
        ip_id=zeros,
        seq=zeros,
        ttl=zeros,
        window=zeros,
        flags=np.full(n, 2, dtype=np.uint8),
    )


#: Few distinct values (so pairs, sources and counts tie often), always
#: including both ends of each field's range.
_SOURCES = st.one_of(
    st.sampled_from([0, 1, 2, 0xFFFFFFFE, 0xFFFFFFFF]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
_PORTS = st.one_of(
    st.sampled_from([0, 1, 80, 8080, 65535]),
    st.integers(min_value=0, max_value=2**16 - 1),
)
_ROWS = st.lists(st.tuples(_SOURCES, _PORTS), max_size=80)


@given(rows=_ROWS)
@settings(max_examples=200, deadline=None)
def test_source_port_pairs_match_unique(rows):
    batch = batch_of(rows)
    got, want = source_port_pairs(batch), reference_pairs(batch)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@given(rows=_ROWS)
@settings(max_examples=200, deadline=None)
def test_ports_per_source_matches_reference(rows):
    batch = batch_of(rows)
    got, want = ports_per_source(batch), reference_ports_per_source(batch)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@given(rows=_ROWS, k=st.integers(min_value=1, max_value=8))
@settings(max_examples=200, deadline=None)
def test_top_ports_by_sources_matches_reference(rows, k):
    batch = batch_of(rows)
    analysis = SimpleNamespace(
        study_batch=batch, distinct_sources=reference_distinct_sources(batch)
    )
    got = top_ports_by_sources(analysis, k)
    want = reference_top_ports_by_sources(analysis, k)
    assert got == want  # ports, shares and the order of tied counts
    assert [type(p.share) for p in got] == [type(p.share) for p in want]


@given(rows=_ROWS)
@settings(max_examples=200, deadline=None)
def test_distinct_sources_matches_unique(rows):
    batch = batch_of(rows)
    got = batch.distinct_sources()
    assert type(got) is int
    assert got == reference_distinct_sources(batch)
