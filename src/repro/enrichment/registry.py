"""Synthetic Internet registry.

The paper enriches every source address with its Autonomous System, country
and allocation class (residential / hosting / enterprise), using commercial
databases (GreyNoise, IPinfo) that cannot be redistributed.  This module
builds a deterministic synthetic registry with the same *shape*: a prefix
table mapping IPv4 ranges to (ASN, organisation, country, allocation type),
with vectorised longest-prefix... well, exact-interval lookup.

The registry doubles as the simulator's sampling surface: campaigns draw
their source addresses from prefixes matching the desired country and
allocation type, so the analysis-side enrichment can recover exactly the
ground truth the simulator used.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._util.rng import RandomState, as_generator
from repro.enrichment.types import AllocationType
from repro.telescope.addresses import CidrBlock, int_to_ip

#: Countries modelled by the synthetic registry (ISO 3166-1 alpha-2).
COUNTRIES: Tuple[str, ...] = (
    "CN", "US", "NL", "RU", "DE", "BR", "IN", "ID", "IR", "TW",
    "KR", "JP", "VN", "UA", "GB", "FR", "IT", "TR", "MX", "AR",
    "EG", "TH", "PL", "CA", "AU", "RO", "ZA", "NG", "SG", "ES",
)

#: Per-country relative amount of address space (loosely realistic: the US
#: and China hold far more IPv4 than smaller economies).
_COUNTRY_SPACE_WEIGHT: Dict[str, float] = {
    "US": 6.0, "CN": 5.0, "JP": 2.0, "DE": 1.8, "GB": 1.6, "KR": 1.5,
    "FR": 1.4, "BR": 1.4, "CA": 1.2, "IT": 1.0, "RU": 1.2, "NL": 1.0,
    "IN": 1.2, "AU": 1.0, "TW": 0.9, "MX": 0.8, "ES": 0.8, "PL": 0.7,
    "ID": 0.7, "AR": 0.6, "TR": 0.6, "VN": 0.6, "TH": 0.5, "UA": 0.5,
    "IR": 0.5, "EG": 0.4, "SG": 0.4, "RO": 0.4, "ZA": 0.4, "NG": 0.3,
}

#: Fraction of each country's space per allocation type.
_TYPE_SPACE_SHARE: Dict[AllocationType, float] = {
    AllocationType.RESIDENTIAL: 0.55,
    AllocationType.HOSTING: 0.12,
    AllocationType.ENTERPRISE: 0.18,
    AllocationType.UNKNOWN: 0.15,
    # INSTITUTIONAL space is allocated explicitly per organisation.
}

#: First address handed out by the synthetic allocator (1.0.0.0; stays clear
#: of 0/8, loopback, and the telescope's 100.64/16–100.66/16 blocks).
_ALLOC_BASE = 0x01000000
_TELESCOPE_RESERVED = (0x64400000, 0x64430000)  # 100.64.0.0 – 100.66.255.255


@dataclass(frozen=True)
class PrefixRecord:
    """One allocated prefix."""

    block: CidrBlock
    asn: int
    organisation: str
    country: str
    alloc_type: AllocationType

    def __str__(self) -> str:
        return (
            f"{self.block} AS{self.asn} {self.country} "
            f"{self.alloc_type}: {self.organisation}"
        )


class InternetRegistry:
    """Interval-indexed prefix table with vectorised lookups."""

    def __init__(self, records: Sequence[PrefixRecord]):
        ordered = sorted(records, key=lambda r: r.block.first)
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.block.first <= prev.block.last:
                raise ValueError(
                    f"overlapping prefixes: {prev.block} and {cur.block}"
                )
        self._records: Tuple[PrefixRecord, ...] = tuple(ordered)
        self._starts = np.array([r.block.first for r in ordered], dtype=np.uint32)
        self._ends = np.array([r.block.last for r in ordered], dtype=np.uint32)
        self._countries = np.array([r.country for r in ordered])
        self._types = np.array([r.alloc_type.value for r in ordered])
        self._asns = np.array([r.asn for r in ordered], dtype=np.int64)
        self._by_org: Dict[str, List[int]] = {}
        for i, rec in enumerate(ordered):
            self._by_org.setdefault(rec.organisation, []).append(i)

    # -- lookup ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Tuple[PrefixRecord, ...]:
        return self._records

    def lookup_indices(self, addresses: np.ndarray) -> np.ndarray:
        """Record index per address; -1 where unallocated."""
        addresses = np.asarray(addresses, dtype=np.uint32)
        idx = np.searchsorted(self._starts, addresses, side="right") - 1
        idx = np.clip(idx, 0, len(self._records) - 1)
        hit = (addresses >= self._starts[idx]) & (addresses <= self._ends[idx])
        return np.where(hit, idx, -1)

    def lookup(self, address: int) -> Optional[PrefixRecord]:
        """Record for a single address, or ``None``."""
        idx = int(self.lookup_indices(np.array([address], dtype=np.uint32))[0])
        return self._records[idx] if idx >= 0 else None

    def country_of(self, addresses: np.ndarray, default: str = "??") -> np.ndarray:
        """Country code per address (``default`` where unallocated)."""
        idx = self.lookup_indices(addresses)
        out = np.where(idx >= 0, self._countries[np.clip(idx, 0, None)], default)
        return out

    def type_of(
        self, addresses: np.ndarray, default: str = AllocationType.UNKNOWN.value
    ) -> np.ndarray:
        """Allocation-type value per address."""
        idx = self.lookup_indices(addresses)
        return np.where(idx >= 0, self._types[np.clip(idx, 0, None)], default)

    def asn_of(self, addresses: np.ndarray, default: int = -1) -> np.ndarray:
        """ASN per address (``default`` where unallocated)."""
        idx = self.lookup_indices(addresses)
        return np.where(idx >= 0, self._asns[np.clip(idx, 0, None)], default)

    def organisations(self) -> Tuple[str, ...]:
        return tuple(sorted(self._by_org))

    def prefixes_of_org(self, organisation: str) -> Tuple[PrefixRecord, ...]:
        return tuple(self._records[i] for i in self._by_org.get(organisation, ()))

    # -- sampling ---------------------------------------------------------------

    def matching_prefix_indices(
        self,
        country: Optional[str] = None,
        alloc_type: Optional[AllocationType] = None,
        organisation: Optional[str] = None,
    ) -> List[int]:
        """Indices of prefixes matching the filters (empty when none do)."""
        return [
            i for i, rec in enumerate(self._records)
            if (country is None or rec.country == country)
            and (alloc_type is None or rec.alloc_type == alloc_type)
            and (organisation is None or rec.organisation == organisation)
        ]

    def sample_from_prefixes(
        self,
        rng: RandomState,
        indices: Sequence[int],
        count: int,
        weights: Optional[Sequence[float]] = None,
    ) -> np.ndarray:
        """Sample ``count`` addresses from the given prefixes.

        ``weights`` override the default size-proportional prefix weighting —
        the simulator uses this to concentrate activity in a rotating subset
        of prefixes, producing the weekly /16-level volatility of Figure 2.
        """
        generator = as_generator(rng)
        if not indices:
            raise ValueError("indices must not be empty")
        if weights is None:
            w = np.array([self._records[i].block.size for i in indices], dtype=float)
        else:
            w = np.asarray(weights, dtype=float)
            if w.size != len(indices) or np.any(w < 0) or w.sum() <= 0:
                raise ValueError("weights must be non-negative, same length as indices")
        chosen = generator.choice(len(indices), size=count, p=w / w.sum())
        firsts = np.array([self._records[i].block.first for i in indices], dtype=np.uint64)
        sizes = np.array([self._records[i].block.size for i in indices], dtype=np.uint64)
        offsets = (generator.random(count) * sizes[chosen].astype(float)).astype(np.uint64)
        # Block firsts and in-block offsets are both < 2**32 (IPv4), so the
        # uint64 sum cannot wrap and the result fits uint32.
        return (firsts[chosen] + offsets).astype(np.uint32)  # repro-lint: disable=RPR011

    def sample_addresses(
        self,
        rng: RandomState,
        count: int,
        country: Optional[str] = None,
        alloc_type: Optional[AllocationType] = None,
        organisation: Optional[str] = None,
    ) -> np.ndarray:
        """Sample addresses from prefixes matching the filters.

        Prefixes are weighted by size; addresses within a prefix are uniform.
        Raises ``ValueError`` when no prefix matches.
        """
        generator = as_generator(rng)
        candidates = [
            i for i, rec in enumerate(self._records)
            if (country is None or rec.country == country)
            and (alloc_type is None or rec.alloc_type == alloc_type)
            and (organisation is None or rec.organisation == organisation)
        ]
        if not candidates:
            raise ValueError(
                f"no prefix matches country={country!r} type={alloc_type!r} "
                f"org={organisation!r}"
            )
        sizes = np.array([self._records[i].block.size for i in candidates], dtype=float)
        chosen = generator.choice(len(candidates), size=count, p=sizes / sizes.sum())
        blocks = [self._records[candidates[c]].block for c in chosen]
        offsets = generator.random(count)
        return np.array(
            [b.first + int(off * b.size) for b, off in zip(blocks, offsets)],
            dtype=np.uint32,
        )


class _Allocator:
    """Hands out non-overlapping blocks, skipping the telescope's space."""

    def __init__(self, base: int = _ALLOC_BASE):
        self._next = base

    def take(self, prefix_len: int) -> CidrBlock:
        size = 1 << (32 - prefix_len)
        # Align up to the block size.
        start = (self._next + size - 1) & ~(size - 1)
        # Skip the reserved telescope window entirely if we'd touch it.
        lo, hi = _TELESCOPE_RESERVED
        if start < hi and start + size > lo:
            start = (hi + size - 1) & ~(size - 1)
        if start + size > 0xE0000000:  # stay below multicast space
            raise RuntimeError("synthetic registry exhausted unicast space")
        self._next = start + size
        return CidrBlock(start, prefix_len)


def _type_prefix_plan(weight: float) -> List[Tuple[AllocationType, int, int]]:
    """Per-country plan: (type, prefix_len, how_many) scaled by ``weight``."""
    scale = max(1, round(weight))
    return [
        (AllocationType.RESIDENTIAL, 16, 4 * scale),
        (AllocationType.HOSTING, 18, 3 * scale),
        (AllocationType.ENTERPRISE, 17, 2 * scale),
        (AllocationType.UNKNOWN, 17, 2 * scale),
    ]


def build_default_registry(
    institutions: Optional[Sequence[Tuple[str, str, int]]] = None,
) -> InternetRegistry:
    """Build the default synthetic registry.

    ``institutions`` is a sequence of ``(organisation, country, n_slash24)``
    triples given dedicated INSTITUTIONAL prefixes and ASNs; defaults to the
    known-scanner catalogue (see :mod:`repro.enrichment.knownscanners`).

    The construction is fully deterministic: no randomness is involved, so
    every process sees the identical registry.
    """
    if institutions is None:
        # Imported lazily to avoid a cycle (knownscanners uses the registry).
        from repro.enrichment.knownscanners import default_institution_allocations

        institutions = default_institution_allocations()

    allocator = _Allocator()
    records: List[PrefixRecord] = []
    next_asn = 1000

    for country in COUNTRIES:
        weight = _COUNTRY_SPACE_WEIGHT[country]
        for alloc_type, prefix_len, count in _type_prefix_plan(weight):
            for i in range(count):
                block = allocator.take(prefix_len)
                records.append(
                    PrefixRecord(
                        block=block,
                        asn=next_asn,
                        organisation=f"{country}-{alloc_type.value}-net-{i}",
                        country=country,
                        alloc_type=alloc_type,
                    )
                )
                next_asn += 1

    # The paper calls out AS 18403 (FPT, Vietnam) as the enterprise AS
    # dominating JSON-RPC (8545/TCP) scanning — give it a dedicated prefix.
    fpt_block = allocator.take(16)
    records.append(
        PrefixRecord(
            block=fpt_block,
            asn=18403,
            organisation="FPT-AS-AP The Corporation for Financing & Promoting Technology",
            country="VN",
            alloc_type=AllocationType.ENTERPRISE,
        )
    )

    institution_asn = 60000
    for organisation, country, n_slash24 in institutions:
        for _ in range(max(1, n_slash24)):
            block = allocator.take(24)
            records.append(
                PrefixRecord(
                    block=block,
                    asn=institution_asn,
                    organisation=organisation,
                    country=country,
                    alloc_type=AllocationType.INSTITUTIONAL,
                )
            )
        institution_asn += 1

    return InternetRegistry(records)
