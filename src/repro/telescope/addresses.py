"""IPv4 address arithmetic.

Addresses are represented as unsigned 32-bit integers throughout the library
(vectorisable with numpy); this module provides parsing, formatting and CIDR
block handling on top of that representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Union

import numpy as np

IPV4_SPACE_SIZE = 2**32

IPLike = Union[int, str]


def ip_to_int(address: IPLike) -> int:
    """Parse a dotted-quad string (or pass through an int) into a uint32."""
    if isinstance(address, (int, np.integer)):
        value = int(address)
        if not 0 <= value < IPV4_SPACE_SIZE:
            raise ValueError(f"IPv4 integer out of range: {value}")
        return value
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {address!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"malformed IPv4 address: {address!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"malformed IPv4 address: {address!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Format a uint32 as a dotted-quad string."""
    value = int(value)
    if not 0 <= value < IPV4_SPACE_SIZE:
        raise ValueError(f"IPv4 integer out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def slash16_of(addresses: Union[int, np.ndarray]) -> Union[int, np.ndarray]:
    """The /16 netblock index (upper 16 bits) of one or many addresses.

    The paper's volatility analysis (Figure 2) aggregates scanning sources by
    their /16 netblock.
    """
    return np.right_shift(addresses, 16) if isinstance(addresses, np.ndarray) else int(addresses) >> 16


def slash24_of(addresses: Union[int, np.ndarray]) -> Union[int, np.ndarray]:
    """The /24 netblock index (upper 24 bits) of one or many addresses."""
    return np.right_shift(addresses, 8) if isinstance(addresses, np.ndarray) else int(addresses) >> 8


@dataclass(frozen=True)
class CidrBlock:
    """A CIDR prefix, e.g. ``203.0.0.0/16``.

    Attributes:
        network: integer value of the network address (low bits must be 0).
        prefix_len: number of leading network bits (0–32).
    """

    network: int
    prefix_len: int

    def __post_init__(self) -> None:
        if not 0 <= self.prefix_len <= 32:
            raise ValueError(f"prefix length out of range: {self.prefix_len}")
        if not 0 <= self.network < IPV4_SPACE_SIZE:
            raise ValueError(f"network address out of range: {self.network}")
        if self.network & (self.size - 1):
            raise ValueError(
                f"network {int_to_ip(self.network)} has host bits set for /{self.prefix_len}"
            )

    @classmethod
    def parse(cls, text: str) -> "CidrBlock":
        """Parse ``'a.b.c.d/len'`` notation."""
        try:
            addr, length = text.split("/")
        except ValueError:
            raise ValueError(f"malformed CIDR: {text!r}") from None
        return cls(ip_to_int(addr), int(length))

    @property
    def size(self) -> int:
        """Number of addresses covered by the prefix."""
        return 1 << (32 - self.prefix_len)

    @property
    def first(self) -> int:
        return self.network

    @property
    def last(self) -> int:
        return self.network + self.size - 1

    def __contains__(self, address: IPLike) -> bool:
        value = ip_to_int(address)
        return self.first <= value <= self.last

    def contains_array(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorised membership test over a uint32 array."""
        return (addresses >= self.first) & (addresses <= self.last)

    def addresses(self) -> np.ndarray:
        """All addresses in the block as a uint32 array (careful with /0!)."""
        if self.prefix_len < 8:
            raise ValueError("refusing to materialise a block larger than /8")
        return np.arange(self.first, self.last + 1, dtype=np.uint32)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Sample ``count`` addresses uniformly (with replacement)."""
        return rng.integers(self.first, self.last + 1, size=count, dtype=np.uint32)

    def overlap(self, other: "CidrBlock") -> int:
        """Number of addresses shared with ``other``."""
        lo = max(self.first, other.first)
        hi = min(self.last, other.last)
        return max(0, hi - lo + 1)

    def __str__(self) -> str:
        return f"{int_to_ip(self.network)}/{self.prefix_len}"


class AddressSet:
    """An arbitrary set of IPv4 addresses with fast vectorised membership.

    Used to model a *partially populated* telescope: the monitored addresses
    are a subset of the announced blocks (live hosts are excluded).
    """

    def __init__(self, addresses: Iterable[int]):
        if isinstance(addresses, np.ndarray):
            values = addresses.astype(np.int64, copy=False)
        else:
            try:
                values = np.array([int(a) for a in addresses], dtype=np.int64)
            except OverflowError:
                raise ValueError("address out of IPv4 range") from None
        values = np.sort(values, axis=None)
        if values.size and (values[0] < 0 or values[-1] >= IPV4_SPACE_SIZE):
            raise ValueError("address out of IPv4 range")
        distinct = np.ones(values.size, dtype=bool)
        np.not_equal(values[1:], values[:-1], out=distinct[1:])
        self._addresses = values[distinct].astype(np.uint32)

    @classmethod
    def from_blocks(
        cls,
        blocks: Sequence[CidrBlock],
        population: float = 1.0,
        rng: "np.random.Generator | None" = None,
    ) -> "AddressSet":
        """Build from CIDR blocks, keeping a ``population`` fraction of each.

        ``population < 1`` models partially populated telescope ranges: a
        random subset of each block is monitored, the rest is assumed to host
        live services and is excluded.
        """
        if not 0.0 < population <= 1.0:
            raise ValueError("population must be in (0, 1]")
        chunks: List[np.ndarray] = []
        for block in blocks:
            addrs = block.addresses()
            if population < 1.0:
                if rng is None:
                    raise ValueError("population < 1 requires an rng")
                keep = max(1, int(round(addrs.size * population)))
                addrs = rng.choice(addrs, size=keep, replace=False)
            chunks.append(addrs)
        merged = np.concatenate(chunks) if chunks else np.array([], dtype=np.uint32)
        return cls(merged)

    @property
    def addresses(self) -> np.ndarray:
        """Sorted uint32 array of member addresses (do not mutate)."""
        return self._addresses

    def __len__(self) -> int:
        return int(self._addresses.size)

    def __iter__(self) -> Iterator[int]:
        return iter(int(a) for a in self._addresses)

    def __contains__(self, address: IPLike) -> bool:
        value = ip_to_int(address)
        idx = np.searchsorted(self._addresses, value)
        return bool(idx < self._addresses.size and self._addresses[idx] == value)

    def contains_array(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorised membership over a uint32 array.

        On NumPy >= 1.24, ``np.isin`` picks a lookup table over the members'
        range by itself when that range is small next to the inputs, as a
        telescope's few /16s are; no ``kind=`` is passed, because older
        NumPy has no such argument.
        """
        return np.isin(addresses, self._addresses)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Sample ``count`` member addresses uniformly with replacement."""
        if len(self) == 0:
            raise ValueError("cannot sample from an empty address set")
        idx = rng.integers(0, self._addresses.size, size=count)
        return self._addresses[idx]

    def overlap_fraction_of_space(self) -> float:
        """Fraction of the full IPv4 space covered by this set."""
        return self._addresses.size / IPV4_SPACE_SIZE
