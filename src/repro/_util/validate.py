"""Argument validation helpers.

These raise ``ValueError``/``TypeError`` with uniform messages so that the
public API fails loudly and consistently on bad input.
"""

from __future__ import annotations

import numbers
from typing import Optional


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``."""
    _check_number(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0``."""
    _check_number(name, value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``."""
    _check_number(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    return float(value)


def check_range(
    name: str,
    value: float,
    low: Optional[float] = None,
    high: Optional[float] = None,
) -> float:
    """Require ``low <= value <= high`` (either bound may be ``None``)."""
    _check_number(name, value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value!r}")
    return value


def check_header_field(name: str, value: int, bits: int) -> int:
    """Require an integer fitting an unsigned ``bits``-wide wire field.

    The single bound check behind :func:`check_port` / :func:`check_ttl` /
    :func:`check_ip` and :class:`repro.telescope.packet.SynPacket`: an
    out-of-range value raises here instead of wrapping in a numpy column.
    """
    if isinstance(bits, bool) or not isinstance(bits, numbers.Integral) or bits <= 0:
        raise ValueError(f"bits must be a positive integer, got {bits!r}")
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    bound = 1 << int(bits)
    if not 0 <= int(value) < bound:
        raise ValueError(f"{name} must be within [0, {bound - 1}], got {value!r}")
    return int(value)


def check_port(name: str, value: int) -> int:
    """Require a valid TCP port number (0–65535)."""
    return check_header_field(name, value, 16)


def check_ttl(name: str, value: int) -> int:
    """Require a valid IPv4 TTL (0–255)."""
    return check_header_field(name, value, 8)


def check_ip(name: str, value: int) -> int:
    """Require an IPv4 address as an unsigned 32-bit integer."""
    return check_header_field(name, value, 32)


def _check_number(name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
