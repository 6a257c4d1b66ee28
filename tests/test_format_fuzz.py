"""Fuzz the binary parsers: arbitrary bytes must raise the format error (or
yield nothing), never crash with an unrelated exception."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.telescope.pcap import PcapFormatError, iter_pcap, write_pcap
from repro.telescope.trace import (
    MAGIC,
    MAGIC_V1,
    TraceFormatError,
    TraceReader,
    write_trace,
)
from tests.test_trace import sample_batch


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Bytes of a valid three-chunk ``.rtrace`` and of a valid pcap."""
    d = tmp_path_factory.mktemp("valid")
    write_trace(d / "t.rtrace", sample_batch(12), meta={"year": 2020},
                chunk_size=5)
    write_pcap(d / "t.pcap", sample_batch(12))
    return (d / "t.rtrace").read_bytes(), (d / "t.pcap").read_bytes()


def _damage(data, offset, flip):
    """Cut ``data`` at ``offset`` (``flip == 0``) or XOR the byte there."""
    at = offset % len(data)
    if flip == 0:
        return data[:at]
    return data[:at] + bytes([data[at] ^ flip]) + data[at + 1:]


def _read_all(path):
    """Read every chunk, strict and not: only the format error may escape."""
    for strict in (True, False):
        try:
            with TraceReader(path, strict=strict) as reader:
                for _ in reader:
                    pass
        except TraceFormatError:
            pass  # the contract: malformed input fails loudly and typed
        except Exception as exc:  # pragma: no cover - the failure we hunt
            pytest.fail(f"TraceReader(strict={strict}): "
                        f"unexpected {type(exc).__name__}: {exc}")


#: Any offset into the file, and either a cut (0) or a one-byte XOR mask.
_DAMAGE_AT = dict(offset=st.integers(min_value=0, max_value=2**16),
                  flip=st.integers(min_value=0, max_value=255))


class TestDamagedValidFiles:
    # Always tried: the high byte of the first chunk's packet count (magic,
    # meta_len, the 14-byte metadata, an arrays_len of 0 and the header CRC
    # come first), which once made a reader request ~34 GB.
    @example(offset=8 + 4 + 14 + 4 + 4 + 3, flip=0xFF)
    @given(**_DAMAGE_AT)
    @settings(max_examples=150, deadline=None)
    def test_rtrace(self, tmp_path_factory, valid_files, offset, flip):
        path = tmp_path_factory.mktemp("fuzz") / "t.rtrace"
        path.write_bytes(_damage(valid_files[0], offset, flip))
        _read_all(path)

    # Always tried: the high byte of the first frame's captured length
    # (24-byte global header, then the record's two timestamp words).
    @example(offset=24 + 8 + 3, flip=0xFF)
    @given(**_DAMAGE_AT)
    @settings(max_examples=150, deadline=None)
    def test_pcap(self, tmp_path_factory, valid_files, offset, flip):
        path = tmp_path_factory.mktemp("fuzz") / "t.pcap"
        path.write_bytes(_damage(valid_files[1], offset, flip))
        try:
            list(iter_pcap(path))
        except PcapFormatError:
            pass
        except Exception as exc:  # pragma: no cover
            pytest.fail(f"unexpected {type(exc).__name__}: {exc}")


class TestTraceFuzz:
    @given(data=st.binary(min_size=0, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_random_bytes(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "t.rtrace"
        path.write_bytes(data)
        _read_all(path)

    @given(body=st.binary(min_size=0, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_valid_magic_random_body(self, tmp_path_factory, body):
        path = tmp_path_factory.mktemp("fuzz") / "t.rtrace"
        path.write_bytes(MAGIC + body)
        _read_all(path)  # unreadable metadata is a format error too

    @given(body=st.binary(min_size=0, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_v1_magic_random_body(self, tmp_path_factory, body):
        path = tmp_path_factory.mktemp("fuzz") / "t.rtrace"
        path.write_bytes(MAGIC_V1 + body)
        _read_all(path)


class TestPcapFuzz:
    @given(data=st.binary(min_size=0, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_random_bytes(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "t.pcap"
        path.write_bytes(data)
        try:
            list(iter_pcap(path))
        except PcapFormatError:
            pass
        except Exception as exc:  # pragma: no cover
            pytest.fail(f"unexpected {type(exc).__name__}: {exc}")

    @given(body=st.binary(min_size=0, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_valid_header_random_frames(self, tmp_path_factory, body):
        import struct
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
        path = tmp_path_factory.mktemp("fuzz") / "t.pcap"
        path.write_bytes(header + body)
        try:
            list(iter_pcap(path))
        except PcapFormatError:
            pass
        except Exception as exc:  # pragma: no cover
            pytest.fail(f"unexpected {type(exc).__name__}: {exc}")
