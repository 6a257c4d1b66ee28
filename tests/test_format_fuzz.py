"""Fuzz the binary parsers: arbitrary bytes must raise the format error (or
yield nothing), never crash with an unrelated exception."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.telescope.pcap import PcapFormatError, iter_pcap
from repro.telescope.trace import MAGIC, TraceFormatError, TraceReader


class TestTraceFuzz:
    @given(data=st.binary(min_size=0, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_random_bytes(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "t.rtrace"
        path.write_bytes(data)
        try:
            with TraceReader(path) as reader:
                for _ in reader:
                    pass
        except TraceFormatError:
            pass  # the contract: malformed input fails loudly and typed
        except Exception as exc:  # pragma: no cover - the failure we hunt
            pytest.fail(f"unexpected {type(exc).__name__}: {exc}")

    @given(body=st.binary(min_size=0, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_valid_magic_random_body(self, tmp_path_factory, body):
        path = tmp_path_factory.mktemp("fuzz") / "t.rtrace"
        path.write_bytes(MAGIC + body)
        try:
            with TraceReader(path) as reader:
                for _ in reader:
                    pass
        except TraceFormatError:
            pass  # unreadable metadata is a format error too
        except Exception as exc:  # pragma: no cover
            pytest.fail(f"unexpected {type(exc).__name__}: {exc}")


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
