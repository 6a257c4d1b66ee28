"""Paths, child-process plumbing and small statistics shared by the runner."""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def declared(kind: str) -> List[Dict[str, Any]]:
    """The ``end_to_end`` or ``per_layer`` metrics BENCHMARK.json declares."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def child_env() -> Dict[str, str]:
    """Environment for every interpreter the benchmark starts.

    No bytecode is written, so no compiled cache of the program outlives a
    run and every run's set-up starts from the same state.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def python() -> str:
    return sys.executable or "python3"


def peak_rss_mb(pid: str = "self") -> float:
    """High-water resident set size of a process, in MB (VmHWM)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a process so far."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    low, high = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)]
    if pos == lo:
        return low
    if math.isinf(high):  # a failed request: nothing to interpolate towards
        return high
    return low + (high - low) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def summary_line(workload: str, name: str, value: float, unit: str, note: str = "") -> str:
    """One human-readable metric line (printed before the JSON result)."""
    text = f"{workload:<13} {name:<26} {value:>14.6g} {unit}"
    return f"{text}  ({note})" if note else text


def digest(text: str) -> str:
    import hashlib

    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()

