"""repro — reproduction of *Have you SYN me? Characterizing Ten Years of
Internet Scanning* (Griffioen, Koursiounis, Smaragdakis & Doerr, IMC 2024).

The package splits into:

* :mod:`repro.telescope` — the darknet measurement substrate (packets,
  address space, sensor, trace IO);
* :mod:`repro.scanners` — wire-behaviour models of the scanning tools the
  paper fingerprints (ZMap, Masscan, NMap, Mirai, Unicorn);
* :mod:`repro.simulation` — the calibrated ecosystem simulator standing in
  for the proprietary ten-year traces;
* :mod:`repro.enrichment` — synthetic registry, known-scanner feed and the
  Appendix-A ETL;
* :mod:`repro.core` — the paper's analysis pipeline (campaign
  identification, tool fingerprinting, and every evaluation analysis);
* :mod:`repro.reporting` — table renderers and figure-series extraction.

``import repro`` loads this module alone.  ``__version__``, ``ALL_YEARS``
and ``DEFAULT_BATCH_SIZE`` live here; every other public name is imported
from its subpackage on first access, so a process loads only the stack it
uses.

Quickstart::

    from repro import TelescopeWorld, analyze_simulation, summarize_period

    world = TelescopeWorld(rng=7)
    sim = world.simulate_year(2020, days=14, max_packets=200_000)
    analysis = analyze_simulation(sim)
    print(summarize_period(analysis))
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Tuple

__version__ = "1.0.0"

#: Years covered by the study: the ``--year`` choices and the years
#: ``year_config`` admits.
ALL_YEARS: Tuple[int, ...] = tuple(range(2015, 2025))

#: The streaming reader's default window, in packets (``--batch-size``):
#: large enough that per-window numpy passes dominate the Python
#: orchestration, small enough to bound the working set.
DEFAULT_BATCH_SIZE = 65_536

#: Every other public name and the module it is imported from on first
#: use, so ``import repro`` (the linter's, the CLI's) loads no NumPy.
_LAZY: Dict[str, str] = {
    "CampaignCriteria": "repro.core",
    "PeriodAnalysis": "repro.core",
    "ScanTable": "repro.core",
    "ToolFingerprinter": "repro.core",
    "analyze_period": "repro.core",
    "analyze_simulation": "repro.core",
    "identify_scans": "repro.core",
    "summarize_period": "repro.core",
    "InternetRegistry": "repro.enrichment",
    "KnownScannerFeed": "repro.enrichment",
    "ScannerClassifier": "repro.enrichment",
    "ScannerType": "repro.enrichment",
    "build_default_registry": "repro.enrichment",
    "Tool": "repro.scanners",
    "SimulationResult": "repro.simulation",
    "TelescopeWorld": "repro.simulation",
    "year_config": "repro.simulation",
    "PacketBatch": "repro.telescope",
    "SynPacket": "repro.telescope",
    "Telescope": "repro.telescope",
    "read_trace": "repro.telescope",
    "write_trace": "repro.telescope",
}

__all__ = [*_LAZY, "ALL_YEARS", "__version__"]


def __getattr__(name: str) -> Any:
    """Import a public name's subpackage on first access (PEP 562)."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *_LAZY})
