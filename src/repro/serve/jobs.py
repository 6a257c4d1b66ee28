"""Worker-side job execution for the analysis service.

A job is one of three request kinds over the same content-addressed
capture material:

* ``simulate`` — synthesize (or cache-load) one calibrated telescope
  period and leave it in the :class:`~repro.exec.cache.CaptureCache`;
* ``analyze`` — the paper report over that capture loaded whole
  (:func:`~repro.core.report.paper_report`: the analysis suite over one
  window);
* ``stream-report`` — the same report from the same suite fed window by
  window (:func:`~repro.stream.report.stream_report`), checkpointed so a
  killed worker re-attaches instead of recomputing.

:func:`execute_job` is the single :class:`~concurrent.futures.ProcessPoolExecutor`
entry point (submitted by :class:`repro.serve.queue.JobQueue`); it must stay
a pure function of its payload — no module-level mutable state, no ambient
randomness.  ``tests/test_serve.py`` holds it there: pool-run jobs must
serve reports byte-identical to the in-process CLI
(``TestHTTPApi.test_scenario_report_parity_with_cli``).  Everything a
worker needs travels in the payload dict (plain JSON-able values, cheap
to pickle); everything it returns is a plain JSON-able dict, so job
results persist verbatim into the queue's job records and serve straight
out of the HTTP API.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

import numpy as np

from repro.core import analyze_period
from repro.core.campaigns import ScanTable
from repro.core.pipeline import study_scans_of
from repro.core.report import PaperReport, paper_report
from repro.enrichment import ScannerClassifier, build_default_registry
from repro.exec.cache import CaptureCache
from repro.reporting import paper_report_to_json, render_paper_report
from repro.simulation import ALL_YEARS, TelescopeWorld
from repro.stream import StreamReportResult, stream_report

#: The request kinds the service understands.
JOB_KINDS = ("simulate", "analyze", "stream-report")


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One job request: a kind plus the capture parameters it runs over.

    The capture parameters mirror ``repro-scan simulate``'s flags (and its
    defaults), because they *are* the capture: together with the library
    version they determine the :class:`CaptureCache` content key, which in
    turn is the job's identity — two specs with equal fields are the same
    job, however many clients submit them.
    """

    kind: str = "simulate"
    year: int = 2020
    days: int = 14
    max_packets: int = 300_000
    min_scans: int = 600
    seed: int = 7

    def validate(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; expected one of {JOB_KINDS}"
            )
        if self.year not in ALL_YEARS:
            raise ValueError(
                f"year {self.year} outside the study range "
                f"{ALL_YEARS[0]}-{ALL_YEARS[-1]}"
            )
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if self.max_packets < 1:
            raise ValueError("max_packets must be >= 1")
        if self.min_scans < 0:
            raise ValueError("min_scans must be >= 0")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        """Build a spec from (possibly client-supplied) JSON, strictly.

        Unknown fields are an error — a typo'd budget silently falling back
        to a default would compute (and cache) the wrong capture.
        """
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - fields)
        if unknown:
            raise ValueError(f"unknown job spec field(s): {', '.join(unknown)}")
        kwargs: Dict[str, Any] = {}
        for f in dataclasses.fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            if f.name == "kind":
                if not isinstance(value, str):
                    raise ValueError("kind must be a string")
            elif not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{f.name} must be an integer")
            kwargs[f.name] = value
        spec = cls(**kwargs)
        spec.validate()
        return spec


def _fingerprints(scans: ScanTable) -> Dict[str, Dict[str, Any]]:
    """Per-tool attribution of the study-view scans, the ones the report
    counts (derived analysis)."""
    scans = study_scans_of(scans)
    if len(scans) == 0:
        return {}
    tools, counts = np.unique(scans.tool.astype(str), return_counts=True)
    total = int(counts.sum())
    return {
        str(tool): {"scans": int(count), "share": float(count / total)}
        for tool, count in zip(tools, counts)
    }


def _figures(report: PaperReport) -> Dict[str, Any]:
    """Figure-ready series that the text tables do not carry."""
    return {
        "churn_curve": [int(v) for v in report.churn.curve],
        "volatility_cdfs": {
            metric: {
                "factor": [float(v) for v in summary.cdf[0]],
                "cdf": [float(v) for v in summary.cdf[1]],
            }
            for metric, summary in sorted(report.volatility.items())
        },
    }


def _report_result(report: PaperReport, scans: ScanTable) -> Dict[str, Any]:
    return {
        "report": paper_report_to_json(report),
        "report_text": render_paper_report(report),
        "fingerprints": _fingerprints(scans),
        "figures": _figures(report),
    }


def run_stream_report(
    capture_path: str,
    year: int,
    days: int,
    checkpoint_dir: Optional[str] = None,
    stop: Optional[Any] = None,
) -> StreamReportResult:
    """The service's streaming report pass, with its fixed parameters.

    Factored out so tests can run the *identical* pass (same batching, same
    criteria, same checkpoint key) to stage a partial checkpoint and then
    prove a restarted job re-attaches to it.
    """
    return stream_report(
        capture_path,
        year=year,
        days=days,
        checkpoint_dir=checkpoint_dir,
        stop=stop,
    )


def execute_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Process-pool entry point: run one job to completion.

    ``payload`` carries ``spec`` (a :meth:`JobSpec.to_dict`), ``cache_dir``
    and, for streaming jobs, ``checkpoint_dir``.  Must stay a module-level
    function of its arguments alone: pool workers share no state with the
    parent.
    """
    spec = JobSpec.from_dict(payload["spec"])
    cache = CaptureCache(payload["cache_dir"])
    world = TelescopeWorld(rng=spec.seed)
    key = cache.key_for(
        world, spec.year, days=spec.days, max_packets=spec.max_packets,
        min_scans=spec.min_scans,
    )
    sim = world.simulate_year(
        spec.year, days=spec.days, max_packets=spec.max_packets,
        min_scans=spec.min_scans, cache=cache,
    )
    result: Dict[str, Any] = {
        "kind": spec.kind,
        "capture": {
            "key": key,
            "path": str(cache.path_for(key)),
            "packets": int(len(sim.batch)),
            "campaigns": int(len(sim.campaigns)),
            "cache_hit": bool(sim.cache_hit),
        },
    }
    if spec.kind == "simulate":
        return result

    if spec.kind == "analyze":
        classifier = ScannerClassifier(build_default_registry())
        analysis = analyze_period(
            sim.batch, year=spec.year, days=spec.days, classifier=classifier
        )
        result.update(_report_result(paper_report(analysis), analysis.scans))
        return result

    # stream-report: one bounded pass, re-attaching to any prior checkpoint
    # (a retried or restarted job resumes instead of recomputing).
    passed = run_stream_report(
        str(cache.path_for(key)),
        year=spec.year,
        days=spec.days,
        checkpoint_dir=payload.get("checkpoint_dir"),
    )
    result.update(_report_result(passed.report, passed.scans))
    result["stream"] = {
        "resumed": bool(passed.resumed),
        "stats": passed.stats.to_dict(),
    }
    return result
