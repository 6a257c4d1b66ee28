"""Start-up guard: the package and every path that computes no p-value run
without loading scipy.

``import scipy.stats`` costs over a second and tens of MB per process, and
every CLI call, ``serve`` worker and benchmark child pays for what the
package imports.  So scipy is imported inside the two p-value helpers of
``repro._util.stats``; this test fails when a module-level import of a
scipy module comes back anywhere on the import path or on the report,
streaming and job paths.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: Runs in a fresh interpreter and prints one JSON object on stdout.
_CHILD = r"""
import json
import sys
import tempfile

import repro
import repro.cli
import repro.lint
import repro.serve
import repro.stream
from repro.core import analyze_period
from repro.core.report import paper_report
from repro.enrichment import ScannerClassifier, build_default_registry
from repro.reporting import render_paper_report, render_paper_report_json
from repro.serve.jobs import JobSpec, execute_job
from repro.simulation import TelescopeWorld


def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))


out = {"after_import": scipy_modules()}
sim = TelescopeWorld(rng=3).simulate_year(
    2020, days=1, max_packets=2000, min_scans=20)
analysis = analyze_period(
    sim.batch, year=2020, days=1,
    classifier=ScannerClassifier(build_default_registry()))
report = paper_report(analysis)
render_paper_report(report)
render_paper_report_json(report)
with tempfile.TemporaryDirectory() as tmp:
    for kind in ("analyze", "stream-report"):
        spec = JobSpec(kind=kind, year=2020, days=1, max_packets=2000,
                       min_scans=20, seed=3)
        execute_job({"spec": spec.to_dict(), "cache_dir": tmp + "/cache",
                     "checkpoint_dir": tmp + "/ckpt"})
out["after_reports"] = scipy_modules()

from repro._util.stats import ks_two_sample, pearson_r

x = [1.0, 2.0, 4.0, 3.0, 7.0, 5.0]
y = [2.0, 1.0, 5.0, 6.0, 8.0, 9.0]
out["pearson_r"] = list(pearson_r(x, y))
out["ks_two_sample"] = list(ks_two_sample(x, y))
out["stats_loaded"] = "scipy.stats" in sys.modules

from scipy import stats

out["scipy_pearsonr"] = [float(v) for v in stats.pearsonr(x, y)]
out["scipy_ks_2samp"] = [float(v) for v in stats.ks_2samp(x, y)]
print(json.dumps(out))
"""


def test_scipy_loads_only_on_the_first_p_value():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["after_import"] == []
    assert out["after_reports"] == []
    assert out["stats_loaded"]
    assert out["pearson_r"] == out["scipy_pearsonr"]
    assert out["ks_two_sample"] == out["scipy_ks_2samp"]
