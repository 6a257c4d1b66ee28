"""Start-up guards: each entry point loads only what it runs.

Every CLI call, ``serve`` worker, lint and benchmark child is a fresh
process that pays for what it imports.  The package root resolves its
public names on first use, ``repro.cli`` imports each subcommand's stack
inside the subcommand, and the linter needs only the standard library
(its file writes go through ``repro._files``).  So ``import repro.cli``
and a whole lint load no NumPy, ``simulate`` loads no analysis or
process-pool code, and ``report`` no streaming code.

``import scipy.stats`` costs over a second and tens of MB per process, so
scipy is imported inside the two p-value helpers of ``repro._util.stats``;
the scipy guard fails when a module-level import of a scipy module comes
back anywhere on the import path or on the report, streaming and job
paths.

Each check runs in a fresh interpreter, which prints one JSON object as
its last line.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def _child(code, *args):
    """Run ``code`` in a fresh interpreter on this tree's ``src``; return
    the JSON object it prints last."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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
    out = _child(_CHILD)
    assert out["after_import"] == []
    assert out["after_reports"] == []
    assert out["stats_loaded"]
    assert out["pearson_r"] == out["scipy_pearsonr"]
    assert out["ks_two_sample"] == out["scipy_ks_2samp"]


def _under(modules, packages):
    """The names in ``modules`` that are one of ``packages`` or inside one."""
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in packages)]


#: Lints argv[2] with a summary cache at argv[3]; with argv[1] "blocked",
#: any import of NumPy fails.
_LINT_CHILD = r"""
import contextlib
import io
import json
import sys

if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None

import repro
import repro.cli
import repro.lint
import repro.lint.cli

report = io.StringIO()
with contextlib.redirect_stdout(report):
    code = repro.lint.cli.main([sys.argv[2], "--cache-dir", sys.argv[3]])
print(json.dumps({
    "code": code,
    "findings": report.getvalue(),
    "modules": sorted(m for m, v in sys.modules.items() if v is not None),
}))
"""


def test_lint_loads_no_numpy(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "clock.py").write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n")
    (tree / "limits.py").write_text("LIMIT = 1\n")
    plain = _child(_LINT_CHILD, "plain", tree, tmp_path / "cache-plain")
    assert _under(plain["modules"], ["numpy"]) == []
    assert [m for m in _under(plain["modules"], ["repro"])
            if m not in ("repro", "repro.cli", "repro._files")
            and not _under([m], ["repro.lint"])] == []
    assert plain["code"] == 1
    assert f"{tree / 'clock.py'}:5:11: RPR001" in plain["findings"]
    assert "1 finding(s) across 2 file(s)" in plain["findings"]
    assert list((tmp_path / "cache-plain").glob("*.lint.json"))

    blocked = _child(_LINT_CHILD, "blocked", tree, tmp_path / "cache-blocked")
    assert (blocked["code"], blocked["findings"]) == (plain["code"],
                                                      plain["findings"])


#: Runs ``repro-scan`` with argv[1:]; reports its exit code, its output
#: and the modules it loaded.
_CLI_CHILD = r"""
import contextlib
import io
import json
import sys

import repro.cli

out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
    try:
        code = repro.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({
    "code": code,
    "output": out.getvalue(),
    "modules": sorted(m for m, v in sys.modules.items() if v is not None),
}))
"""


def test_simulate_loads_no_analysis_code(tmp_path):
    """One period is simulated in this process: no analysis code and,
    without ``--cache-dir``, no process-pool machinery either."""
    capture = tmp_path / "one-day.rtrace"
    out = _child(_CLI_CHILD, "simulate", "--year", 2019, "--days", 1,
                 "--max-packets", 2000, "--min-scans", 20, "--seed", 3,
                 "--out", capture)
    assert out["code"] == 0
    assert capture.stat().st_size > 0
    assert _under(out["modules"], ["repro.core", "repro.stream",
                                   "repro.reporting", "repro.serve",
                                   "repro.lint", "repro.exec",
                                   "multiprocessing",
                                   "concurrent.futures"]) == []


def test_report_loads_no_streaming_code():
    """``report`` prints its peak RSS through ``repro._files``."""
    out = _child(_CLI_CHILD, "report", "--years", 2015, "--days", 1,
                 "--max-packets", 2000)
    assert out["code"] == 0
    assert "peak RSS" in out["output"]
    assert _under(out["modules"], ["repro.stream"]) == []


@pytest.mark.parametrize("argv", [["--help"], ["cache", "ls", "--cache-dir"]],
                         ids=["help", "cache-ls"])
def test_help_and_cache_listing_load_no_numpy(tmp_path, argv):
    if argv[0] == "cache":
        (tmp_path / "0123abcd.rtrace").write_bytes(b"\0" * 2048)
        argv = [*argv, tmp_path]
    out = _child(_CLI_CHILD, *argv)
    assert out["code"] == 0
    assert _under(out["modules"], ["numpy"]) == []
    if argv[0] == "cache":
        assert "1 entr(y/ies), 0 orphaned temp file(s), 2.0 KB total" in out[
            "output"]


#: Where each public name of the package root lives.
ROOT_NAMES = {
    "repro.core": ["CampaignCriteria", "PeriodAnalysis", "ScanTable",
                   "ToolFingerprinter", "analyze_period", "analyze_simulation",
                   "identify_scans", "summarize_period"],
    "repro.enrichment": ["InternetRegistry", "KnownScannerFeed",
                         "ScannerClassifier", "ScannerType",
                         "build_default_registry"],
    "repro.scanners": ["Tool"],
    "repro.simulation": ["ALL_YEARS", "SimulationResult", "TelescopeWorld",
                         "year_config"],
    "repro.telescope": ["PacketBatch", "SynPacket", "Telescope", "read_trace",
                        "write_trace"],
}

#: Checks the root's names against argv[1], a JSON copy of ROOT_NAMES.
_ROOT_CHILD = r"""
import importlib
import json
import sys

import repro
from repro import paper

out = {"paper_is_module": paper is sys.modules["repro.paper"],
       "all": sorted(repro.__all__), "dir": dir(repro)}
star = {}
exec("from repro import *", star)
out["star"] = sorted(k for k in star if k != "__builtins__")
out["mismatched"] = [
    name for module, names in json.loads(sys.argv[1]).items()
    for name in names
    if not (getattr(repro, name) is star[name]
            is getattr(importlib.import_module(module), name))
]
import repro.simulation.config
import repro.stream.source

out["same_constants"] = [
    repro.ALL_YEARS is repro.simulation.ALL_YEARS
    is repro.simulation.config.ALL_YEARS,
    repro.DEFAULT_BATCH_SIZE is repro.stream.DEFAULT_BATCH_SIZE
    is repro.stream.source.DEFAULT_BATCH_SIZE,
]
try:
    repro.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
print(json.dumps(out))
"""


def test_root_names_resolve_on_first_use():
    out = _child(_ROOT_CHILD, json.dumps(ROOT_NAMES))
    names = sorted([*(n for ns in ROOT_NAMES.values() for n in ns),
                    "__version__"])
    assert out["paper_is_module"]
    assert out["all"] == names
    assert out["star"] == names
    assert set(names) <= set(out["dir"])
    assert out["mismatched"] == []
    assert out["same_constants"] == [True, True]
    assert out["unknown"] == "module 'repro' has no attribute 'no_such_name'"
