"""HTTP front-end: jobs, scenarios, and a live stats surface.

Stdlib-only (``http.server.ThreadingHTTPServer``): the architecture is the
point, not the web framework.  Endpoints::

    GET    /healthz
    GET    /stats                          queue depth + counters + caches
    GET    /stats/live                     SSE stream of the same document
    POST   /jobs                           submit {kind, year, days, ...}
    GET    /jobs                           list job records (no results)
    GET    /jobs/<id>[?wait=SECONDS]       one record, result included
    DELETE /jobs/<id>                      cancel (queued jobs only)
    GET    /scenarios                      tenants
    GET    /scenarios/<tenant>             tenant's scenarios
    PUT    /scenarios/<tenant>/<name>      create/update config
    GET    /scenarios/<tenant>/<name>      scenario document
    DELETE /scenarios/<tenant>/<name>
    GET    /scenarios/<tenant>/<name>/report[?format=json|text][&wait=S]

The report endpoint is the multi-tenant face of the job queue: it submits
a ``stream-report`` job for the scenario's config (deduplicated by content
key with everyone else's identical requests), answers ``202`` with the job
id while the job runs, and once done caches the derivations on the
scenario and serves them — ``format=text`` byte-identical to
``repro-scan analyze/stream --report``, ``format=json`` byte-identical to
the same commands with ``--json``.

``/stats/live`` is server-sent events: one ``stats`` event every
``interval`` seconds (``?interval=`` to override, ``?count=N`` to close
after N events — handy for curl and CI).  Handler threads are daemonic and
watch the app's ``closing`` event, so shutdown never hangs on a connected
dashboard.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro import __version__
from repro._files import peak_rss_bytes, wall_clock
from repro.reporting import render_report_doc
from repro.serve.jobs import JobSpec
from repro.serve.queue import JobQueue
from repro.serve.scenario import ScenarioStore

PathLike = Union[str, Path]

#: (status code, JSON-able body) — the handler serialises.
Reply = Tuple[int, Dict[str, Any]]

#: Largest request body the API reads (job and scenario bodies are small
#: JSON objects); a longer declared ``Content-Length`` is refused with 413.
MAX_BODY_BYTES = 1 << 20

#: Snapshot statuses with no further transitions (``running`` is derived,
#: so it is non-terminal like ``queued``).
_TERMINAL = ("done", "failed", "cancelled")


class ServeApp:
    """The service's state and request logic, HTTP-free and test-friendly."""

    def __init__(
        self,
        queue: JobQueue,
        scenarios: ScenarioStore,
        stats_interval: float = 1.0,
    ) -> None:
        self.queue = queue
        self.scenarios = scenarios
        self.stats_interval = max(0.05, float(stats_interval))
        self.closing = threading.Event()
        self._started = wall_clock()

    # -- stats --------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        doc = self.queue.stats()
        doc["scenarios"] = {
            "tenants": len(self.scenarios.tenants()),
            "total": self.scenarios.count(),
        }
        doc["uptime_s"] = wall_clock() - self._started
        doc["peak_rss_bytes"] = peak_rss_bytes()
        doc["version"] = __version__
        return doc

    # -- jobs ---------------------------------------------------------------

    def submit_job(self, body: Dict[str, Any]) -> Reply:
        try:
            spec = JobSpec.from_dict(body)
        except (TypeError, ValueError) as exc:
            return 400, {"error": str(exc)}
        rec = self.queue.submit(spec)
        doc = self.queue.snapshot(rec.job_id) or rec.to_dict()
        return (200 if doc["status"] in _TERMINAL else 202), {"job": doc}

    def list_jobs(self) -> Reply:
        return 200, {"jobs": self.queue.snapshots(with_result=False)}

    def job(self, job_id: str, wait: float = 0.0) -> Reply:
        doc = self.queue.snapshot(job_id)
        if doc is None:
            return 404, {"error": f"no such job: {job_id}"}
        if wait > 0 and doc["status"] not in _TERMINAL:
            self.queue.wait(job_id, timeout=wait)
            doc = self.queue.snapshot(job_id) or doc
        return (200 if doc["status"] in _TERMINAL else 202), {"job": doc}

    def cancel_job(self, job_id: str) -> Reply:
        doc = self.queue.snapshot(job_id)
        if doc is None:
            return 404, {"error": f"no such job: {job_id}"}
        if self.queue.cancel(job_id):
            return 200, {"job": self.queue.snapshot(job_id) or doc}
        doc = self.queue.snapshot(job_id) or doc
        return 409, {
            "error": f"job is {doc['status']}; only queued jobs can be cancelled"
        }

    # -- scenarios ----------------------------------------------------------

    def put_scenario(self, tenant: str, name: str, body: Dict[str, Any]) -> Reply:
        try:
            spec = JobSpec.from_dict(dict(body, kind="stream-report"))
            scenario = self.scenarios.put(tenant, name, spec)
        except (TypeError, ValueError) as exc:
            return 400, {"error": str(exc)}
        return 200, {"scenario": scenario.to_dict(with_derived=False)}

    def get_scenario(self, tenant: str, name: str) -> Reply:
        scenario = self.scenarios.get(tenant, name)
        if scenario is None:
            return 404, {"error": f"no such scenario: {tenant}/{name}"}
        return 200, {"scenario": scenario.to_dict(with_derived=False)}

    def delete_scenario(self, tenant: str, name: str) -> Reply:
        if self.scenarios.delete(tenant, name):
            return 200, {"deleted": f"{tenant}/{name}"}
        return 404, {"error": f"no such scenario: {tenant}/{name}"}

    def list_scenarios(self, tenant: str) -> Reply:
        return 200, {
            "tenant": tenant,
            "scenarios": [
                s.to_dict(with_derived=False) for s in self.scenarios.list(tenant)
            ],
        }

    def list_tenants(self) -> Reply:
        return 200, {"tenants": self.scenarios.tenants()}

    def scenario_report(
        self, tenant: str, name: str, wait: float = 0.0
    ) -> Tuple[int, Dict[str, Any], Optional[Dict[str, Any]]]:
        """Resolve a scenario's derived analyses, computing on first demand.

        Returns ``(status, body, payload)``; ``payload`` is the cached
        derivation dict when status is 200 (the handler picks the report
        representation out of it), else ``None``.
        """
        scenario = self.scenarios.get(tenant, name)
        if scenario is None:
            return 404, {"error": f"no such scenario: {tenant}/{name}"}, None
        payload = scenario.cached_payload()
        if payload is not None:
            return 200, {}, payload
        spec = dataclasses.replace(scenario.spec, kind="stream-report")
        rec = self.queue.submit(spec)
        doc = self.queue.snapshot(rec.job_id) or rec.to_dict()
        if wait > 0 and doc["status"] not in _TERMINAL:
            self.queue.wait(rec.job_id, timeout=wait)
            doc = self.queue.snapshot(rec.job_id) or doc
        result = doc.get("result")
        if doc["status"] == "done" and result is not None:
            payload = {
                key: result[key]
                for key in ("report", "report_text", "fingerprints", "figures")
                if key in result
            }
            payload["job_id"] = doc["job_id"]
            payload["capture"] = result.get("capture")
            self.scenarios.cache_derived(scenario, payload)
            return 200, {}, payload
        if doc["status"] == "failed":
            job_doc = {k: v for k, v in doc.items() if k != "result"}
            return 500, {"error": doc["error"] or "job failed",
                         "job": job_doc}, None
        return 202, {"status": doc["status"], "job_id": doc["job_id"]}, None

    def close(self) -> None:
        self.closing.set()
        self.queue.close(wait=False)


class _Handler(BaseHTTPRequestHandler):
    """Routes requests into the :class:`ServeApp` carried by the server."""

    server_version = f"repro-serve/{__version__}"

    @property
    def app(self) -> ServeApp:
        return self.server.app  # type: ignore[attr-defined]

    # quiet by default: one line per request would swamp SSE-heavy logs
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- plumbing -----------------------------------------------------------

    def _send_json(self, status: int, body: Dict[str, Any]) -> None:
        blob = (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _send_text(
        self, status: int, text: str, content_type: str = "text/plain"
    ) -> None:
        blob = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", f"{content_type}; charset=utf-8")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _read_body(self) -> Union[Dict[str, Any], Reply]:
        """The request's JSON object body, or the error reply to send.

        ``Content-Length`` is checked before anything is read: a
        non-integer or negative length is a 400 and one above
        :data:`MAX_BODY_BYTES` a 413.  Either way the unread body makes the
        connection unusable, so it is closed after the reply.
        """
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            return 400, {"error": f"bad Content-Length {declared!r}"}
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            return 413, {"error": f"body of {length} bytes exceeds the "
                                  f"{MAX_BODY_BYTES}-byte limit"}
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except (ValueError, RecursionError):
            # ValueError covers malformed JSON, bytes that decode as no
            # Unicode encoding and integer literals past Python's digit
            # limit; deep nesting exhausts the parser's recursion.
            body = None
        if not isinstance(body, dict):
            return 400, {"error": "body must be a JSON object"}
        return body

    def _route(self) -> Tuple[list, Dict[str, str]]:
        parts = urlsplit(self.path)
        segments = [seg for seg in parts.path.split("/") if seg]
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        return segments, query

    @staticmethod
    def _wait_of(query: Dict[str, str]) -> float:
        try:
            return max(0.0, min(float(query.get("wait", "0")), 600.0))
        except ValueError:
            return 0.0

    # -- methods ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        seg, query = self._route()
        if seg == ["healthz"]:
            self._send_json(200, {"status": "ok", "version": __version__})
        elif seg == ["stats"]:
            self._send_json(200, self.app.stats())
        elif seg == ["stats", "live"]:
            self._send_stats_stream(query)
        elif seg == ["jobs"]:
            self._send_json(*self.app.list_jobs())
        elif len(seg) == 2 and seg[0] == "jobs":
            self._send_json(*self.app.job(seg[1], wait=self._wait_of(query)))
        elif seg == ["scenarios"]:
            self._send_json(*self.app.list_tenants())
        elif len(seg) == 2 and seg[0] == "scenarios":
            self._send_json(*self.app.list_scenarios(seg[1]))
        elif len(seg) == 3 and seg[0] == "scenarios":
            self._send_json(*self.app.get_scenario(seg[1], seg[2]))
        elif len(seg) == 4 and seg[0] == "scenarios" and seg[3] == "report":
            self._send_scenario_report(seg[1], seg[2], query)
        else:
            self._send_json(404, {"error": f"no such resource: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802
        seg, _query = self._route()
        body = self._read_body()
        if not isinstance(body, dict):
            self._send_json(*body)
        elif seg == ["jobs"]:
            self._send_json(*self.app.submit_job(body))
        else:
            self._send_json(404, {"error": f"no such resource: {self.path}"})

    def do_PUT(self) -> None:  # noqa: N802
        seg, _query = self._route()
        body = self._read_body()
        if not isinstance(body, dict):
            self._send_json(*body)
        elif len(seg) == 3 and seg[0] == "scenarios":
            self._send_json(*self.app.put_scenario(seg[1], seg[2], body))
        else:
            self._send_json(404, {"error": f"no such resource: {self.path}"})

    def do_DELETE(self) -> None:  # noqa: N802
        seg, _query = self._route()
        if len(seg) == 2 and seg[0] == "jobs":
            self._send_json(*self.app.cancel_job(seg[1]))
        elif len(seg) == 3 and seg[0] == "scenarios":
            self._send_json(*self.app.delete_scenario(seg[1], seg[2]))
        else:
            self._send_json(404, {"error": f"no such resource: {self.path}"})

    # -- composite responses ------------------------------------------------

    def _send_scenario_report(
        self, tenant: str, name: str, query: Dict[str, str]
    ) -> None:
        fmt = query.get("format", "json")
        if fmt not in ("json", "text"):
            self._send_json(400, {"error": f"unknown format {fmt!r}"})
            return
        status, body, payload = self.app.scenario_report(
            tenant, name, wait=self._wait_of(query)
        )
        if status != 200 or payload is None:
            self._send_json(status, body)
        elif fmt == "text":
            # Trailing newline so `curl > file` diffs clean against the
            # CLI's print()ed report.
            self._send_text(200, payload["report_text"] + "\n")
        else:
            self._send_text(
                200, render_report_doc(payload["report"]) + "\n",
                content_type="application/json",
            )

    def _send_stats_stream(self, query: Dict[str, str]) -> None:
        try:
            interval = max(0.05, float(query.get("interval",
                                                 self.app.stats_interval)))
        except ValueError:
            interval = self.app.stats_interval
        count: Optional[int] = None
        if "count" in query:
            try:
                count = max(1, int(query["count"]))
            except ValueError:
                count = None
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        sent = 0
        while not self.app.closing.is_set():
            blob = json.dumps(self.app.stats(), sort_keys=True)
            try:
                self.wfile.write(
                    b"event: stats\ndata: " + blob.encode("utf-8") + b"\n\n"
                )
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                break  # dashboard went away
            sent += 1
            if count is not None and sent >= count:
                break
            if self.app.closing.wait(interval):
                break


class ServeServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the app; daemon threads so a connected
    SSE client never blocks process exit."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], app: ServeApp,
                 verbose: bool = False) -> None:
        super().__init__(address, _Handler)
        self.app = app
        self.verbose = verbose


def create_server(
    host: str = "127.0.0.1",
    port: int = 8752,
    cache_dir: Optional[PathLike] = None,
    state_dir: Optional[PathLike] = None,
    workers: int = 2,
    max_retries: int = 1,
    stats_interval: float = 1.0,
    verbose: bool = False,
    task: Optional[Any] = None,
) -> ServeServer:
    """Wire queue + scenarios + app into a ready-to-serve HTTP server.

    ``state_dir`` defaults to ``.repro-serve``; ``cache_dir`` defaults to
    ``<state_dir>/captures`` (pass the cache you already warm from the CLI
    to share captures between the service and one-shot runs).
    """
    state = Path(state_dir) if state_dir is not None else Path(".repro-serve")
    cache = Path(cache_dir) if cache_dir is not None else state / "captures"
    queue = JobQueue(
        cache_dir=cache,
        state_dir=state,
        workers=workers,
        max_retries=max_retries,
        task=task,
    )
    scenarios = ScenarioStore(state)
    app = ServeApp(queue, scenarios, stats_interval=stats_interval)
    return ServeServer((host, port), app, verbose=verbose)
