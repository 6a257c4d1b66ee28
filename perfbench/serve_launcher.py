"""``repro-scan serve`` with layer spans recorded from outside.

Usage: ``python3 serve_launcher.py --spans OUT.json -- serve [serve args]``

The launcher wraps the entry points of ``layers.TARGETS`` and starts the
same server through ``repro.cli.main``.  Recording starts on SIGUSR1 (so
boot and warm jobs stay out of the trace); SIGTERM stops the server
gracefully, after which the spans are written to ``OUT.json`` once.

Job execution happens in the queue's pool worker, a fork of this process.
There the wrapped ``execute_job`` records its own spans and hands them back
inside the job result (``tracing.worker_entry``); the server side takes
them out again before the queue stores the result.
"""

from __future__ import annotations

import json
import signal
import sys

from layers import TARGETS, WORKER_ENTRIES
from tracing import Recorder, install, resolve, take_shipped, worker_entry

RECORDER = Recorder()


def _absorb_worker_spans(on_done):
    def wrapper(self, job_id, future):
        if future.done() and not future.cancelled() and future.exception() is None:
            shipped = take_shipped(future.result())
            if shipped is not None and RECORDER.enabled:
                RECORDER.absorb(*shipped)
        return on_done(self, job_id, future)
    return wrapper


def _start_recording(signum, frame) -> None:
    RECORDER.reset()
    RECORDER.enabled = True


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: serve_launcher.py --spans OUT.json -- serve [args]", file=sys.stderr)
        return 2
    out, serve_argv = argv[1], argv[3:]

    from repro import cli
    from repro.serve import jobs, queue

    install(RECORDER, TARGETS, WORKER_ENTRIES)
    # The queue's pool outlives recording windows, so its worker records
    # every job and this process keeps the spans only while recording.  A
    # pool pickles the task by its defining module's name, so that name
    # must resolve to the wrapper too.
    jobs.execute_job = queue.execute_job = worker_entry(
        RECORDER, jobs.execute_job, "serve.jobs.execute_job", always=True)
    owner, attr = resolve("repro.serve.queue:JobQueue._on_done")
    setattr(owner, attr, _absorb_worker_spans(owner.__dict__[attr]))
    signal.signal(signal.SIGUSR1, _start_recording)

    code = cli.main(serve_argv)
    RECORDER.enabled = False
    with open(out, "w") as fh:
        json.dump({"spans": RECORDER.spans(), "counts": dict(RECORDER.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
