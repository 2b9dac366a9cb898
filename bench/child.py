"""Run a list of CLI jobs in this fresh interpreter, one after another.

Started by run.py as ``python3 child.py SPEC ROWS`` with the repository's
``tests/`` directory as working directory.  SPEC is a JSON file::

    {"src": ".../src", "memory_cap": bytes, "trace": null | "spans" | "peaks",
     "jobs": [{"id": ..., "argv": [...]}, ...]}

The address-space cap applies to this process only.  Each job calls
``qcw.cli.main(argv)`` with stdout and stderr captured; one JSON row per job
is appended to ROWS as soon as the job ends, so a killed child still leaves
the rows of the jobs it finished.  Before the first job and after each job
the reference kernel of speed.py is timed.  The last line is a summary with
the kernel times of each gap and, when tracing, the spans and counters.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

from speed import GAUGE_SHARE, gauge


def run_job(cli, job: dict, tracer) -> dict:
    out, err = io.StringIO(), io.StringIO()
    crash = None
    if tracer:
        tracer.begin_job(job["id"])
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(job["argv"])
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = None
            crash = traceback.format_exc()
    wall = time.perf_counter() - start
    if tracer:
        tracer.end_job()
    return {
        "id": job["id"],
        "rc": rc,
        "wall_s": wall,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "crash": crash,
    }


def main(spec_path: str, rows_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    cap = spec["memory_cap"]
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, spec["src"])
    import qcw.cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(peaks=spec["trace"] == "peaks")
        tracer.install()
    with open(rows_path, "w", encoding="utf-8") as rows:
        gaps = [gauge(0.0)]
        for job in spec["jobs"]:
            row = run_job(qcw.cli, job, tracer)
            rows.write(json.dumps(row) + "\n")
            rows.flush()
            gaps.append(gauge(GAUGE_SHARE * row["wall_s"]))
        summary = {"reference_s": gaps}
        if tracer:
            tracer.uninstall()
            summary["spans"] = tracer.spans
            summary["counters"] = tracer.counters
        rows.write(json.dumps({"summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
