"""The qcw benchmark: closed-loop passes of CLI jobs, checked and timed.

Usage, from the repository root::

    python3 bench/run.py --workload compare-fields --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, one table

One client runs a workload's jobs one after another (a closed loop).  A
pass runs all of them in one fresh child interpreter, each job a call of
``qcw.cli.main(argv)``; passes repeat until ``--seconds`` have gone by.
The ``capacity`` workload instead runs each job in a child of its own,
under a deadline and an address-space cap set on that child only.  Every
output is checked after the passes (validate.py).

End-to-end metrics (``--trace 0``).  Times are wall times scaled to the
nominal machine speed of speed.py: the reference kernel is timed in the
gaps between jobs, and a job's wall time is multiplied by ``NOMINAL_S``
over the kernel's median time in the gaps next to it.  This takes out the
drift of a shared machine's speed, which moves all jobs together; the
unscaled values are printed as ``raw`` lines.  ``pass_s`` and
``job_geomean_s`` are means over the passes of a run: a 20 s run makes
about three passes, and over ten seeds the mean of three spread about a
third less than their median.  numpy runs with one BLAS thread (one
client, one core): on a shared 2-vCPU machine a two-thread OpenBLAS
product of a few hundred rows took from 1x to 5x the one-thread time,
depending on what the other vCPU was doing.

* ``pass_s``: time of one pass over the jobs (the sum of the job times),
  interpreter start-up, kernel gaps and validation excluded;
* ``job_geomean_s``: geometric mean of the job times of a pass;
* ``peak_rss_mb``: the pass child's ``ru_maxrss`` (median over the passes);
* ``setup_s``: time from a fresh interpreter to ``qcw.cli`` imported and
  its parser built (median of several interpreters, scaled by the kernel
  timed before each of them);
* ``failed_ratio`` (printed, and carried by ``failed``/``attempted``):
  job runs that were not ``ok`` over job runs attempted.

With ``--trace 1`` one first pass takes tracemalloc peaks, and then
untraced and traced passes alternate until ``--seconds`` have gone by since
the start.  The per-layer metrics of tracer.py are medians over the traced
passes (times scaled like the end-to-end ones), the peaks come from the
first pass (which tracemalloc slows by up to 16x, so it counts against
``--seconds`` to keep a traced run short), and
``trace.overhead_s`` is the mean traced ``pass_s`` minus the mean
untraced one.  ``capacity`` is not traced.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A report with one
row per job run (job id, argv, wall time, exit code, outcome, |G|) is
written to ``.bench_work/``, and with ``--trace 1`` the raw spans too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# every interpreter of the benchmark, this one and its children, runs
# numpy with one BLAS thread; set before numpy is first imported
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import jobs as ladders  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from validate import OK, WRONG, Validator, group_order  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".bench_work"
CHILD = BENCH / "child.py"

GIB = 1024**3
PASS_MEMORY_CAP = 4 * GIB  # keeps a runaway pass from taking the machine
PASS_DEADLINE_S = 90.0
PROBE_MEMORY_CAP = 1 * GIB  # capacity probes: fail at the cap, not by OOM kill
PROBE_DEADLINE_S = 10.0
SETUP_SAMPLES = 11

END_TO_END = {"pass_s": "s", "job_geomean_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import qcw.cli\n"
    "qcw.cli.build_parser()\n"
    "print(repr(time.time()))\n"
)


# ---------------------------------------------------------------------------
# children


def spawn(argv: list[str], cwd: Path, deadline: float, log: Path):
    """Run a child to its end or its deadline; return (timed_out, rusage).

    This process sleeps until the child ends and then reaps it with wait4,
    which yields the child's own rusage; a timer signal kills the child at
    its deadline.  The child is never left running, even when this process
    is interrupted.
    """
    timed_out = False

    def kill(signum, frame):
        nonlocal timed_out
        timed_out = True
        os.kill(proc.pid, signal.SIGKILL)

    with open(log, "w", encoding="utf-8") as out:
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            # wait without reaping, so the pid stays the child's until the
            # timer is off; the call resumes after the handler ran
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return timed_out, usage


def run_child(job_list, trace: str | None, cap: int, deadline: float, tag: str):
    """One child over ``job_list``: (rows by job id, summary, timed_out, maxrss_kb)."""
    spec_path, rows_path = WORK / f"{tag}.spec.json", WORK / f"{tag}.rows.jsonl"
    spec = {
        "src": str(SRC),
        "memory_cap": cap,
        "trace": trace,
        "jobs": [{"id": j.id, "argv": j.argv + ["--output", "json"]} for j in job_list],
    }
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    rows_path.unlink(missing_ok=True)
    timed_out, usage = spawn(
        [sys.executable, str(CHILD), str(spec_path), str(rows_path)],
        TESTS,
        deadline,
        WORK / f"{tag}.log",
    )
    rows, summary = {}, None
    if rows_path.exists():
        for line in rows_path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if "summary" in record:
                summary = record["summary"]
            else:
                rows[record["id"]] = dict(record, ended="done")
    return rows, summary, timed_out, usage.ru_maxrss


def run_pass(job_list, trace: str | None, capacity: bool, tag: str) -> dict:
    """One pass over the jobs: a row per job (in order) and the pass figures."""
    if not capacity:
        rows, summary, _, maxrss = run_child(
            job_list, trace, PASS_MEMORY_CAP, PASS_DEADLINE_S, tag
        )
        if summary is None:
            raise RuntimeError(f"a pass child did not finish; see {WORK / (tag + '.log')}")
        return {
            "rows": [rows[j.id] for j in job_list],
            "reference_s": summary["reference_s"],
            "maxrss_kb": maxrss,
            "spans": summary.get("spans", []),
            "counters": summary.get("counters", {}),
        }
    # capacity: a child per probe, timed from spawn to reap by this process
    out = {"rows": [], "reference_s": [speed.gauge(0.0)], "maxrss_kb": 0, "spans": [], "counters": {}}
    for k, job in enumerate(job_list):
        start = time.perf_counter()
        rows, _, timed_out, maxrss = run_child(
            [job], None, PROBE_MEMORY_CAP, PROBE_DEADLINE_S, f"{tag}-{k}"
        )
        wall = time.perf_counter() - start
        row = rows.get(job.id) or {
            "id": job.id, "rc": None, "stdout": "", "stderr": "", "crash": None,
            "ended": "deadline" if timed_out else "died",
        }
        row["wall_s"] = wall
        out["rows"].append(row)
        out["reference_s"].append(speed.gauge(speed.GAUGE_SHARE * wall))
        out["maxrss_kb"] = max(out["maxrss_kb"], maxrss)
    return out


def setup_seconds() -> float:
    """Fresh interpreter to qcw.cli imported and its parser built."""
    start = time.time()
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout
    return float(out) - start


# ---------------------------------------------------------------------------
# one workload


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run, check and summarise one workload; returns the report."""
    capacity = workload == ladders.CAPACITY
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    seeded = WORK / f"seeded-{workload}-seed{seed}.grp"
    job_list, text = ladders.build(workload, seed, Path("..") / seeded.relative_to(ROOT))
    seeded.write_text(text, encoding="utf-8")

    setup, setup_reference = [], []
    for _ in range(0 if trace else SETUP_SAMPLES):
        setup_reference.append(speed.reference_seconds())
        setup.append(setup_seconds())
    passes = []

    def run(mode):
        passes.append(dict(run_pass(job_list, mode, capacity, f"{tag}-{len(passes)}"), mode=mode))

    # traced passes alternate with untraced ones, so that the overhead is
    # measured under the same machine conditions
    modes = (None, "spans") if trace else (None,)
    start = time.perf_counter()
    if trace:
        run("peaks")
    while True:
        for mode in modes:
            run(mode)
        if time.perf_counter() - start >= seconds:
            break
    for p in passes:
        for row, f in zip(p["rows"], speed.job_factors(p["reference_s"])):
            row["scaled_s"] = row["wall_s"] * f
        walls = [r["wall_s"] for r in p["rows"]]
        scaled = [r["scaled_s"] for r in p["rows"]]
        p["raw"] = {"pass_s": sum(walls), "job_geomean_s": geomean(walls)}
        p["scaled"] = {"pass_s": sum(scaled), "job_geomean_s": geomean(scaled)}
        # the pass's time-weighted scale, for the per-layer times
        p["factor"] = sum(scaled) / sum(walls)
    plain = [p for p in passes if p["mode"] is None]
    timed = [p for p in passes if p["mode"] == "spans"]

    # checks, outside the timed passes: the first pass in full; every other
    # pass, traced ones included, must repeat its outputs exactly
    validator = Validator(TESTS)
    first = passes[0]["rows"]
    outcomes = [validator.classify(job, row) for job, row in zip(job_list, first)]
    report_rows = []
    failed = 0
    for n, p in enumerate(passes):
        for job, row, ref, (outcome, why) in zip(job_list, p["rows"], first, outcomes):
            if outcome == OK and (row["stdout"], row["rc"]) != (ref["stdout"], ref["rc"]):
                outcome, why = WRONG, "output differs from the first pass"
            failed += outcome != OK
            report_rows.append({
                "pass": n,
                "mode": p["mode"] or "plain",
                "job": job.id,
                "argv": job.argv,
                "wall_s": row["wall_s"],
                "scaled_s": row["scaled_s"],
                "exit_code": row["rc"],
                "outcome": outcome,
                "why": why,
                "order": group_order(row["stdout"]),
            })

    times = ("pass_s", "job_geomean_s")
    raw = {key: statistics.fmean(p["raw"][key] for p in plain) for key in times}
    metrics = {key: statistics.fmean(p["scaled"][key] for p in plain) for key in times}
    metrics["peak_rss_mb"] = statistics.median(p["maxrss_kb"] / 1024 for p in plain)
    if setup:
        raw["setup_s"] = statistics.median(setup)
        metrics["setup_s"] = raw["setup_s"] * speed.factor(setup_reference)
    layers = {}
    if trace:
        units = tracer.metric_units()
        per_pass = [
            {
                key: value * p["factor"] if units[key] == "s" else value
                for key, value in tracer.layer_metrics(p["spans"], p["counters"]).items()
            }
            for p in timed
        ]
        layers = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        layers.update(tracer.peak_metrics(passes[0]["spans"]))
        layers["trace.overhead_s"] = (
            statistics.fmean(p["scaled"]["pass_s"] for p in timed) - metrics["pass_s"]
        )
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": len(passes),
        # every job of a listed workload has a positive answer, so any run
        # that is not ok is an error of the program; the capacity probes are
        # expected to fail today, and only a wrong answer is incorrect there
        "correct": (
            not any(r["outcome"] == WRONG for r in report_rows) if capacity else failed == 0
        ),
        "attempted": len(report_rows),
        "failed": failed,
        "failed_ratio": failed / len(report_rows),
        "metrics": metrics,
        "raw": raw,
        "speed": statistics.median(p["factor"] for p in plain),
        "reference_s": [p["reference_s"] for p in passes],
        "layers": layers,
        "rows": report_rows,
        "spans": [s for p in passes for s in p["spans"]],
    }


def layer_units() -> dict[str, str]:
    return dict(tracer.metric_units(), **{"trace.overhead_s": "s"})


def print_report(report: dict) -> None:
    print(f"# workload {report['workload']} seed {report['seed']} trace {int(report['trace'])}"
          f" passes {report['passes']}")
    shown = min(r["pass"] for r in report["rows"] if r["mode"] == "plain")
    for row in report["rows"]:
        if row["pass"] == shown:
            print(f"job {row['job']:<36} {row['wall_s']:9.4f} s  exit {row['exit_code']}"
                  f"  {row['outcome']:<8} |G|={row['order']}  {' '.join(row['argv'])}"
                  + (f"  ({row['why']})" if row["why"] else ""))
    first = {r["job"]: r["outcome"] for r in report["rows"] if r["pass"] == 0}
    for row in report["rows"]:
        if row["outcome"] != first[row["job"]]:
            print(f"job {row['job']} pass {row['pass']}: {row['outcome']} ({row['why']})")
    for name, value in report["metrics"].items():
        print(f"metric {name} {value:.6g} {END_TO_END[name]}")
    for name, value in report["raw"].items():
        print(f"raw {name} {value:.6g} s (wall, unscaled)")
    print(f"speed factor {report['speed']:.4g} (nominal over measured kernel time)")
    print(f"metric failed_ratio {report['failed_ratio']:.6g} ratio"
          f" ({report['failed']} of {report['attempted']} job runs)")
    units = layer_units()
    for name, value in report["layers"].items():
        print(f"layer {name} {value:.6g} {units[name]}")


def result_line(report: dict) -> dict:
    if report["trace"]:
        units, values = layer_units(), report["layers"]
    else:
        units, values = END_TO_END, report["metrics"]
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def program_missing() -> str | None:
    for path in (SRC / "qcw" / "cli.py", TESTS / "data" / "groups.grp", TESTS / "golden"):
        if not path.exists():
            return f"{path.relative_to(ROOT)} not found: run from a checkout of the repository"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qcw benchmark")
    parser.add_argument("--workload", required=True, choices=ladders.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    missing = program_missing()
    if missing:
        print(f"error: {missing}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    if args.workload == ladders.CAPACITY and args.trace:
        parser.error("the capacity probes are not traced")
    if args.workload == "all":
        names = ladders.LISTED if args.trace else ladders.WORKLOADS
    else:
        names = (args.workload,)
    lines = {}
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        (WORK / f"report-{tag}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
        print_report(report)
        lines[name] = result_line(report)
    if len(names) == 1:
        line = lines[names[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {f"{w}.{k}": v for w, r in lines.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
