"""Self-tests of the benchmark: run with ``python3 -m pytest bench/tests``."""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import jobs as ladders
import tracer
from validate import CRASHED, DEADLINE, OK, REFUSED, WRONG, Validator

ROOT = Path(__file__).resolve().parents[2]
TESTS = ROOT / "tests"


def row(stdout="", rc=0, stderr="", crash=None, ended="done"):
    return {"rc": rc, "stdout": stdout, "stderr": stderr, "crash": crash, "ended": ended}


# -- validation ---------------------------------------------------------------


def golden_job():
    return ladders.Job(
        id="g",
        argv=["compare", "Fq:5", "--q", "2"],
        golden="compare_fq5_q2",
        expect={"verdict": ladders.CONSISTENT},
    )


def test_validator_accepts_the_golden_output():
    text = (TESTS / "golden" / "compare_fq5_q2.json").read_text(encoding="utf-8")
    assert Validator(TESTS).classify(golden_job(), row(text))[0] == OK


def test_validator_rejects_a_perturbed_golden():
    text = (TESTS / "golden" / "compare_fq5_q2.json").read_text(encoding="utf-8")
    for perturbed in (text.replace('"quotient_order": 4', '"quotient_order": 5'), text.rstrip("\n")):
        outcome, why = Validator(TESTS).classify(golden_job(), row(perturbed))
        assert (outcome, why) == (WRONG, "differs from golden compare_fq5_q2")


def test_validator_rejects_a_wrong_verdict():
    job = ladders.Job(id="c", argv=["compare", "Qp:13", "--q", "3"], expect={"verdict": ladders.CONSISTENT})
    failed = json.dumps({"command": "compare", "verdict": "COMPARISON-FAILED"})
    assert Validator(TESTS).classify(job, row(failed))[0] == WRONG
    check = ladders.Job(id="k", argv=["check"], expect={"verdicts": ["not-realizable"]})
    inapplicable = json.dumps({"command": "check", "verdicts": [{"verdict": "not-applicable", "witness": {}}]})
    assert Validator(TESTS).classify(check, row(inapplicable))[0] == WRONG


def test_validator_rejects_an_h2_off_its_pin(monkeypatch):
    from qcw import cli

    monkeypatch.chdir(TESTS)
    job_list, _ = ladders.build("cohomology-h2", 0, Path("seeded.grp"))
    job = next(j for j in job_list if j.id == "cohomology-demushkin3-q2")
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(job.argv + ["--output", "json"]) == 0
    v = Validator(TESTS)
    assert v.classify(job, row(out.getvalue()))[0] == OK
    data = json.loads(out.getvalue())
    data["h2"]["invariants"] = data["h2"]["invariants"] + [2]  # still >= decomposable
    data["h2"]["dimension"] += 1
    assert v.classify(job, row(json.dumps(data)))[0] == WRONG


def test_validator_sorts_failures_into_classes():
    v, job = Validator(TESTS), golden_job()
    assert v.classify(job, row(ended="deadline"))[0] == DEADLINE
    assert v.classify(job, row(ended="died"))[0] == CRASHED
    assert v.classify(job, row(rc=None, crash="Traceback ...\nMemoryError"))[0] == CRASHED
    assert v.classify(job, row(rc=1, stderr="Traceback (most recent call last):\n  ...\nMemoryError\n"))[0] == CRASHED
    refused = v.classify(job, row(rc=1, stderr="error: |E(2,5)| = 3125 exceeds the order bound 512\n"))
    assert refused[0] == REFUSED


# -- tracing --------------------------------------------------------------------


def span(id_, name, start, end, parent=None):
    return {"id": id_, "name": name, "job": "j", "parent": parent, "start": start, "end": end, "peak_bytes": None}


def test_self_time_of_nested_spans():
    spans = [
        span(0, "cli", 0.0, 10.0),
        span(1, "cohom.h1", 1.0, 4.0, parent=0),
        span(2, "cohom.z2", 5.0, 9.0, parent=0),
        span(3, "zqlinalg.rowspace", 6.0, 8.0, parent=2),
        span(4, "zqlinalg.diagonalize", 8.0, 8.5, parent=2),
    ]
    assert tracer.self_times(spans) == {0: 3.0, 1: 3.0, 2: 1.5, 3: 2.0, 4: 0.5}
    metrics = tracer.layer_metrics(spans, {})
    assert metrics["cli.self_s"] == 3.0
    assert metrics["cohom.z2.self_s"] == 1.5
    assert metrics["cohom.z2.total_s"] == 4.0
    assert metrics["zqlinalg.diagonalize.calls"] == 1
    assert metrics["milnor.symbol_algebra.self_s"] == 0.0


def bindings():
    """Every name bound in a qcw module, and the traced class attributes."""
    import sys

    import qcw.cli  # noqa: F401  (imports every module the CLI uses)

    out = {}
    for name, module in list(sys.modules.items()):
        if name == "qcw" or name.startswith("qcw."):
            out.update({(name, k): v for k, v in vars(module).items()})
    for stage in tracer.STAGES:
        owner, attr = tracer._owner(stage)
        if isinstance(owner, type):
            out[(owner.__name__, attr)] = owner.__dict__[attr]
    return out


def test_tracer_patches_every_binding_and_restores_them():
    import qcw.cli
    import qcw.cohom
    import qcw.qcentral
    import qcw.realizability

    before = bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert qcw.cli.third_quotient is qcw.qcentral.third_quotient
        assert qcw.cli.third_quotient is not before[("qcw.qcentral", "third_quotient")]
        assert qcw.realizability.to_table is not before[("qcw.realizability", "to_table")]
        assert qcw.cohom.GroupCohomology.h1_space is not before[("GroupCohomology", "h1_space")]
        t.begin_job("j")
        with redirect_stdout(io.StringIO()) as out:
            assert qcw.cli.main(["compare", "Qp:3", "--q", "2", "--output", "json"]) == 0
        t.end_job()
    finally:
        t.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    golden = (TESTS / "golden" / "compare_qp3_q2.json").read_text(encoding="utf-8")
    assert out.getvalue() == golden
    names = {s["name"] for s in t.spans}
    assert {"cli", "qcentral.third_quotient", "cohom.dec_module", "milnor.symbol_algebra"} <= names
    assert [s["name"] for s in t.spans if s["parent"] is None] == ["cli"]
    assert t.counters["j"]["qcentral.quotient_order"] == 16
    assert t.counters["j"]["cohom.width"] == 15 * 15


# -- machine speed --------------------------------------------------------------


def test_a_job_is_scaled_by_the_kernel_times_on_both_sides():
    import speed

    n = speed.NOMINAL_S
    gaps = [[n], [2 * n, 2 * n, 2 * n], [n / 2]]
    assert speed.job_factors(gaps) == [0.5, 0.5]
    assert speed.job_factors([[n], [n / 2]]) == [speed.factor([n, n / 2])]
    assert len(speed.gauge(0.0)) == 1


# -- the seeded generator -----------------------------------------------------


@pytest.mark.parametrize("workload", ladders.WORKLOADS)
def test_a_seed_always_generates_the_same_jobs(workload):
    def snapshot(seed):
        job_list, text = ladders.build(workload, seed, Path("seeded.grp"))
        return [(j.id, j.argv, j.golden, j.expect) for j in job_list], text

    assert snapshot(7) == snapshot(7)
    if workload != ladders.CAPACITY:
        assert any(snapshot(7) != snapshot(s) for s in (8, 9))


@pytest.mark.parametrize("seed", range(4))
def test_seeded_presentations_have_the_built_in_orders(seed):
    from qcw.presentations import parse_file
    from qcw.qcentral import SeriesParams, second_quotient, third_quotient

    for workload in ("cohomology-h2", "quotient-check"):
        job_list, text = ladders.build(workload, seed, Path("seeded.grp"))
        groups = {g.name: g for g in parse_file(text)}
        for job in job_list:
            if job.argv[0] == "cohomology" and job.argv[1] == "seeded.grp":
                g = third_quotient(groups[job.argv[2]], SeriesParams.from_q(2))
                assert g.order == 16
            if job.argv[0] == "quotient" and job.argv[1] == "seeded.grp":
                params = SeriesParams.from_q(int(job.argv[job.argv.index("--q") + 1]))
                pres = groups[job.argv[2]]
                if "--level" in job.argv and job.argv[job.argv.index("--level") + 1] == "2":
                    assert second_quotient(pres, params).order == job.expect["order"]
                else:
                    assert third_quotient(pres, params).order == job.expect["order"]


def test_benchmark_json_names_what_the_runner_reports():
    import run

    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(ladders.LISTED)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.layer_units()


# -- children -------------------------------------------------------------------


def test_a_child_past_its_deadline_is_killed(tmp_path):
    import sys
    import time

    import run

    start = time.perf_counter()
    timed_out, usage = run.spawn(
        [sys.executable, "-c", "import time; time.sleep(30)"], tmp_path, 0.5, tmp_path / "log"
    )
    assert timed_out and time.perf_counter() - start < 10
    assert usage.ru_maxrss > 0


def test_a_capacity_probe_stays_under_its_memory_cap(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "WORK", tmp_path)
    # the order-19683 quotient asks numpy for 8.7 GiB when run uncapped
    job = next(j for j in ladders.build(ladders.CAPACITY, 0, Path("unused.grp"))[0] if j.argv[0] == "quotient")
    rows, _, timed_out, maxrss_kb = run.run_child([job], None, run.PROBE_MEMORY_CAP, 60, "probe")
    assert not timed_out and maxrss_kb * 1024 < run.PROBE_MEMORY_CAP
    outcome, why = Validator(TESTS).classify(job, rows[job.id])
    assert outcome in (OK, REFUSED) or (outcome == CRASHED and "MemoryError" in why)
