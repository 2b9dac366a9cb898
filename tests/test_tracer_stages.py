"""The benchmark tracer wraps qcw callables by name; every name must resolve.

A renamed method otherwise only shows when ``bench/run.py --trace 1``
installs the tracer and fails with a KeyError.  The same holds for the
attributes ``Tracer.end_job`` reads off the objects a job leaves behind.
"""

import importlib
import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import qcw.cli  # noqa: F401  (imports every module the tracer patches)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
DATA = Path(__file__).resolve().parent / "data" / "groups.grp"


def load_tracer():
    spec = importlib.util.spec_from_file_location("qcw_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_stage_resolves_to_a_qcw_callable():
    stages = load_tracer().STAGES
    assert stages
    for stage in stages:
        assert stage.module == "qcw" or stage.module.startswith("qcw."), stage
        owner = importlib.import_module(stage.module)
        *path, attr = stage.attr.split(".")
        for name in path:
            owner = getattr(owner, name)
        assert attr in vars(owner), f"{stage.name}: {stage.module}.{stage.attr} is gone"
        assert callable(vars(owner)[attr]), stage


def test_end_job_reads_what_a_cohomology_job_leaves():
    # end_job reads GroupCohomology.width and .t of every traced context, and
    # ClassTwoGroup.kernel_set() and .full_order of every third quotient
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        tracer.begin_job("j")
        with redirect_stdout(io.StringIO()):
            assert qcw.cli.main(["cohomology", str(DATA), "demushkin3", "--q", "2"]) == 0
        contexts, groups = list(tracer._contexts.values()), list(tracer._groups)
        tracer.end_job()
    finally:
        tracer.uninstall()
    assert contexts and groups
    counts = tracer.counters["j"]
    assert all(ctx.width == (ctx.t.order - 1) ** 2 for ctx in contexts)
    assert counts["cohom.width"] == sum(ctx.width for ctx in contexts)
    assert counts["qcentral.kernel_order"] == sum(len(g.kernel_set()) for g in groups)
    assert counts["qcentral.quotient_order"] == sum(g.full_order // len(g.kernel_set()) for g in groups)
    assert counts["qcentral.quotient_order"] == contexts[0].t.order == 16


SEEDED = """
group free3 { generators: x, y, z; relators: ; }
group seededclass2 { generators: x, y, z; relators: [[x, y], z], [[y, z], x], [[z, x], y]; }
"""


def test_each_command_parses_its_file_once(tmp_path):
    # every parse of a job falls inside one traced presentations.parse_file
    # span, so that the bench's parse layer holds all of the parsing
    seeded = tmp_path / "seeded.grp"
    seeded.write_text(SEEDED)
    commands = [
        ["quotient", str(DATA), "free2", "--q", "2"],
        ["cohomology", str(DATA), "demushkin3", "--q", "2"],
        ["check", "--file", str(seeded), "--group", "seededclass2", "--against", "free3", "--q", "2"],
        ["check", "--file", str(DATA), "--wreath-k", "free2", "--wreath-l", "free1",
         "--wreath-copies", "4", "--q", "2"],
    ]
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        for n, argv in enumerate(commands):
            tracer.begin_job(str(n))
            with redirect_stdout(io.StringIO()):
                assert qcw.cli.main(argv) == 0, argv
            tracer.end_job()
    finally:
        tracer.uninstall()
    parses = [s["job"] for s in tracer.spans if s["name"] == "presentations.parse_file"]
    assert parses == [str(n) for n in range(len(commands))]
