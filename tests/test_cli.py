import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

import qcw
import qcw.presentations
from qcw.cli import main
from qcw.presentations import MAX_RUNS
from qcw.qcentral import ClassTwoGroup

DATA = os.path.join(os.path.dirname(__file__), "data", "groups.grp")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run_cli(*argv, "--output", "json")
    return code, json.loads(out)


def test_quotient_free2():
    code, rep = run_json("quotient", DATA, "free2", "--level", "3", "--q", "2")
    assert code == 0
    assert rep["result"]["order"] == 32
    assert rep["result"]["class"] == 2
    assert rep["result"]["exponent"] == 4


def test_quotient_free1_q3():
    code, rep = run_json("quotient", DATA, "free1", "--level", "3", "--q", "3")
    assert code == 0
    assert rep["result"]["order"] == 9
    assert rep["result"]["abelian_invariants"] == [9]


def test_quotient_demushkin():
    code, rep = run_json("quotient", DATA, "demushkin3", "--q", "2")
    assert code == 0
    assert rep["result"]["order"] == 16


def test_quotient_free3_q3_needs_no_table():
    # |E(3, 3)| = 19683; a 19683 x 19683 coset table would not fit in memory
    code, rep = run_json("quotient", DATA, "free3", "--q", "3", "--order-bound", "20000")
    assert code == 0
    assert rep["result"]["order"] == 19683
    assert rep["result"]["class"] == 2
    assert rep["result"]["exponent"] == 9
    assert rep["result"]["abelian_invariants"] == [9, 9, 9]


def test_quotient_level_two():
    code, rep = run_json("quotient", DATA, "free2", "--level", "2", "--q", "2")
    assert code == 0
    assert rep["result"]["order"] == 4
    assert rep["result"]["exponent"] == 2


def test_cohomology_involution():
    code, rep = run_json("cohomology", DATA, "involution", "--q", "2")
    assert code == 0
    assert rep["h1"]["dimension"] == 1
    assert rep["decomposable_h2"]["dimension"] == 1


def test_cohomology_free2():
    code, rep = run_json("cohomology", DATA, "free2", "--q", "2")
    assert code == 0
    assert rep["h1"]["dimension"] == 2
    assert rep["decomposable_h2"]["dimension"] == 0


def test_cohomology_trivial():
    code, rep = run_json("cohomology", DATA, "trivialg", "--q", "2")
    assert code == 0
    assert rep["h1"]["dimension"] == 0
    assert rep["h2"]["dimension"] == 0
    assert rep["decomposable_h2"]["dimension"] == 0


def run_capped(cap, *argv, timeout=600):
    """The exit code and JSON report of a CLI run in a child whose address
    space is capped at ``cap`` bytes, killed after ``timeout`` seconds."""
    src = os.path.dirname(os.path.dirname(qcw.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [
            sys.executable, "-c", "import sys; from qcw.cli import main; sys.exit(main(sys.argv[1:]))",
            *argv, "--output", "json",
        ],
        capture_output=True, text=True, env=env, timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert child.returncode in (0, 2), child.stderr
    return child.returncode, json.loads(child.stdout)


def run_json_capped(cap, *argv, timeout=600):
    """The JSON report of a capped CLI run (``run_capped``) that exits 0."""
    code, rep = run_capped(cap, *argv, timeout=timeout)
    assert code == 0, rep
    return rep


def test_quotient_of_free3_at_q16_fits_800mb():
    # |G| = 16^9 = 2^36: the exponent comes from the powers of the three
    # generators and the three commutators, not from the elements, which
    # would take 512 GiB as one int64 array
    argv = ("quotient", DATA, "free3", "--q", "16", "--order-bound", "100000000000")
    code, rep = run_capped(800 * 10**6, *argv)
    assert code == 0
    assert rep["result"]["order"] == 16**9
    assert rep["result"]["exponent"] == 256
    assert rep["result"]["abelian_invariants"] == [256, 256, 256]


def test_cohomology_order243_fits_800mb():
    # the full H^2 of free2^[3,3], |G| = 243, in a child whose address space
    # is capped at 800 MB: Z^2 is solved and checked on the 484 generator
    # values, with no |G|^2-row or (|G|-1)^2-wide array
    argv = ("cohomology", DATA, "free2", "--q", "3", "--order-bound", "1000", "--h2-bound", "1000")
    rep = run_json_capped(800 * 10**6, *argv)
    assert rep["order"] == 243
    assert rep["h2"]["invariants"] == [3] * 5
    assert rep["decomposable_h2"]["invariants"] == []


def test_cohomology_free3_q2_order512():
    # |G| = 512: Z^2 from the 21 relators of free3^[3,2], 10731 walk rows on
    # the 1533 generator values (the tree's Schreier relators give 523775), in
    # a child capped at 3 GB.  About 3.5 s on a 2-vCPU VM, most of it the
    # walk sweep; the safety net checks the 14 H^2 representatives, not the
    # 522 Z^2 generators (about 12 s when it checked all of them)
    argv = ("cohomology", DATA, "free3", "--q", "2", "--order-bound", "1000", "--h2-bound", "1000")
    rep = run_json_capped(3 * 10**9, *argv)
    assert rep["order"] == 512
    assert rep["h2"]["invariants"] == [2] * 14
    assert rep["decomposable_h2"]["invariants"] == []


def test_cohomology_free2_q4_order1024_within_30s():
    # |G| = 1024 in a child capped at 3 GB: about 3 s on a 2-vCPU VM, where
    # the safety net on all 1026 Z^2 generators took 46-60 s; it now checks
    # the 5 H^2 representatives
    argv = ("cohomology", DATA, "free2", "--q", "4", "--order-bound", "5000", "--h2-bound", "5000")
    rep = run_json_capped(3 * 10**9, *argv, timeout=30)
    assert rep["order"] == 1024
    assert rep["h1"]["invariants"] == [4, 4]
    assert rep["h2"]["invariants"] == [4] * 5
    assert rep["decomposable_h2"]["invariants"] == []


def test_commands_never_enumerate_the_kernel(monkeypatch):
    # N is described by two Howell forms; kernel_set is only a test oracle
    def refuse(self):
        raise AssertionError("kernel_set was called")

    monkeypatch.setattr(ClassTwoGroup, "kernel_set", refuse)
    assert run_cli("cohomology", DATA, "demushkin3", "--q", "2")[0] == 0
    assert run_cli("compare", "Qp:7", "--q", "3")[0] == 0
    argv = ("check", "--file", DATA, "--group", "class2", "--against-free", "--q", "2")
    assert run_cli(*argv)[0] == 0


def test_milnor_commands():
    code, rep = run_json("milnor", "Fq:5", "--q", "2")
    assert code == 0
    assert rep["symbols"]["k1_orders"] == [2]
    assert rep["symbols"]["k2_invariants"] == []
    code, rep = run_json("milnor", "Qp:3", "--q", "2")
    assert code == 0
    assert rep["symbols"]["k1_basis"] == ["-1", "3"]
    assert rep["symbols"]["k2_invariants"] == [2]
    code, rep = run_json("milnor", "R", "--q", "2")
    assert code == 0
    assert rep["symbols"]["k2_invariants"] == [2]


@pytest.mark.parametrize(
    "field,q", [("Fq:5", 2), ("Qp:3", 2), ("R", 2), ("Qp:7", 3), ("Qp:5", 2)]
)
def test_compare_consistent(field, q):
    code, rep = run_json("compare", field, "--q", str(q))
    assert code == 0
    assert rep["verdict"] == "COMPARISON-CONSISTENT"
    assert rep["dims_match"] and rep["pairings_equivalent"]


def test_compare_dims():
    _, rep = run_json("compare", "Fq:5", "--q", "2")
    assert (rep["cohomology"]["dim1"], len(rep["cohomology"]["dec_invariants"])) == (1, 0)
    _, rep = run_json("compare", "Qp:3", "--q", "2")
    assert (rep["cohomology"]["dim1"], len(rep["cohomology"]["dec_invariants"])) == (2, 1)
    _, rep = run_json("compare", "R", "--q", "2")
    assert (rep["cohomology"]["dim1"], len(rep["cohomology"]["dec_invariants"])) == (1, 1)


def test_check_class2_both_routes():
    code, rep = run_json(
        "check", "--file", DATA, "--group", "class2", "--against-free",
        "--assert-realizable", "first", "--q", "2",
    )
    assert code == 0
    verdicts = {v["criterion"]: v["verdict"] for v in rep["verdicts"]}
    assert verdicts["relators-in-third-series"] == "not-realizable"
    assert verdicts["principle"] == "at-most-one-realizable"


def test_check_third_series_order_bound():
    argv = ("check", "--file", DATA, "--group", "class2", "--criterion", "third-series", "--q", "5")
    assert run_cli(*argv)[0] == 1  # |E(2, 5)| = 3125 is over the default bound
    code, rep = run_json(*argv, "--order-bound", "4096")
    assert code == 0
    assert rep["verdicts"][0]["verdict"] == "not-realizable"


def refuse_criteria(monkeypatch):
    """Make every criterion that builds a quotient raise if it runs."""
    import qcw.cli

    def refuse(*args, **kwargs):
        raise AssertionError("a criterion ran")

    for name in ("principle_check", "wreath_construct", "relators_in_third_series"):
        monkeypatch.setattr(qcw.cli, name, refuse)


def test_check_principle_refuses_a_prime_power_q(monkeypatch, capsys):
    # the principle runs at p: at --q 4 it would compare G^[3, 2] under a
    # report of "q": 4.  Refused before any quotient is built
    refuse_criteria(monkeypatch)
    for against in (("--against", "free2"), ("--against-free",)):
        argv = ("check", "--file", DATA, "--group", "class2", *against, "--q", "4", "--order-bound", "2000")
        assert run_cli(*argv, "--output", "json") == (1, "")
        assert capsys.readouterr().err == "error: the principle criterion needs a prime --q, not 4 = 2^2\n"


def test_check_wreath_refuses_a_prime_power_q(monkeypatch, capsys):
    refuse_criteria(monkeypatch)
    argv = ("check", "--file", DATA, "--wreath-k", "free2", "--wreath-l", "free1", "--wreath-copies", "4", "--q", "9")
    assert run_cli(*argv, "--output", "json") == (1, "")
    assert capsys.readouterr().err == "error: the wreath criterion needs a prime --q, not 9 = 3^2\n"


def test_check_at_a_prime_power_q_still_runs_third_series_and_dim_h1():
    # the third series term is taken at q; the dimension test reports its p
    code, rep = run_json("check", "--file", DATA, "--group", "class2", "--criterion", "third-series", "--q", "4",
                         "--order-bound", "2000")
    assert code == 0 and rep["q"] == 4
    code, rep = run_json("check", "--dim-h1", "2", "--cd", "3", "--torsion-free", "--q", "4")
    assert code == 0 and rep["verdicts"][0]["witness"]["p"] == 2


def test_check_free_alone_not_applicable():
    code, rep = run_json("check", "--file", DATA, "--group", "free2", "--q", "2")
    assert code == 2
    assert rep["verdicts"][0]["verdict"] == "criterion-not-applicable"


def test_check_wreath():
    code, rep = run_json(
        "check", "--file", DATA, "--wreath-k", "free1", "--wreath-l", "free1",
        "--wreath-copies", "2", "--wreath-action", "swap", "--q", "2",
    )
    assert code == 0
    v = rep["verdicts"][0]
    assert v["verdict"] == "not-realizable"
    assert v["witness"]["dim_h1"] == 2
    assert v["witness"]["cd"]["value"] == 3


def test_check_wreath_rank10_base_skips_the_table_check(tmp_path):
    # K^[2] of a free group of rank 10 has order 1024, over the default order
    # bound, and the stand-in (K^[2])^12 x| C12 is far over the sanity bound:
    # no table is built, and the witness has no "sanity" entry
    groups = tmp_path / "free10.grp"
    groups.write_text(
        "group free10 { generators: a,b,c,d,e,f,g,h,i,j; relators: ; }\n"
        "group free1 { generators: x; relators: ; }\n"
    )
    code, rep = run_json(
        "check", "--file", str(groups), "--wreath-k", "free10", "--wreath-l", "free1",
        "--wreath-copies", "12", "--q", "2",
    )
    assert code == 0
    w = rep["verdicts"][0]["witness"]
    assert rep["verdicts"][0]["verdict"] == "not-realizable"
    assert w["dim_h1"] == 11 and w["cd"]["value"] == 13 and w["threshold_copies"] == 11
    assert w["second_quotient_model_order"] == 2048
    assert "sanity" not in w


def test_check_wreath_single_copy():
    code, rep = run_json(
        "check", "--file", DATA, "--wreath-k", "free1", "--wreath-l", "free1",
        "--wreath-copies", "1", "--q", "2",
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--group", "free2"], "--group needs --file"),
        (["--group", "free2", "--against", "free3"], "--group needs --file"),
        (["--against", "free3", "--criterion", "principle"], "--group needs --file"),
        (["--wreath-k", "free2", "--wreath-l", "free1", "--wreath-copies", "2"], "--wreath-k needs --file"),
        (["--dim-h1", "-1", "--cd", "2", "--torsion-free"], "dim H^1 must be nonnegative, not -1"),
    ],
)
def test_check_refuses_a_missing_file_or_a_negative_dimension(argv, message, capsys):
    code, out = run_cli("check", *argv, "--q", "2")
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "--group is missing"),
        (["--against", "free3"], "--group is missing"),
        (["--wreath-k", "free2", "--wreath-copies", "2"], "--wreath-l is missing"),
    ],
)
def test_check_names_the_missing_group_option(argv, message, capsys):
    # a file but no group name: the option is named, not the name None
    code, out = run_cli("check", "--file", DATA, *argv, "--q", "2")
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["Qp:5", "--q", "4"], "|E(2,4)| = 1024 exceeds the order bound 512"),
        (["Qp:3", "--q", "2", "--order-bound", "31"], "|E(2,2)| = 32 exceeds the order bound 31"),
    ],
)
def test_compare_refuses_e_over_the_order_bound(argv, message, capsys):
    code, out = run_cli("compare", *argv)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def _walk_spy(monkeypatch):
    """The words that presentations._class2_image walks, in order."""
    walked = []
    walk = qcw.presentations._class2_image

    def spy(w, n):
        walked.append(w)
        return walk(w, n)

    monkeypatch.setattr(qcw.presentations, "_class2_image", spy)
    return walked


GROUP_NAMES = ["free2", "class2", "demushkin3", "demushkin7", "involution", "trivialg", "abelianized"]


@pytest.mark.parametrize("q", ["2", "3"])
@pytest.mark.parametrize("a", GROUP_NAMES)
def test_check_walks_each_relator_once(monkeypatch, a, q):
    # third series, the quotients, dim H^1 and the H^2 count all read the
    # class-2 images that each presentation keeps
    with open(DATA, encoding="utf-8") as handle:
        groups = {pres.name: pres for pres in qcw.parse_file(handle.read())}
    walked = _walk_spy(monkeypatch)
    for b in GROUP_NAMES:
        walked.clear()
        run_cli("check", "--file", DATA, "--group", a, "--against", b, "--q", q)
        names = [a] if a == b else [a, b]
        assert walked == [r for name in names for r in groups[name].relators], (a, b)


@pytest.mark.parametrize("field,q", [("R", "2"), ("Qp:3", "2"), ("Qp:5", "4"), ("Qp:7", "3"), ("Qp:13", "3")])
def test_compare_walks_each_relator_once(monkeypatch, field, q):
    walked = _walk_spy(monkeypatch)
    assert run_cli("compare", field, "--q", q, "--order-bound", "1024")[0] == 0
    model = qcw.galois_model(qcw.parse_field(field, qcw.SeriesParams.from_q(int(q))))
    assert walked == list(model.relators)


def test_check_dimension_test_direct():
    code, rep = run_json(
        "check", "--dim-h1", "2", "--cd", "3", "--torsion-free", "--q", "2"
    )
    assert code == 0
    assert rep["verdicts"][0]["verdict"] == "not-realizable"


@pytest.mark.parametrize("cd_args", [[], ["--cd", "3", "--cd-infinite"]])
def test_check_dimension_test_needs_exactly_one_cd(cd_args, capsys):
    # neither option is not an infinite cd, and both do not mean either one
    code, out = run_cli("check", "--dim-h1", "2", *cd_args, "--torsion-free", "--q", "2")
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: --dim-h1 needs exactly one of --cd and --cd-infinite\n"
    code, rep = run_json("check", "--dim-h1", "2", "--cd-infinite", "--torsion-free", "--q", "2")
    assert code == 0
    assert rep["verdicts"][0]["witness"]["cd"] == {"provenance": "user-supplied", "value": "infinity"}


def test_compare_qp11_q5_order625():
    # |G| = 625: a bar-width B^2 would be 624 x 389376 int64 (1.81 GiB); on the
    # generator values it is 624 x 1248
    code, rep = run_json("compare", "Qp:11", "--q", "5", "--order-bound", "4000")
    assert code == 0
    assert rep["verdict"] == "COMPARISON-CONSISTENT"
    assert rep["cohomology"]["quotient_order"] == 625
    assert rep["cohomology"]["dec_invariants"] == [5]


def test_compare_qp29_q7_order2401():
    # |G| = 2401: B^2 is the |S| = 2 gauge rows on the off-tree values, not
    # 2400 coboundary rows stacked on 4800 generator values
    code, rep = run_json("compare", "Qp:29", "--q", "7", "--order-bound", "100000")
    assert code == 0
    assert rep["verdict"] == "COMPARISON-CONSISTENT"
    assert rep["cohomology"]["quotient_order"] == 2401
    assert rep["cohomology"]["dec_invariants"] == [7]


def test_compare_qp17_q8_order4096_solves_h1_on_the_tree(monkeypatch):
    # |G| = 4096, |S| = 2: H^1 is the kernel of the 2-column gauge system, not
    # a dense elimination of the 8192 x 4095 homomorphism conditions.
    # compare reads its cup tensor off the relators and solves no H^1, so the
    # spy watches the coset-action cohomology of the same G^[3, 8]
    import qcw.cohom
    import qcw.zqlinalg
    from qcw.milnor import galois_model, parse_field
    from qcw.qcentral import SeriesParams, third_quotient, to_action

    inside, widths = [], []
    real_h1 = qcw.cohom.GroupCohomology.h1_space
    real_kernel = qcw.cohom.kernel_with_orders
    real_diagonalize = qcw.zqlinalg.diagonalize

    def h1_space(self):
        inside.append(len(self.t.spanning_tree().gens))
        try:
            return real_h1(self)
        finally:
            inside.pop()

    def spy(real):
        def call(A, *args, **kwargs):
            if inside:
                widths.append((inside[-1], np.shape(A)[-1]))
            return real(A, *args, **kwargs)
        return call

    monkeypatch.setattr(qcw.cohom.GroupCohomology, "h1_space", h1_space)
    monkeypatch.setattr(qcw.cohom, "kernel_with_orders", spy(real_kernel))
    monkeypatch.setattr(qcw.zqlinalg, "diagonalize", spy(real_diagonalize))
    params = SeriesParams.from_q(8)
    G = third_quotient(galois_model(parse_field("Qp:17", params)), params, 100000)
    assert G.order == 4096
    qcw.cohom.GroupCohomology(to_action(G, 100000), 8).h1_space()
    assert widths and all(width <= gens for gens, width in widths), widths
    code, rep = run_json("compare", "Qp:17", "--q", "8", "--order-bound", "100000")
    assert code == 0
    assert rep["verdict"] == "COMPARISON-CONSISTENT"
    assert rep["cohomology"]["quotient_order"] == 4096


def test_milnor_fq97_q32_fits_800mb():
    # k2 is Z/q on {g, g} modulo the Steinberg multiples, one gcd; the
    # bilinearity stack alone would be 2 q^3 = 65536 rows on the q^2 symbols
    rep = run_json_capped(800 * 10**6, "milnor", "Fq:97", "--q", "32")
    assert rep["symbols"]["k2_invariants"] == []


def test_compare_fq193_q64_order4096_fits_800mb():
    rep = run_json_capped(800 * 10**6, "compare", "Fq:193", "--q", "64", "--order-bound", "5000")
    assert rep["verdict"] == "COMPARISON-CONSISTENT"
    assert rep["cohomology"]["quotient_order"] == 4096


def test_cli_runs_do_not_import_numpy_ma():
    # np.unique and np.setdiff1d import numpy.ma on their first call
    src = os.path.dirname(os.path.dirname(qcw.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import sys, io, contextlib; from qcw.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()): code = main(sys.argv[1:])\n"
        "print(code, 'numpy.ma' in sys.modules)"
    )
    runs = [
        ["quotient", DATA, "free2", "--q", "2"],
        ["quotient", DATA, "demushkin3", "--level", "2", "--q", "4"],
        ["cohomology", DATA, "demushkin3", "--q", "2"],
        ["compare", "Fq:17", "--q", "8"],
        ["compare", "Qp:7", "--q", "3"],
        [
            "check", "--file", DATA, "--wreath-k", "free1", "--wreath-l", "free1",
            "--wreath-copies", "2", "--wreath-action", "swap", "--q", "2",
        ],
    ]
    for argv in runs:
        child = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=300
        )
        assert child.stdout.split() == ["0", "False"], (argv, child.stdout, child.stderr)


def test_cohomology_x1sq_q2_matches_its_golden(tmp_path):
    # x1^2 on three generators at q = 2 (|G| = 256): the pairing tensor is
    # indexed by the H^1 basis dual to x0, x1, x2, so its one nonzero value
    # is χ_1 ∪ χ_1, read off the relator x1^2
    path = tmp_path / "x1sq.grp"
    path.write_text("group x1sq { generators: x0, x1, x2; relators: x1^2; }\n")
    code, out = run_cli("cohomology", str(path), "x1sq", "--q", "2", "--h2-bound", "256", "--output", "json")
    assert code == 0
    with open(os.path.join(GOLDEN, "cohomology_x1sq_q2.json"), encoding="utf-8") as fh:
        assert fh.read() == out.replace(str(path), "x1sq.grp")


@pytest.mark.parametrize(
    "long_relator,short_relator", [("x^100000000", None), ("x^100000002", "x^2")]
)
def test_cohomology_of_a_long_run_costs_its_period(tmp_path, long_relator, short_relator):
    # x^100000000 lies in the third q-central term at q = 2, and x^100000002
    # has the image of x^2: each walks only the coset of <x>, |x| = 4 in G
    path = tmp_path / "long.grp"
    short = ", ".join(filter(None, [short_relator, "[x, y]"]))
    path.write_text(
        f"group long {{ generators: x, y; relators: {long_relator}, [x, y]; }}\n"
        f"group short {{ generators: x, y; relators: {short}; }}\n"
    )
    code, long_out = run_cli("cohomology", str(path), "long", "--q", "2", "--output", "json")
    assert code == 0
    code, short_out = run_cli("cohomology", str(path), "short", "--q", "2", "--output", "json")
    assert code == 0
    assert '"group": "long"' in long_out
    assert long_out.replace('"group": "long"', '"group": "short"') == short_out


@pytest.mark.parametrize(
    "output,name_line", [("json", '"group": "{}"'), ("text", "group: {}\n")], ids=["json", "text"]
)
def test_quotient_of_a_long_power_prints_what_free2_prints(tmp_path, output, name_line):
    # (x y)^400000 is 800000 runs; at q = 2 its image in E(2, 2) is trivial
    path = tmp_path / "long.grp"
    path.write_text(
        "group long { generators: x, y; relators: (x y)^400000; }\n"
        "group free2 { generators: x, y; relators: ; }\n"
    )
    code, long_out = run_cli("quotient", str(path), "long", "--q", "2", "--output", output)
    assert code == 0
    code, free_out = run_cli("quotient", str(path), "free2", "--q", "2", "--output", output)
    assert code == 0
    assert name_line.format("long") in long_out
    assert long_out.replace(name_line.format("long"), name_line.format("free2")) == free_out


DEMOS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "demos")


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_prints_its_golden_output(name):
    src = os.path.dirname(os.path.dirname(qcw.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, os.path.join(DEMOS, name)], capture_output=True, env=env, timeout=300
    )
    assert child.returncode == 0, child.stderr
    with open(os.path.join(GOLDEN, f"demo_{name[:2]}.txt"), "rb") as fh:
        assert child.stdout == fh.read()


def test_error_exit_codes():
    code, _ = run_cli("quotient", DATA, "nosuchgroup")
    assert code == 1
    code, _ = run_cli("milnor", "Fq:4", "--q", "2")  # 4 != 1 mod 2... 4 % 2 == 0
    assert code == 1
    code, _ = run_cli("compare", "Qp:2", "--q", "2")  # wild case rejected
    assert code == 1


def test_json_deterministic():
    _, out1 = run_cli("compare", "Qp:3", "--q", "2", "--output", "json")
    _, out2 = run_cli("compare", "Qp:3", "--q", "2", "--output", "json")
    assert out1 == out2


def test_text_output_runs():
    code, out = run_cli("quotient", DATA, "free2")
    assert code == 0
    assert "order: 32" in out


@pytest.mark.parametrize(
    "name,argv",
    [
        ("compare_fq5_q2", ["compare", "Fq:5", "--q", "2"]),
        ("compare_qp3_q2", ["compare", "Qp:3", "--q", "2"]),
        ("compare_r_q2", ["compare", "R", "--q", "2"]),
        ("compare_qp7_q3", ["compare", "Qp:7", "--q", "3"]),
        ("milnor_qp3_q2", ["milnor", "Qp:3", "--q", "2"]),
        ("quotient_free2_q2", ["quotient", "data/groups.grp", "free2", "--q", "2"]),
        ("quotient_demushkin3_q2", ["quotient", "data/groups.grp", "demushkin3", "--q", "2"]),
        (
            "check_class2_q2",
            [
                "check", "--file", "data/groups.grp", "--group", "class2",
                "--against-free", "--assert-realizable", "first", "--q", "2",
            ],
        ),
        # q = 2 walk sweeps wider than one 64-column word: the H^2 module of
        # free2 is 36 x 67, and free3's walk system has 1533 columns
        ("cohomology_free2_q2", ["cohomology", "data/groups.grp", "free2", "--q", "2"]),
        (
            "cohomology_free3_q2",
            [
                "cohomology", "data/groups.grp", "free3", "--q", "2",
                "--order-bound", "1000", "--h2-bound", "1000",
            ],
        ),
    ],
)
def test_golden_outputs(name, argv):
    argv = [a.replace("data/groups.grp", DATA) for a in argv]
    _, out = run_cli(*argv, "--output", "json")
    # keep golden files free of absolute paths
    out = out.replace(DATA, "data/groups.grp")
    path = os.path.join(GOLDEN, f"{name}.json")
    assert os.path.exists(path), f"golden file {name}.json is missing"
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.read() == out


def test_bad_modulus_clean_error():
    code, _ = run_cli("quotient", DATA, "free2", "--q", "12")
    assert code == 1


def test_cohomology_refuses_the_h2_bound_before_the_table(monkeypatch, capsys):
    # |G| = 32768 at free2, q = 8: refused before the generator columns
    # (and any table) are collected
    import qcw.cli

    def no_columns(*args, **kwargs):
        raise AssertionError("to_action called")

    monkeypatch.setattr(qcw.cli, "to_action", no_columns)
    code = main(["cohomology", DATA, "free2", "--q", "8", "--order-bound", "100000"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: group order 32768 exceeds the degree-2 bound 64\n"
    # the order bound is still checked first
    assert main(["cohomology", DATA, "free2", "--q", "8"]) == 1
    assert capsys.readouterr().err == "error: |E(2,8)| = 32768 exceeds the order bound 512\n"


def test_huge_power_is_refused_before_allocation(tmp_path, capsys):
    # (x y)^300000000 would hold 600 million runs; it used to end in a raw
    # MemoryError.  The conjugate (x y x^-1)^300000000 is x y^300000000 x^-1.
    huge = "group G { generators: x, y; relators: (x y)^300000000; }\n"
    (tmp_path / "huge.grp").write_text(huge)
    (tmp_path / "conj.grp").write_text("group H { generators: x, y; relators: (x y x^-1)^300000000; }\n")
    assert main(["quotient", str(tmp_path / "huge.grp"), "G", "--q", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: power too long: the powers and commutators of this file would build "
        f"more than {MAX_RUNS} runs (line 1, column {huge.index('^') + 1})\n"
    )
    code, rep = run_json("quotient", str(tmp_path / "conj.grp"), "H", "--q", "2")
    assert code == 0 and rep["result"]["order"] == 32  # y^300000000 is trivial mod 4


def test_parser_is_built_once_and_parses_alike(capsys):
    from qcw.cli import build_parser

    assert build_parser() is build_parser()
    outcomes = []
    for _ in range(2):
        for argv in (["--help"], ["cohomology", "--help"], ["nosuch"], ["quotient", DATA]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            outcomes.append((exit_info.value.code, capsys.readouterr()))
    assert outcomes[:4] == outcomes[4:]
    assert [code for code, _ in outcomes[:4]] == [0, 0, 2, 2]
    assert run_json("quotient", DATA, "free2")[1]["result"]["order"] == 32



@pytest.mark.parametrize(
    "argv,flag",
    [
        (["quotient", DATA, "free2"], "--h2-bound"),
        (["milnor", "Qp:3"], "--h2-bound"),
        (["milnor", "Qp:3"], "--order-bound"),
        (["compare", "Qp:3"], "--h2-bound"),
        (["check", "--dim-h1", "2", "--cd", "3", "--torsion-free"], "--h2-bound"),
    ],
)
def test_a_subcommand_takes_only_the_bounds_it_reads(argv, flag, capsys):
    # the command runs without the flag, and argparse refuses it with exit 2
    assert main(argv + ["--output", "json"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(argv + [flag, "1000"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 1000" in capsys.readouterr().err

# runs that the |G| x |G| tables took past any memory: compare reads only
# the generator columns, and check decides these pairs on the reduced forms


def test_compare_qp17_q16_order65536_fits_800mb():
    rep = run_json_capped(800 * 10**6, "compare", "Qp:17", "--q", "16", "--order-bound", "10000000")
    assert rep["verdict"] == "COMPARISON-CONSISTENT"
    assert rep["cohomology"]["quotient_order"] == 65536


def test_check_class2_against_free2_q7_order16807_fits_800mb():
    # equal kernels: the two 16807 x 16807 tables would be identical
    argv = ("check", "--file", DATA, "--group", "class2", "--against", "free2", "--q", "7", "--order-bound", "20000")
    rep = run_json_capped(800 * 10**6, *argv)
    assert [v["verdict"] for v in rep["verdicts"]] == ["not-realizable", "at-most-one-realizable"]
    assert rep["verdicts"][1]["witness"]["quotient_order"] == 16807


def test_check_demushkin3_against_free3_q3_fits_800mb():
    # the orders differ, so the quotients are not isomorphic
    argv = ("check", "--file", DATA, "--group", "demushkin3", "--against", "free3", "--q", "3",
            "--order-bound", "20000")
    code, rep = run_capped(800 * 10**6, *argv)
    assert code == 2
    assert rep["verdicts"][-1]["witness"]["orders"] == [9, 19683]
