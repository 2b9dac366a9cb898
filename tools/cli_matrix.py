"""Byte-identity matrix: a fixed list of qcw command lines, one line each.

Each command line runs as ``python -m qcw.cli ... --output json`` in a child
process of its own, one after another, under a 120 s timeout and a 2 GiB
address-space cap (``RLIMIT_AS``) set on that child only.  The child's
working directory is a fresh temporary directory holding
``data/groups.grp`` (the test suite's presentations), ``data/long.grp``
(long relator runs), ``data/longpower.grp`` (a relator of 800000 runs),
``data/inverse.grp`` (two equal generators, inverse runs) and one
malformed file per kind of ``ParseError`` (``MALFORMED``), so every argv
is the same whichever checkout runs.
One line is printed per run::

    <argv> <TAB> exit=<code> <TAB> out=<sha256 of stdout> <TAB> err=<sha256 of stderr>

where the code is the child's exit status, ``timeout``, or ``signal<N>``.
To check that a change keeps every output byte for byte, run the matrix on
both checkouts and diff the two listings::

    python3 tools/cli_matrix.py --src /path/to/parent/src > parent.txt
    python3 tools/cli_matrix.py > change.txt
    diff parent.txt change.txt

The runs:

* every group of ``tests/data/groups.grp`` through ``quotient`` and
  ``cohomology`` at q in {2, 3, 4, 5, 8, 9}, default bounds;
* ``compare`` and ``milnor`` on the field ladder of the benchmark's
  compare-fields workload (bench/jobs.py), every field its bands can draw;
* three m = 2 ``compare`` runs at q beyond the ladder's 2 and 3:
  ``Qp:5 --q 4 --order-bound 1024``, ``Qp:11 --q 5 --order-bound 4000``
  and ``Qp:37 --q 9 --order-bound 60000``;
* the ``check`` runs of the benchmark's quotient-check workload and of the
  README, and ``check --against-free`` for every group at q = 2;
* ``cohomology`` at q = 2 of long relator runs (x^100000000 and
  x^100000002 beside [x, y]) and of the short groups they equal;
* ``quotient`` of (x y)^400000 at q in {2, 3};
* ``quotient`` at q = 2 of each malformed file, so that the listing pins
  the message, line and column of each kind of ``ParseError``: an
  unexpected character (a form feed, a non-ASCII letter), an undeclared
  generator, brackets nested past ``MAX_DEPTH``, a power past
  ``MAX_RUNS``, an empty generator list, a duplicate generator, a missing
  ";", text after the last "}" and a file of comments only;
* ``check --group a --against b`` for every ordered pair of groups at
  q in {2, 3};
* three ``quotient`` runs whose record the exponent lemma reads off the
  generators: ``free3 --q 5 --order-bound 2000000`` (|G| = 5^9), ``free2
  --q 16 --order-bound 20000000`` (|G| = 2^20) and ``free3 --q 16
  --order-bound 100000000000`` (|G| = 2^36, which no array of its
  elements fits);
* five runs past the |G| x |G| tables: ``compare Qp:17 --q 16`` (|G| =
  65536), ``compare Qp:97 --q 32`` (|G| = 2^20) and ``compare Qp:193
  --q 64 --order-bound 2000000000`` (|G| = 2^24, whose cup tensor is read
  off the relators), ``check class2 --against free2 --q 7`` and ``check
  demushkin3 --against free3 --q 3``;
* five ``cohomology`` runs with large bounds: ``free2 --q 3`` (|G| =
  243) and ``free3 --q 2`` (|G| = 512) at ``--order-bound 1000
  --h2-bound 1000``, ``free2 --q 4 --order-bound 5000 --h2-bound 5000``
  (|G| = 1024), ``demushkin7 --q 3 --order-bound 2048 --h2-bound
  256`` (|G| = 81), which has a nonzero decomposable part, and
  ``abelianized --q 7 --order-bound 20000 --h2-bound 2401`` (|G| =
  2401).  The free3 and the q = 4 run count the support of their H^2
  basis classes over three blocks of rows each; the abelianized run
  counts its three H^2 classes over nine blocks and its decomposable
  class over two;
* ``cohomology`` at q in {2, 3} of <x, y | x y^-1>, whose two listed
  generators are equal, and of <x, y | x^-3 y^-2 x y>, whose relator has
  inverse runs;
* ``check class2 --against free2 --q 4 --order-bound 2000``, which pins
  the refusal of a prime power q by the principle criterion;
* three wreath ``check`` runs whose stand-in W = (K^[2])^m x| P is read
  through its generator columns (``semidirect_power_action``) and reported
  in a ``sanity`` block: K = free3, m = 3, P = C3 acting by 1,2,0 at q = 2
  (P is not a 2-group); K = demushkin3, m = 2, the swap at q = 3; and
  K = free2, m = 3, the cyclic action at q = 3;
* four ``check`` runs that exit 1 with one ``error:`` line: ``--group``,
  ``--group --against`` and ``--wreath-k`` with no ``--file``, and
  ``--dim-h1 -1``, a negative dim H^1;
* two ``compare`` refusals of |E(n, q)| over the order bound (exit 1):
  ``Qp:5 --q 4`` at the default bound (|E(2, 4)| = 1024 > 512) and
  ``Qp:3 --q 2 --order-bound 31`` (|E(2, 2)| = 32);
* two ``check`` runs with ``--file`` that exit 1 naming a missing option:
  no ``--group``, and ``--wreath-k`` with no ``--wreath-l``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GROUPS = ROOT / "tests" / "data" / "groups.grp"
MODULI = (2, 3, 4, 5, 8, 9)
TIMEOUT_S = 120
MEMORY_CAP = 2 << 30

LONG = """\
group longx { generators: x, y; relators: x^100000000, [x, y]; }
group comm { generators: x, y; relators: [x, y]; }
group longx2 { generators: x, y; relators: x^100000002, [x, y]; }
group sq { generators: x, y; relators: x^2, [x, y]; }
"""
LONG_POWER = "group longxy { generators: x, y; relators: (x y)^400000; }\n"
INVERSE = """\
group equal { generators: x, y; relators: x y^-1; }
group invruns { generators: x, y; relators: x^-3 y^-2 x y; }
"""

# one file per kind of ParseError, each read as group G
MALFORMED = {
    "formfeed.grp": "group G {\n  generators: x, y;\n  relators: x\f y; }\n",
    "nonascii.grp": "group G { generators: x, y; relators: [x, y] # é in a comment\n, x é; }\n",
    "undeclared.grp": "group G { generators: x, y;\n  relators: [x, z]; }\n",
    "nested.grp": "group G { generators: x; relators: " + "(" * 501 + "x" + ")" * 501 + "; }\n",
    "runs.grp": "group G { generators: x, y;\n  relators: [x, y], (x y)^300000000; }\n",
    "emptygens.grp": "group G { generators: ; relators: ; }\n",
    "duplicate.grp": "group G { generators: x, y, x; relators: ; }\n",
    "semicolon.grp": "group G {\n  generators: x, y\n  relators: x; }\n",
    "trailing.grp": "group G { generators: x; relators: x^2; }\n}\n",
    "comments.grp": "# a file of comments only\n  # and blanks\n",
}


def _primes(lo: int, hi: int) -> list[int]:
    return [m for m in range(max(lo, 2), hi + 1) if all(m % d for d in range(2, int(m**0.5) + 1))]


def field_ladder() -> list[tuple[str, int]]:
    """(field, q) for every draw of the compare-fields bands, fixed fields first."""
    fields = [("Fq:5", 2), ("Qp:3", 2), ("R", 2), ("Qp:7", 3)]
    fields += [(f"Qp:{p}", 2) for p in _primes(100, 200)]
    fields += [(f"Qp:{p}", 3) for p in _primes(100, 200) if p % 3 == 1]
    fields += [(f"Fq:{p}", 4) for p in _primes(5, 40) if p % 4 == 1]
    fields += [("Fq:31", 5), ("Fq:41", 5), ("Fq:17", 8), ("Fq:25", 8)]
    fields += [(f"Fq:{p}", 2) for p in _primes(990, 1010)]
    return fields


def command_lines() -> list[list[str]]:
    grp = "data/groups.grp"
    groups = re.findall(r"^group\s+(\w+)", GROUPS.read_text(encoding="utf-8"), flags=re.M)
    runs = []
    for q in MODULI:
        for g in groups:
            runs.append(["quotient", grp, g, "--q", str(q)])
            runs.append(["cohomology", grp, g, "--q", str(q)])
    for field, q in field_ladder():
        runs.append(["compare", field, "--q", str(q)])
        runs.append(["milnor", field, "--q", str(q)])
    runs += [
        ["compare", "Qp:5", "--q", "4", "--order-bound", "1024"],
        ["compare", "Qp:11", "--q", "5", "--order-bound", "4000"],
        ["compare", "Qp:37", "--q", "9", "--order-bound", "60000"],
    ]
    runs += [
        ["check", "--file", grp, "--group", "class2", "--against-free", "--assert-realizable", "first", "--q", "2"],
        ["check", "--file", grp, "--wreath-k", "free2", "--wreath-l", "free1", "--wreath-copies", "4", "--q", "2"],
        ["check", "--file", grp, "--wreath-k", "free1", "--wreath-l", "free1", "--wreath-copies", "2",
         "--wreath-action", "swap", "--q", "2"],
        ["check", "--dim-h1", "2", "--cd", "3", "--torsion-free", "--q", "2"],
    ]
    runs += [["check", "--file", grp, "--group", g, "--against-free", "--q", "2"] for g in groups]
    runs += [["cohomology", "data/long.grp", g, "--q", "2"] for g in ("longx", "comm", "longx2", "sq")]
    runs += [["quotient", "data/longpower.grp", "longxy", "--q", str(q)] for q in (2, 3)]
    runs += [["quotient", f"data/{name}", "G", "--q", "2"] for name in MALFORMED]
    runs += [
        ["check", "--file", grp, "--group", a, "--against", b, "--q", str(q)]
        for q in (2, 3)
        for a in groups
        for b in groups
    ]
    runs += [
        ["quotient", grp, "free3", "--q", "5", "--order-bound", "2000000"],
        ["quotient", grp, "free2", "--q", "16", "--order-bound", "20000000"],
        ["quotient", grp, "free3", "--q", "16", "--order-bound", "100000000000"],
    ]
    runs += [
        ["compare", "Qp:17", "--q", "16", "--order-bound", "10000000"],
        ["compare", "Qp:97", "--q", "32", "--order-bound", "100000000"],
        ["compare", "Qp:193", "--q", "64", "--order-bound", "2000000000"],
        ["check", "--file", grp, "--group", "class2", "--against", "free2", "--q", "7", "--order-bound", "20000"],
        ["check", "--file", grp, "--group", "demushkin3", "--against", "free3", "--q", "3", "--order-bound", "20000"],
    ]
    runs += [
        ["cohomology", grp, "free2", "--q", "3", "--order-bound", "1000", "--h2-bound", "1000"],
        ["cohomology", grp, "free3", "--q", "2", "--order-bound", "1000", "--h2-bound", "1000"],
        ["cohomology", grp, "free2", "--q", "4", "--order-bound", "5000", "--h2-bound", "5000"],
        ["cohomology", grp, "demushkin7", "--q", "3", "--order-bound", "2048", "--h2-bound", "256"],
        ["cohomology", grp, "abelianized", "--q", "7", "--order-bound", "20000", "--h2-bound", "2401"],
    ]
    runs += [["cohomology", "data/inverse.grp", g, "--q", str(q)] for q in (2, 3) for g in ("equal", "invruns")]
    runs += [["check", "--file", grp, "--group", "class2", "--against", "free2", "--q", "4", "--order-bound", "2000"]]
    runs += [
        ["check", "--file", grp, "--wreath-k", k, "--wreath-l", "free1", "--wreath-copies", m, *how, "--q", q]
        for k, m, how, q in (
            ("free3", "3", ["--wreath-action", "1,2,0"], "2"),
            ("demushkin3", "2", ["--wreath-action", "swap"], "3"),
            ("free2", "3", [], "3"),
        )
    ]
    runs += [
        ["check", "--group", "free2"],
        ["check", "--group", "free2", "--against", "free3"],
        ["check", "--wreath-k", "free2", "--wreath-l", "free1", "--wreath-copies", "2"],
        ["check", "--dim-h1", "-1", "--cd", "2", "--torsion-free"],
    ]
    runs += [
        ["compare", "Qp:5", "--q", "4"],
        ["compare", "Qp:3", "--q", "2", "--order-bound", "31"],
        ["check", "--file", grp],
        ["check", "--file", grp, "--wreath-k", "free2", "--wreath-copies", "2"],
    ]
    return [argv + ["--output", "json"] for argv in runs]


def run_one(argv: list[str], src: str, workdir: str) -> str:
    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))

    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    try:
        child = subprocess.run(
            [sys.executable, "-m", "qcw.cli", *argv],
            cwd=workdir, env=env, capture_output=True, timeout=TIMEOUT_S, preexec_fn=limit,
        )
        code = str(child.returncode) if child.returncode >= 0 else f"signal{-child.returncode}"
        out, err = child.stdout, child.stderr
    except subprocess.TimeoutExpired as exc:
        code, out, err = "timeout", exc.stdout or b"", exc.stderr or b""
    out, err = hashlib.sha256(out).hexdigest(), hashlib.sha256(err).hexdigest()
    return f"{' '.join(argv)}\texit={code}\tout={out}\terr={err}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="the src directory of the checkout to run")
    args = ap.parse_args(argv)
    src = str(Path(args.src).resolve())
    with tempfile.TemporaryDirectory(prefix="qcw-matrix-") as workdir:
        (Path(workdir) / "data").mkdir()
        shutil.copy(GROUPS, Path(workdir) / "data" / "groups.grp")
        files = {"long.grp": LONG, "longpower.grp": LONG_POWER, "inverse.grp": INVERSE, **MALFORMED}
        for name, text in files.items():
            (Path(workdir) / "data" / name).write_text(text, encoding="utf-8")
        for run in command_lines():
            print(run_one(run, src, workdir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
