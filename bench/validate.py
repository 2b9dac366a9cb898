"""Check job outputs and sort every job into one outcome class.

Outcomes: ``ok``; ``wrong`` (the output fails a check); ``refused`` (a clean
``error:`` message with exit 1, such as a SizeLimitError); ``crashed`` (a
traceback, or the child died); ``deadline`` (killed at its deadline).

Checks, all made outside the timed passes:

* golden jobs must match ``tests/golden/<name>.json`` byte for byte;
* every job must exit 0 (each one in the ladders has a positive answer);
* ``compare`` must say COMPARISON-CONSISTENT;
* ``cohomology``: dim H^1 equals the number of G^[2] invariants, the
  decomposable rank is at most dim H^2, and the invariants of H^1, H^2 and
  decomposable H^2 are the pinned ones of jobs.py;
* ``quotient``: applied twice, ``series_step_oracle`` reaches the identity
  of the G^[3] table; |G^[3]| / |G^(2)| equals |G^[2]| from
  ``second_quotient``; stated invariants hold;
* ``check``: the verdicts are the stated ones.

The oracles run qcw in this process, so run.py puts ``src`` on sys.path
first.
"""

from __future__ import annotations

import json
from pathlib import Path

OK, WRONG, REFUSED, CRASHED, DEADLINE = "ok", "wrong", "refused", "crashed", "deadline"
# above this order the table oracles would allocate too much to run here
ORACLE_ORDER_LIMIT = 4096


def group_order(stdout: str) -> int | None:
    """|G| of the group a job worked on, read from its JSON output."""
    try:
        data = json.loads(stdout)
    except ValueError:
        return None
    command = data.get("command")
    if command == "quotient":
        return data["result"]["order"]
    if command == "cohomology":
        return data["order"]
    if command == "compare":
        return data["cohomology"]["quotient_order"]
    if command == "check":
        for v in data["verdicts"]:
            w = v["witness"]
            if "quotient_order" in w:
                return w["quotient_order"]
            if "sanity" in w:
                return w["sanity"]["model_order"]
    return None


def _option(argv: list[str], flag: str, default: int) -> int:
    return int(argv[argv.index(flag) + 1]) if flag in argv else default


class Validator:
    """Classifies job results; caches the oracle tables of one run."""

    def __init__(self, tests_dir: Path):
        self.tests = tests_dir
        self._presentations: dict[tuple[str, str], object] = {}
        self._steps: dict[tuple, tuple[int, int, int]] = {}

    def classify(self, job, row: dict) -> tuple[str, str]:
        if row["ended"] == "deadline":
            return DEADLINE, "killed at its deadline"
        if row["ended"] == "died":
            return CRASHED, "the child ended before the job did"
        if row["crash"]:
            return CRASHED, row["crash"].strip().splitlines()[-1]
        if "Traceback" in row["stderr"]:
            return CRASHED, row["stderr"].strip().splitlines()[-1]
        if row["rc"] == 1 and row["stderr"].startswith("error:"):
            return REFUSED, row["stderr"].strip()
        problem = self.problem(job, row["rc"], row["stdout"])
        return (WRONG, problem) if problem else (OK, "")

    def problem(self, job, rc, stdout: str) -> str | None:
        """What is wrong with one output, or None."""
        if job.golden:
            golden = (self.tests / "golden" / f"{job.golden}.json").read_text(encoding="utf-8")
            if stdout != golden:
                return f"differs from golden {job.golden}"
        if rc != 0:
            return f"exit code {rc}"
        try:
            data = json.loads(stdout)
        except ValueError:
            return "output is not JSON"
        check = getattr(self, f"_check_{data.get('command')}", None)
        return check(job, data) if check else f"unexpected command {data.get('command')!r}"

    # -- per command ----------------------------------------------------------

    def _check_compare(self, job, data) -> str | None:
        if data["verdict"] != job.expect["verdict"]:
            return f"verdict {data['verdict']}"
        return None

    def _check_cohomology(self, job, data) -> str | None:
        from qcw.qcentral import SeriesParams, second_quotient, table_record

        pres = self._presentation(job.argv[1], job.argv[2])
        q = data["q"]
        level2 = table_record(second_quotient(pres, SeriesParams.from_q(q), 1 << 30))
        if data["h1"]["dimension"] != len(level2["abelian_invariants"]):
            return "dim H^1 differs from the number of G^[2] invariants"
        if data["decomposable_h2"]["dimension"] > data["h2"]["dimension"]:
            return "decomposable H^2 is larger than H^2"
        for key in ("h1", "h2", "decomposable_h2"):
            if key in job.expect and data[key]["invariants"] != job.expect[key]:
                return f"{key} invariants {data[key]['invariants']}, expected {job.expect[key]}"
        return None

    def _check_quotient(self, job, data) -> str | None:
        result = data["result"]
        for key, value in job.expect.items():
            if result[key] != value:
                return f"{key} {result[key]}, expected {value}"
        order3 = result["order"] if data["level"] == 3 else None
        if order3 is not None and order3 > ORACLE_ORDER_LIMIT:
            return None
        ob = _option(job.argv, "--order-bound", 512)
        table_order, step_order, level2_order = self._series(job.argv[1], job.argv[2], data["q"], ob)
        if step_order is None:
            return "series_step_oracle applied twice does not reach the identity"
        if table_order // step_order != level2_order:
            return "|G^[3]| / |G^(2)| differs from second_quotient's order"
        if data["level"] == 3 and order3 != table_order:
            return "order differs from the table's"
        if data["level"] == 2 and result["order"] != level2_order:
            return "order differs from second_quotient's"
        return None

    def _check_check(self, job, data) -> str | None:
        verdicts = [v["verdict"] for v in data["verdicts"]]
        if verdicts != job.expect["verdicts"]:
            return f"verdicts {verdicts}"
        if job.expect.get("wreath_sanity"):
            sanity = data["verdicts"][0]["witness"].get("sanity", {})
            if not (sanity.get("builder_consistent") and sanity.get("matches_formula")):
                return f"wreath sanity check {sanity}"
        return None

    # -- oracles --------------------------------------------------------------

    def _presentation(self, path: str, name: str):
        key = (path, name)
        if key not in self._presentations:
            from qcw.presentations import parse_file

            text = (self.tests / path).read_text(encoding="utf-8")
            self._presentations[key] = next(g for g in parse_file(text) if g.name == name)
        return self._presentations[key]

    def _series(self, path: str, name: str, q: int, order_bound: int):
        """|G^[3]|, |G^(2)| (None unless the next step is trivial), |G^[2]|."""
        key = (path, name, q, order_bound)
        if key not in self._steps:
            from qcw.qcentral import (
                SeriesParams,
                second_quotient,
                series_step_oracle,
                third_quotient,
                to_table,
            )

            pres = self._presentation(path, name)
            params = SeriesParams.from_q(q)
            t = to_table(third_quotient(pres, params, order_bound), order_bound)
            step1 = series_step_oracle(t, set(range(t.order)), params)
            step2 = series_step_oracle(t, step1, params)
            level2 = second_quotient(pres, params, 1 << 30).order
            self._steps[key] = (t.order, len(step1) if step2 == {t.identity} else None, level2)
        return self._steps[key]
