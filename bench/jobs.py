"""Workload ladders: the CLI jobs each workload runs, fixed and seeded.

A job is one ``qcw`` command line (without ``--output json``, which the
runner appends) plus what its output must satisfy.  Every argv is relative
to the repository's ``tests/`` directory, so a golden job's ``"file":
"data/groups.grp"`` matches its golden file byte for byte.

Seeded jobs are drawn from ``random.Random(f"{workload}:{seed}")`` within
narrow bands chosen so that a job's cost barely depends on the draw: the
benchmark compares runs made with different seeds, so the seed may vary the
inputs but not the amount of work.  Seeded presentations are built with a
small free-group toolkit of this module's own (no qcw code), and their
expected invariants follow from how they are built:

* cohomology-h2: a Demushkin-type relator ``s t s^-1 t^-k`` (k odd, so
  |G^[3,2]| = 16) moved by a random free-group automorphism and conjugated.
  Isomorphic groups, so H^1, H^2 and decomposable H^2 must be those of the
  unmoved relator, which are the same for every odd k (``DEMUSHKIN_Q2``).
* quotient-check: one relator ``c w^q c^-1`` where w's exponent sums have a
  unit entry mod p (so N = <w^q> has order q and |G^[3]| = |E(n, q)| / q,
  |G^[2]| = q^n), plus one relator from the third series term (trivial in
  E(n, q)).  And the eight Hall commutators of weight 3 on three
  generators, moved by a random automorphism, against free3: the relators
  lie in the third series term and span its weight-3 layer, so the verdicts
  are "not-realizable" and "at-most-one-realizable".

The cohomology invariants pinned below (``COHOMOLOGY_Q2`` and the q = 4, 5
entries) are the values qcw printed when this benchmark was written;
tests/test_cohom.py checks that code against brute force on small groups.  Pinning them makes
a wrong H^2 fail validation even when it is wrong in the same way for a
seeded group and the group it was moved from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

GROUPS = "data/groups.grp"

# workloads the benchmark contract runs, in BENCHMARK.json order
LISTED = ("compare-fields", "cohomology-h2", "quotient-check")
# the failures of the baseline; run on request only (see run.py)
CAPACITY = "capacity"
WORKLOADS = LISTED + (CAPACITY,)

CONSISTENT = "COMPARISON-CONSISTENT"


@dataclass
class Job:
    """One CLI call and the checks its output must pass.

    ``golden`` names a file under tests/golden that stdout must equal.
    ``expect`` holds command-specific checks, read by validate.py.
    """

    id: str
    argv: list[str]
    golden: str | None = None
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# a small free-group toolkit: words are tuples of (generator, +-1) letters


def reduce_word(letters):
    out = []
    for g, e in letters:
        if out and out[-1] == (g, -e):
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def inverse(w):
    return tuple((g, -e) for g, e in reversed(w))


def gen(i, e=1):
    return tuple([(i, 1 if e > 0 else -1)] * abs(e))


def concat(*words):
    return reduce_word([letter for w in words for letter in w])


def power(w, k):
    return concat(*([w if k > 0 else inverse(w)] * abs(k)))


def commutator(a, b):
    return concat(inverse(a), inverse(b), a, b)


def substitute(w, images):
    """Image of w under the endomorphism x_i -> images[i]."""
    return concat(*[images[g] if e > 0 else inverse(images[g]) for g, e in w])


def random_word(rng, n, length):
    return reduce_word([(rng.randrange(n), rng.choice((1, -1))) for _ in range(length)])


def random_automorphism(rng, n, moves):
    """Generator images of a product of random elementary Nielsen moves."""
    images = [gen(i) for i in range(n)]
    for _ in range(moves):
        if n == 1:
            images = [inverse(images[0])] if rng.random() < 0.5 else images
            continue
        i, j = rng.sample(range(n), 2)
        kind = rng.randrange(3)
        if kind == 0:
            images[i] = concat(images[i], images[j])
        elif kind == 1:
            images[i] = concat(images[j], images[i])
        else:
            images[i] = inverse(images[i])
    return images


def exponent_sums(w, n):
    sums = [0] * n
    for g, e in w:
        sums[g] += e
    return sums


def serialize(w, names):
    """The DSL spelling of a word, runs folded into powers."""
    if not w:
        return f"{names[0]} {names[0]}^-1"
    parts, run_g, run_e = [], None, 0
    for g, e in list(w) + [(None, 0)]:
        if g == run_g:
            run_e += e
            continue
        if run_g is not None:
            parts.append(names[run_g] if run_e == 1 else f"{names[run_g]}^{run_e}")
        run_g, run_e = g, e
    return " ".join(parts)


def group_text(name, names, relators):
    rels = ", ".join(serialize(r, names) for r in relators)
    return f"group {name} {{ generators: {', '.join(names)}; relators: {rels}; }}"


def hall_weight3(n):
    """The Hall basic commutators [[x_j, x_i], x_k], i < j, k >= i."""
    return [
        commutator(commutator(gen(j), gen(i)), gen(k))
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(i, n)
    ]


def _primes(lo, hi):
    return [m for m in range(max(lo, 2), hi + 1) if all(m % d for d in range(2, int(m**0.5) + 1))]


# ---------------------------------------------------------------------------
# workloads


def _compare(field_, q, golden=None):
    return Job(
        id=f"compare-{field_.replace(':', '')}-q{q}",
        argv=["compare", field_, "--q", str(q)],
        golden=golden,
        expect={"verdict": CONSISTENT},
    )


def compare_fields(rng):
    jobs = [
        _compare("Fq:5", 2, "compare_fq5_q2"),
        _compare("Qp:3", 2, "compare_qp3_q2"),
        _compare("R", 2, "compare_r_q2"),
        _compare("Qp:7", 3, "compare_qp7_q3"),
    ]
    # bands: the finite-field cost grows with s and q^3, the local one
    # barely; the bands keep a job's cost about the same whatever the draw
    jobs.append(_compare(f"Qp:{rng.choice(_primes(100, 200))}", 2))
    jobs.append(_compare(f"Qp:{rng.choice([p for p in _primes(100, 200) if p % 3 == 1])}", 3))
    jobs.append(_compare(f"Fq:{rng.choice([p for p in _primes(5, 40) if p % 4 == 1])}", 4))
    jobs.append(_compare(f"Fq:{rng.choice([31, 41])}", 5))
    jobs.append(_compare(f"Fq:{rng.choice([17, 25])}", 8))  # a prime and a square
    jobs.append(_compare(f"Fq:{rng.choice(_primes(990, 1010))}", 2))
    return jobs, []


def _invariants(h1, h2, dec):
    return {"h1": h1, "h2": h2, "decomposable_h2": dec}


# invariants of H^1, H^2 and decomposable H^2 of G^[3, q]
DEMUSHKIN_Q2 = _invariants([2, 2], [2, 2, 2], [2])
FREE2_Q2 = _invariants([2, 2], [2, 2, 2, 2, 2], [])
COHOMOLOGY_Q2 = {
    "free2": FREE2_Q2,
    "class2": FREE2_Q2,  # relators in the third series term
    "demushkin3": DEMUSHKIN_Q2,
    "demushkin7": DEMUSHKIN_Q2,
    "abelianized": DEMUSHKIN_Q2,  # [x,y] = 1 is s t s^-1 t^-k with k = 1
}


def _cohomology(path, group, q, expect):
    return Job(
        id=f"cohomology-{group}-q{q}",
        argv=["cohomology", path, group, "--q", str(q)],
        expect=dict(expect),
    )


def cohomology_h2(rng):
    jobs = [_cohomology(GROUPS, g, 2, inv) for g, inv in COHOMOLOGY_Q2.items()]
    jobs += [
        _cohomology(GROUPS, "free1", q, _invariants([q], [q], [])) for q in (4, 5)
    ]
    texts = []
    for i in range(2):
        k = rng.choice(range(3, 32, 2))
        base = concat(gen(0), gen(1), gen(0, -1), gen(1, -k))
        moved = substitute(base, random_automorphism(rng, 2, 3))
        c = random_word(rng, 2, 2)
        name = f"seeded{i}"
        texts.append(group_text(name, ("a", "b"), [concat(c, moved, inverse(c))]))
        jobs.append(_cohomology(None, name, 2, DEMUSHKIN_Q2))
    return jobs, texts


def _quotient(path, group, q, level=3, order_bound=None, expect=None, golden=None):
    argv = ["quotient", path, group, "--level", str(level), "--q", str(q)]
    if golden:  # the golden files were made without --level
        argv = ["quotient", path, group, "--q", str(q)]
    if order_bound:
        argv += ["--order-bound", str(order_bound)]
    suffix = "" if level == 3 else "-level2"
    return Job(
        id=f"quotient-{group}-q{q}{suffix}",
        argv=argv,
        golden=golden,
        expect=dict(expect or {}),
    )


def universal_order(n, q):
    """|E(n, q)| = |F_n^[3, q]|."""
    return q ** (2 * n + n * (n - 1) // 2)


def free_invariants(n, q):
    return {
        "order": universal_order(n, q),
        "class": 2 if n > 1 else 1,
        "exponent": q * q,
        "abelian_invariants": [q * q] * n,
    }


def quotient_check(rng):
    jobs = [
        _quotient(GROUPS, "free2", 2, golden="quotient_free2_q2"),
        _quotient(GROUPS, "demushkin3", 2, golden="quotient_demushkin3_q2"),
        _quotient(GROUPS, "free2", 4, order_bound=4096, expect=free_invariants(2, 4)),
        _quotient(GROUPS, "free2", 5, order_bound=4096, expect=free_invariants(2, 5)),
        _quotient(GROUPS, "free3", 2, expect=free_invariants(3, 2)),
        # class2's relators lie in the third series term: same G^[3] as free2
        _quotient(GROUPS, "class2", 4, order_bound=4096, expect=free_invariants(2, 4)),
    ]
    texts = []
    names = ("x", "y", "z")
    for n, q in ((1, 8), (2, 3), (3, 2)):
        p = min(d for d in range(2, q + 1) if q % d == 0)
        while True:
            w = random_word(rng, n, rng.randrange(3, 6))
            if any(s % p for s in exponent_sums(w, n)):
                break
        c = random_word(rng, n, 2)
        rels = [concat(c, power(w, q), inverse(c))]
        if n > 1:
            a, b, d = (random_word(rng, n, 2) or gen(0) for _ in range(3))
            rels.append(commutator(commutator(a, b), d))
        name = f"seeded{n}"
        texts.append(group_text(name, names[:n], rels))
        order = universal_order(n, q) // q
        jobs.append(_quotient(None, name, q, expect={"order": order}))
        jobs.append(_quotient(None, name, q, level=2, expect={"order": q**n}))
    # the eight weight-3 Hall commutators, moved: relators in the third term
    images = random_automorphism(rng, 3, 3)
    moved = []
    for h in hall_weight3(3):
        c = random_word(rng, 3, 2)
        moved.append(concat(c, substitute(h, images), inverse(c)))
    texts.append(group_text("seededclass2", names, moved))
    texts.append(group_text("free3", names, []))
    jobs += [
        Job(
            id="check-principle-class2-q2",
            argv=[
                "check", "--file", GROUPS, "--group", "class2",
                "--against-free", "--assert-realizable", "first", "--q", "2",
            ],
            golden="check_class2_q2",
            expect={"verdicts": ["not-realizable", "at-most-one-realizable"]},
        ),
        Job(
            id="check-principle-seededclass2-q2",
            argv=["check", "--file", None, "--group", "seededclass2", "--against", "free3", "--q", "2"],
            expect={"verdicts": ["not-realizable", "at-most-one-realizable"]},
        ),
        Job(
            id="check-wreath-free2-free1-4",
            argv=[
                "check", "--file", GROUPS, "--wreath-k", "free2", "--wreath-l", "free1",
                "--wreath-copies", "4", "--q", "2",
            ],
            expect={"verdicts": ["not-realizable"], "wreath_sanity": True},
        ),
        Job(
            id="check-dim-h1",
            argv=["check", "--dim-h1", "2", "--cd", "3", "--torsion-free", "--q", "2"],
            expect={"verdicts": ["not-realizable"]},
        ),
    ]
    return jobs, texts


def capacity(rng):
    jobs = [
        Job(
            id="capacity-compare-Qp5-q4",
            argv=["compare", "Qp:5", "--q", "4", "--order-bound", "1024"],
            expect={"verdict": CONSISTENT},
        ),
        Job(
            id="capacity-compare-Qp11-q5",
            argv=["compare", "Qp:11", "--q", "5", "--order-bound", "4000"],
            expect={"verdict": CONSISTENT},
        ),
        Job(
            id="capacity-quotient-free3-q3",
            argv=["quotient", GROUPS, "free3", "--q", "3", "--order-bound", "20000"],
            expect={"order": 19683, "class": 2, "exponent": 9, "abelian_invariants": [9, 9, 9]},
        ),
        Job(
            id="capacity-cohomology-free1-q8",
            argv=["cohomology", GROUPS, "free1", "--q", "8"],
            expect={"h1": [8], "h2": [8]},
        ),
        Job(
            id="capacity-check-class2-free2-q5",
            argv=[
                "check", "--file", GROUPS, "--group", "class2", "--against", "free2",
                "--q", "5", "--order-bound", "4096",
            ],
            expect={"verdicts": ["not-realizable", "at-most-one-realizable"]},
        ),
    ]
    return jobs, []


BUILDERS = {
    "compare-fields": compare_fields,
    "cohomology-h2": cohomology_h2,
    "quotient-check": quotient_check,
    CAPACITY: capacity,
}


def build(workload: str, seed: int, seeded_file: Path) -> tuple[list[Job], str]:
    """The workload's jobs and the text of its seeded presentation file.

    Seeded jobs name the file as ``None`` in their argv until the path
    (relative to tests/) is filled in here.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs, texts = BUILDERS[workload](rng)
    text = "".join(t + "\n" for t in texts)
    for job in jobs:
        job.argv = [str(seeded_file) if a is None else a for a in job.argv]
    return jobs, text
