"""The table layer built from the listed generators, against its former engines.

``to_table`` collects the n |G| products x_i g and fills the rows by left
multiplication with the steps x_i^(2^j); series steps, closures, derived
subgroups and classes are normal closures of a few seeds.  reference_to_table, reference_closure,
reference_commutators_block, reference_derived_subgroup,
reference_nilpotency_class, reference_check_normal_subgroup,
reference_series_step and reference_quotient_table are the former
``to_table``, ``FiniteGroupTable.closure``, ``_commutators_block``,
``derived_subgroup``, ``nilpotency_class``, ``_check_normal_subgroup``,
``series_step_oracle`` and ``quotient_table``, verbatim: |G|^2 collected
products and |H| x |G| commutator blocks.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcw.qcentral as qcentral
import qcw.realizability as realizability
from qcw.errors import QcwError, SizeLimitError
from qcw.presentations import free_presentation, parse_presentation
from qcw.qcentral import (
    DEFAULT_ORDER_BOUND,
    ClassTwoElement,
    ClassTwoGroup,
    FiniteGroupTable,
    GeneratorAction,
    QuotientTableResult,
    SeriesParams,
    _collect_batch,
    cyclic_table,
    quotient_table,
    second_quotient,
    abelian_table,
    is_isomorphic,
    series_step_oracle,
    third_quotient,
    to_action,
    to_table,
)
from qcw.cli import main
from qcw.cohom import GroupCohomology, cohomology_record
from qcw.milnor import galois_model, parse_field
from qcw.realizability import (
    AT_MOST_ONE,
    INCONCLUSIVE,
    CdDescriptor,
    Verdict,
    WreathSpec,
    _h2_count,
    dim_h1_mod_p,
    permutation_closure,
    permutation_group_table,
    principle_check,
    semidirect_power_action,
    semidirect_power_table,
    wreath_construct,
)
from bar_oracle import extend, is_coboundary
from test_cohom import COMPARE_FIELDS, SMALL_TABLES
from test_qcentral import DATA_GROUPS, ORACLE_BOUND, ORACLE_QS, _presentations, _universal_order
from test_realizability import SEMIDIRECT_CASES

# ---------------------------------------------------------------------------
# the former engines, verbatim


def reference_to_table(g: ClassTwoGroup, order_bound: int = DEFAULT_ORDER_BOUND) -> FiniteGroupTable:
    if g.order > order_bound:
        raise SizeLimitError(f"quotient order {g.order} exceeds bound {order_bound}")
    n, npairs = g.n, len(g.pairs)
    RA, RC = g.elements()
    mult = g.encode(*_collect_batch(RA[:, None], RC[:, None], RA[None], RC[None], g.q, g.pairs))
    gens = g.encode(np.eye(n, dtype=np.int64), np.zeros((n, npairs), dtype=np.int64))
    return FiniteGroupTable(
        order=g.order, mult=mult, identity=0, generators=tuple(int(x) for x in gens)
    )


def reference_closure(t: FiniteGroupTable, elements) -> set[int]:
    gens = {int(e) for e in elements}
    gens |= {int(t.inverses()[e]) for e in gens}
    seen = {t.identity}
    frontier = [t.identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = int(t.mult[x, g])
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def reference_commutators_block(t: FiniteGroupTable, left: np.ndarray) -> np.ndarray:
    inv = t.inverses()
    everyone = np.arange(t.order)
    s1 = t.mult[np.ix_(inv[left], inv)]          # g^-1 h^-1
    s2 = t.mult[s1, left[:, None]]               # ... * g
    return t.mult[s2, everyone[None, :]]         # ... * h


def reference_derived_subgroup(t: FiniteGroupTable) -> set[int]:
    comms = reference_commutators_block(t, np.arange(t.order))
    return reference_closure(t, np.unique(comms))


def reference_nilpotency_class(t: FiniteGroupTable) -> int:
    if t.order == 1:
        return 0
    layer = reference_derived_subgroup(t)
    cls = 1
    while layer != {t.identity}:
        cls += 1
        block = reference_commutators_block(t, np.array(sorted(layer), dtype=np.int64))
        newlayer = reference_closure(t, np.unique(block))
        if newlayer == layer:
            raise QcwError("lower central series stalls: table is not nilpotent")
        layer = newlayer
    return cls


def reference_check_normal_subgroup(t: FiniteGroupTable, sub: list[int]) -> None:
    member = np.zeros(t.order, dtype=bool)
    member[sub] = True
    if not member[t.identity]:
        raise QcwError("subgroup must contain the identity")
    if not member[t.mult[np.ix_(sub, sub)]].all():
        raise QcwError("subset is not closed under multiplication")
    inv = t.inverses()
    halfconj = t.mult[np.ix_(inv, sub)]                      # g^-1 * x
    conj = t.mult[halfconj, np.arange(t.order)[:, None]]     # ... * g
    if not member[conj].all():
        raise QcwError("subgroup is not normal")


def reference_quotient_table(t: FiniteGroupTable, normal_subset) -> QuotientTableResult:
    sub = sorted(int(x) for x in normal_subset)
    reference_check_normal_subgroup(t, sub)
    # coset of g = {g * x : x in sub}; representative = min index
    prod = t.mult[:, sub]
    rep = prod.min(axis=1)
    reps = np.unique(rep)
    index_of = {int(r): i for i, r in enumerate(reps)}
    mapping = np.array([index_of[int(rep[g])] for g in range(t.order)], dtype=np.int64)
    mult = mapping[t.mult[np.ix_(reps, reps)]]
    gens = tuple(int(mapping[g]) for g in t.generators)
    return QuotientTableResult(
        table=FiniteGroupTable(
            order=len(reps), mult=mult, identity=int(mapping[t.identity]), generators=gens
        ),
        mapping=mapping,
    )


def reference_series_step(t: FiniteGroupTable, subgroup, params: SeriesParams) -> set[int]:
    sub = sorted(int(x) for x in subgroup)
    reference_check_normal_subgroup(t, sub)
    q = params.q
    gens = {t.power(h, q) for h in sub}
    comms = reference_commutators_block(t, np.array(sub, dtype=np.int64))
    gens.update(int(x) for x in np.unique(comms))
    return reference_closure(t, gens)


# ---------------------------------------------------------------------------
# to_table


def assert_same_table(got: FiniteGroupTable, want: FiniteGroupTable) -> None:
    assert (got.order, got.identity, got.generators) == (want.order, want.identity, want.generators)
    assert got.mult.dtype == want.mult.dtype and np.array_equal(got.mult, want.mult)


@pytest.mark.parametrize(
    "name,q",
    [
        (name, q)
        for name, pres in DATA_GROUPS.items()
        for q in ORACLE_QS
        if _universal_order(pres.rank, q) <= ORACLE_BOUND
    ],
)
def test_to_table_matches_reference_on_data_groups(name, q):
    g = third_quotient(DATA_GROUPS[name], SeriesParams.from_q(q), ORACLE_BOUND)
    assert_same_table(to_table(g, ORACLE_BOUND), reference_to_table(g, ORACLE_BOUND))


@pytest.mark.parametrize("q", [16, 27, 32])
def test_to_table_of_cyclic_quotients_matches_reference(q):
    # |G| = q^2, filled by its log2 |G| steps x^(2^j)
    g = third_quotient(free_presentation(1), SeriesParams.from_q(q), 1024)
    assert_same_table(to_table(g, 1024), reference_to_table(g, 1024))


def test_to_table_of_the_rank_0_group():
    g = third_quotient(free_presentation(0), SeriesParams(p=2, d=1))
    assert_same_table(to_table(g), reference_to_table(g))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_presentations())
def test_to_table_matches_reference_on_random_presentations(case):
    pres, q = case
    g = third_quotient(pres, SeriesParams.from_q(q), ORACLE_BOUND)
    assert_same_table(to_table(g, ORACLE_BOUND), reference_to_table(g, ORACLE_BOUND))


@st.composite
def _kernel_bases(draw):
    """E(n, q) / N for a drawn kernel basis; the reduced form takes its normal closure."""
    n = draw(st.integers(1, 3))
    q = draw(st.sampled_from([q for q in ORACLE_QS if _universal_order(n, q) <= ORACLE_BOUND]))
    npairs = n * (n - 1) // 2
    element = st.builds(
        ClassTwoElement,
        st.tuples(*[st.integers(0, q * q - 1)] * n),
        st.tuples(*[st.integers(0, q - 1)] * npairs),
    )
    return ClassTwoGroup(SeriesParams.from_q(q), n, tuple(draw(st.lists(element, max_size=3))))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_kernel_bases())
def test_to_table_matches_reference_on_drawn_kernel_bases(g):
    assert_same_table(to_table(g, ORACLE_BOUND), reference_to_table(g, ORACLE_BOUND))


# ---------------------------------------------------------------------------
# closures, series steps, derived subgroups and classes


def symmetric_action(m):
    """A transposition and an m-cycle: the whole symmetric group."""
    return [(1, 0) + tuple(range(2, m)), tuple((r + 1) % m for r in range(m))]


def cyclic_action(m):
    return [tuple((r + 1) % m for r in range(m))]


def stand_in(p, m, perms):
    return semidirect_power_table(second_quotient(free_presentation(2), SeriesParams(p=p, d=1)), m, perms)


# (K^[2])^m x| P with K = free2, the stand-ins of wreath_construct: the
# cyclic actions (the swap of the CLI is the cyclic action at m = 2), two
# commuting double swaps at m = 4 and the non-abelian S3 at m = 3
STAND_INS = {
    f"p{p}_m{m}_{kind}": (p, m, action)
    for p, m, kind, action in [
        (2, 2, "cyclic", cyclic_action(2)),
        (2, 3, "cyclic", cyclic_action(3)),
        (2, 3, "s3", symmetric_action(3)),
        (2, 4, "cyclic", cyclic_action(4)),
        (2, 4, "swaps", [(1, 0, 3, 2), (2, 3, 0, 1)]),
        (3, 2, "cyclic", cyclic_action(2)),
        (3, 3, "cyclic", cyclic_action(3)),
    ]
}

PERMUTATION_ACTIONS = {
    "s3": (3, symmetric_action(3)),
    "s4": (4, symmetric_action(4)),
    "c4": (4, cyclic_action(4)),
    "d4": (4, [(1, 2, 3, 0), (3, 2, 1, 0)]),
}


def relabelled(t: FiniteGroupTable) -> FiniteGroupTable:
    """The same group under the labels read backwards, so the identity is not 0."""
    relabel = t.order - 1 - np.arange(t.order)
    return FiniteGroupTable(
        order=t.order,
        mult=relabel[t.mult][np.ix_(relabel, relabel)],
        identity=int(relabel[t.identity]),
        generators=tuple(int(relabel[g]) for g in t.generators),
    )


def build_table(kind, name, request):
    if kind == "small":
        build = SMALL_TABLES[name]
        return build() if build else request.getfixturevalue("quaternion_table")
    if kind == "relabelled":
        return relabelled(build_table("small", name, request))
    if kind == "stand-in":
        return stand_in(*STAND_INS[name])
    m, perms = PERMUTATION_ACTIONS[name]
    return permutation_group_table(permutation_closure(perms, m), perms)


TABLE_CASES = (
    [("small", name) for name in sorted(SMALL_TABLES)]
    + [("relabelled", name) for name in ("q8", "d4", "demushkin3_q2")]
    + [("stand-in", name) for name in STAND_INS]
    + [("permutation", name) for name in PERMUTATION_ACTIONS]
)


def series_params(t: FiniteGroupTable) -> list[SeriesParams]:
    """q = p, p^2 and p^3 for every prime p dividing |G|."""
    primes = [p for p in (2, 3) if t.order % p == 0]
    return [SeriesParams(p=p, d=d) for p in primes for d in (1, 2, 3)]


@pytest.mark.parametrize("kind,name", TABLE_CASES)
def test_series_steps_match_reference(kind, name, request):
    t = build_table(kind, name, request)
    for params in series_params(t):
        # iterate down to the trivial group, or to the fixed point of a
        # series that stalls (S3 and S4 are not p-groups)
        layer = set(range(t.order))
        while True:
            step = series_step_oracle(t, layer, params)
            assert step == reference_series_step(t, layer, params)
            if step == layer:
                break
            layer = step
        if t.order & (t.order - 1) == 0 and params.p == 2:
            assert layer == {t.identity}


@pytest.mark.parametrize("kind,name", TABLE_CASES)
def test_derived_subgroup_closure_and_class_match_reference(kind, name, request):
    t = build_table(kind, name, request)
    derived = t.derived_subgroup()
    assert derived == reference_derived_subgroup(t)
    try:
        want = reference_nilpotency_class(t)
    except QcwError as err:
        with pytest.raises(QcwError, match=str(err)):
            t.nilpotency_class()
    else:
        assert t.nilpotency_class() == want
    rng = np.random.default_rng(t.order)
    for size in (0, 1, 2, 3):
        seeds = rng.choice(t.order, size=size).tolist()
        assert t.closure(seeds) == reference_closure(t, seeds)


@pytest.mark.parametrize("kind,name", TABLE_CASES)
def test_quotient_table_matches_reference(kind, name, request):
    t = build_table(kind, name, request)
    normals = [t.derived_subgroup(), {t.identity}, set(range(t.order))]
    normals += [series_step_oracle(t, set(range(t.order)), params) for params in series_params(t)]
    for sub in normals:
        got, want = quotient_table(t, sub), reference_quotient_table(t, sub)
        assert got.mapping.dtype == want.mapping.dtype
        assert np.array_equal(got.mapping, want.mapping)
        assert_same_table(got.table, want.table)


# ---------------------------------------------------------------------------
# preconditions


def not_generated_z4() -> FiniteGroupTable:
    # Z/4 listing only 2, which generates {0, 2}
    t = cyclic_table(4)
    return FiniteGroupTable(order=4, mult=t.mult, identity=0, generators=(2,))


@pytest.mark.parametrize(
    "call",
    [
        lambda t: series_step_oracle(t, {0, 1, 2, 3}, SeriesParams(p=2, d=1)),
        lambda t: t.derived_subgroup(),
        lambda t: t.nilpotency_class(),
        lambda t: quotient_table(t, {0, 2}),
        lambda t: t.spanning_tree(),
        lambda t: GroupCohomology(t, 2).h1_space(),
        lambda t: GroupCohomology(t, 2).z2_generators(),
        lambda t: is_isomorphic(t, cyclic_table(4)),
    ],
    ids=[
        "series_step", "derived_subgroup", "nilpotency_class", "quotient_table",
        "spanning_tree", "h1", "z2", "is_isomorphic",
    ],
)
def test_listed_generators_must_generate(call):
    with pytest.raises(QcwError, match="^listed generators do not generate the table$"):
        call(not_generated_z4())


def test_generation_is_checked_once_per_table(monkeypatch):
    # the spanning tree is the one generation check: series steps, the
    # class, cohomology and the isomorphism search all read one tree
    t = stand_in(2, 2, cyclic_action(2))
    calls = []
    build_tree = qcentral._build_tree

    def counting(table):
        calls.append(table.order)
        return build_tree(table)

    monkeypatch.setattr(qcentral, "_build_tree", counting)
    P2 = SeriesParams(p=2, d=1)
    layer = set(range(t.order))
    while len(layer) > 1:
        layer = series_step_oracle(t, layer, P2)
    t.nilpotency_class()
    GroupCohomology(t, 2).pairing()
    GroupCohomology(t, 3).h1_space()
    assert is_isomorphic(t, relabelled(t))[0]
    assert calls == [t.order, t.order]  # t's, then the relabelled copy's


# ---------------------------------------------------------------------------
# the spanning tree


def reference_spanning_tree(t: FiniteGroupTable) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """The former ``GroupCohomology._spanning_tree``: a queue-driven BFS,
    one edge at a time."""
    gens = np.array([s for s in dict.fromkeys(t.generators) if s != t.identity], dtype=np.int64)
    seen = np.zeros(t.order, dtype=bool)
    seen[t.identity] = True
    queue, edges = [t.identity], []
    for parent in queue:
        for i, s in enumerate(gens):
            k = int(t.mult[parent, s])
            if not seen[k]:
                seen[k] = True
                queue.append(k)
                edges.append((parent, i, k))
    if len(queue) < t.order:
        raise QcwError("listed generators do not generate the table")
    return gens, edges


def assert_tree_matches_reference(t: FiniteGroupTable) -> None:
    tree = t.spanning_tree()
    gens, edges = reference_spanning_tree(t)
    assert tree.gens.dtype == gens.dtype and np.array_equal(tree.gens, gens)
    assert list(zip(*(a.tolist() for a in tree.edges))) == edges
    # the layers chain to the edges, and each parent lies in the layer before
    chained = [sum((layer[j].tolist() for layer in tree.layers), []) for j in range(3)]
    assert chained == [a.tolist() for a in tree.edges]
    depth = np.full(t.order, -1)
    depth[t.identity] = 0
    for level, (parent, i, child) in enumerate(tree.layers, start=1):
        assert (depth[parent] == level - 1).all() and (depth[child] == -1).all()
        assert np.array_equal(t.mult[parent, tree.gens[i]], child)
        depth[child] = level


@pytest.mark.parametrize("kind,name", TABLE_CASES)
def test_spanning_tree_matches_the_former_bfs(kind, name, request):
    assert_tree_matches_reference(build_table(kind, name, request))


@pytest.mark.parametrize("name", sorted(SMALL_TABLES))
def test_spanning_tree_drops_repeats_and_the_identity(name, request):
    t = build_table("small", name, request)
    listed = (t.identity,) + t.generators[::-1] + t.generators + (t.identity,)
    t2 = FiniteGroupTable(order=t.order, mult=t.mult, identity=t.identity, generators=listed)
    assert_tree_matches_reference(t2)
    assert t2.spanning_tree().gens.tolist() == list(dict.fromkeys(t.generators[::-1]))


def test_spanning_tree_of_the_trivial_and_cyclic_tables():
    for t in (cyclic_table(1), cyclic_table(64), abelian_table([2, 4, 8])):
        assert_tree_matches_reference(t)
    assert len(cyclic_table(64).spanning_tree().layers) == 63


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_presentations())
def test_spanning_tree_matches_the_former_bfs_on_random_presentations(case):
    pres, q = case
    assert_tree_matches_reference(to_table(third_quotient(pres, SeriesParams.from_q(q), ORACLE_BOUND), ORACLE_BOUND))


def reference_inverses(t: FiniteGroupTable) -> np.ndarray:
    """The former ``FiniteGroupTable.inverses``: one nonzero scan of the whole table."""
    inv = np.full(t.order, -1, dtype=np.int64)
    src, dst = np.nonzero(t.mult == t.identity)
    inv[src] = dst
    return inv


@pytest.mark.parametrize("kind,name", TABLE_CASES)
def test_inverses_match_the_full_scan(kind, name, request):
    t = build_table(kind, name, request)
    fresh = FiniteGroupTable(order=t.order, mult=t.mult, identity=t.identity, generators=t.generators)
    assert (fresh.inverses() == reference_inverses(t)).all()


def test_inverses_reject_a_row_without_the_identity():
    bad = FiniteGroupTable(order=2, mult=np.array([[0, 1], [1, 1]]), identity=0, generators=(1,))
    with pytest.raises(QcwError, match="without inverse"):
        bad.inverses()


@pytest.mark.parametrize(
    "subset,message",
    [
        ({1, 2}, "subgroup must contain the identity"),
        ({0, 2, 4}, "subset is not closed under multiplication"),
        # a reflection of D4 = (Z/2)^2 x| <swap> spans a non-normal subgroup
        ({0, 2}, "subgroup is not normal"),
    ],
)
def test_normality_errors(subset, message):
    d4 = semidirect_power_table(cyclic_table(2), 2, [(1, 0)])
    with pytest.raises(QcwError, match=message):
        reference_check_normal_subgroup(d4, sorted(subset))
    with pytest.raises(QcwError, match=message):
        series_step_oracle(d4, subset, SeriesParams(p=2, d=1))
    with pytest.raises(QcwError, match=message):
        quotient_table(d4, subset)


# ---------------------------------------------------------------------------
# what the check path computes


class RecordingArray(np.ndarray):
    """A table's ``mult`` that logs the size of every indexed read while a log is open."""

    log: list | None = None

    def __getitem__(self, key):
        out = super().__getitem__(key)
        if RecordingArray.log is not None and isinstance(out, np.ndarray):
            RecordingArray.log.append(out.size)
        return out


HALL_WEIGHT3 = (
    "group C { generators: x,y,z; relators: [[y,x],x], [[y,x],y], [[y,x],z], "
    "[[z,x],x], [[z,x],y], [[z,x],z], [[z,y],y], [[z,y],z]; }"
)


def test_check_path_collects_n_g_products_and_forms_no_commutator_block(monkeypatch):
    # the table route that check keeps: the principle's tables when the
    # orders agree and the kernels differ, and the series step of the table
    # stand-in, which the wreath check's H^1 is tested against below
    collected = []  # (products collected, n |G|) per _collect_batch call inside to_table
    tables = []  # (|G|, largest indexed read) per series step
    in_table: list[ClassTwoGroup] = []

    def collect(A1, C1, A2, C2, q, pairs):
        if in_table:
            g = in_table[-1]
            shape = np.broadcast_shapes(A1.shape, A2.shape)[:-1]
            collected.append((int(np.prod(shape)), g.n * g.order))
        return _collect_batch(A1, C1, A2, C2, q, pairs)

    post_init = FiniteGroupTable.__post_init__

    def recording_post_init(self):
        post_init(self)
        self.mult = self.mult.view(RecordingArray)

    monkeypatch.setattr(qcentral, "_collect_batch", collect)
    monkeypatch.setattr(FiniteGroupTable, "__post_init__", recording_post_init)

    # the two order-512 third quotients of the principle on HALL_WEIGHT3
    # against free3
    for pres in (parse_presentation(HALL_WEIGHT3), free_presentation(3)):
        g = third_quotient(pres, SeriesParams(p=2, d=1))
        in_table.append(g)
        try:
            assert to_table(g).order == 512
        finally:
            in_table.pop()
    # the series step of the order-1024 stand-in of the wreath check free2,
    # free1, 4 copies
    W = stand_in(2, 4, cyclic_action(4))
    RecordingArray.log = []
    try:
        series_step_oracle(W, set(range(W.order)), SeriesParams(p=2, d=1))
        tables.append((W.order, max(RecordingArray.log, default=0)))
    finally:
        RecordingArray.log = None

    assert collected and all(products <= bound for products, bound in collected), collected
    big = [(order, largest) for order, largest in tables if order >= 256]
    assert 1024 in {order for order, _ in big}
    # an |H| x |G| commutator block with H = G would read |G|^2 entries
    assert all(largest < order * order // 8 for order, largest in big), big


# ---------------------------------------------------------------------------
# generator columns: compare and check without the table


def action_cases():
    """(name, q) of every groups.grp group at the oracle moduli, then the
    compare-fields ladder as (field, q)."""
    groups = [
        (name, q)
        for name, pres in sorted(DATA_GROUPS.items())
        for q in ORACLE_QS
        if _universal_order(pres.rank, q) <= ORACLE_BOUND
    ]
    return groups + list(COMPARE_FIELDS)


def action_quotient(name, q) -> ClassTwoGroup:
    params = SeriesParams.from_q(q)
    pres = DATA_GROUPS[name] if name in DATA_GROUPS else galois_model(parse_field(name, params))
    return third_quotient(pres, params, ORACLE_BOUND)


def assert_same_columns(action: GeneratorAction, t: FiniteGroupTable) -> None:
    assert (action.order, action.identity, action.generators) == (t.order, t.identity, t.generators)
    assert action.columns.dtype == np.int64
    assert np.array_equal(action.columns, t.mult[:, list(t.generators)])
    assert np.array_equal(action.columns, t.columns)


def assert_same_low_degree(action: GeneratorAction, t: FiniteGroupTable, q: int) -> None:
    """GroupCohomology on the columns equals GroupCohomology on the table."""
    on_action, on_table = GroupCohomology(action, q), GroupCohomology(t, q)
    h1a, h1t = on_action.h1_space(), on_table.h1_space()
    assert h1a.invariants == h1t.invariants
    assert len(h1a.basis) == len(h1t.basis)
    assert all(np.array_equal(a, b) for a, b in zip(h1a.basis, h1t.basis))
    assert np.array_equal(on_action.coboundary_rows(), on_table.coboundary_rows())
    deca, dect = on_action.dec_module(), on_table.dec_module()
    assert deca.orders == dect.orders
    assert np.array_equal(deca.basis, dect.basis)
    assert np.array_equal(deca.generator_coords, dect.generator_coords)
    pa, pt = on_action.pairing(), on_table.pairing()
    assert (pa.m, pa.target_orders) == (pt.m, pt.target_orders)
    assert np.array_equal(pa.values, pt.values)


@pytest.mark.parametrize("name,q", action_cases())
def test_to_action_is_the_table_at_the_generators(name, q):
    g = action_quotient(name, q)
    action, t = to_action(g, ORACLE_BOUND), to_table(g, ORACLE_BOUND)
    assert_same_columns(action, t)
    assert_same_low_degree(action, t, q)


def test_to_action_refuses_the_order_bound():
    g = third_quotient(free_presentation(2), SeriesParams(p=2, d=1))
    with pytest.raises(SizeLimitError, match="^quotient order 32 exceeds bound 31$"):
        to_action(g, 31)


def is_transitive(m, perms) -> bool:
    return len({perm[0] for perm in permutation_closure(perms, m)}) == m


NOT_GENERATED = "^listed generators do not generate the table$"


@pytest.mark.parametrize("p,m,perms", SEMIDIRECT_CASES)
def test_semidirect_power_action_is_the_table_at_the_generators(p, m, perms):
    base = second_quotient(free_presentation(2), SeriesParams(p=p, d=1))
    W = semidirect_power_table(base, m, perms)
    action = semidirect_power_action(base, m, perms)
    assert_same_columns(action, W)
    if is_transitive(m, perms):
        assert_same_low_degree(action, W, p)
        return
    # S3 on three of four copies: the listed generators never reach the
    # fourth copy, on either side
    for group in (action, W):
        with pytest.raises(QcwError, match=NOT_GENERATED):
            GroupCohomology(group, p).h1_space()


@pytest.mark.parametrize("m,perms", [(2, cyclic_action(2)), (3, symmetric_action(3))])
def test_semidirect_power_action_on_a_relabelled_nonabelian_base(quaternion_table, m, perms):
    base = relabelled(quaternion_table)
    assert_same_columns(semidirect_power_action(base, m, perms), semidirect_power_table(base, m, perms))


@pytest.mark.parametrize("p,m,perms", SEMIDIRECT_CASES)
def test_stand_in_h1_is_the_first_series_step(p, m, perms):
    # dim Hom(W, Z/p) = log_p |W / W^p [W, W]| for every finite W, P a
    # p-group or not (the S3 and 3-cycle actions at p = 2)
    params = SeriesParams(p=p, d=1)
    base = second_quotient(free_presentation(2), params)
    W = semidirect_power_table(base, m, perms)
    ctx = GroupCohomology(semidirect_power_action(base, m, perms), p)
    if not is_transitive(m, perms):
        with pytest.raises(QcwError, match=NOT_GENERATED):
            series_step_oracle(W, set(range(W.order)), params)
        with pytest.raises(QcwError, match=NOT_GENERATED):
            ctx.h1_space()
        return
    step = series_step_oracle(W, set(range(W.order)), params)
    assert p ** ctx.h1_space().dimension * len(step) == W.order


def test_an_action_has_degree_2_without_a_table():
    # the action holds no |G| x |G| table, and the Z^2 solve, H^2, the
    # extension to bar cochains and the coboundary test run on its columns
    # as they run on the table
    g = third_quotient(DATA_GROUPS["demushkin3"], SeriesParams(p=2, d=1))
    action, t = to_action(g), to_table(g)
    assert not hasattr(action, "mult")
    on_action, on_table = GroupCohomology(action, 2), GroupCohomology(t, 2)
    assert on_action.pairing().target_orders == (2,)
    z2 = np.array([v for v, _ in on_action.z2_generators()])
    assert np.array_equal(z2, np.array([v for v, _ in on_table.z2_generators()]))
    assert on_action.h2_space().invariants == on_table.h2_space().invariants == [2, 2, 2]
    cochains = extend(on_action, z2)
    assert np.array_equal(cochains, extend(on_table, z2))
    assert all(is_coboundary(on_action, F) == is_coboundary(on_table, F) for F in cochains)
    assert is_coboundary(on_action, np.zeros((action.order, action.order), dtype=np.int64))



class Unread:
    """A stand-in for ``FiniteGroupTable.mult`` that fails on any access."""

    def fail(self, *args, **kwargs):
        raise AssertionError("the |G| x |G| table was read")

    __getattr__ = __getitem__ = __iter__ = __len__ = __array__ = fail


def low_degree_record(ctx: GroupCohomology) -> tuple:
    """H^1, Z^2 from the Schreier relators, H^2, decomposable H^2 and the cup tensor."""
    return (
        cohomology_record(ctx.h1_space()),
        [(v.tolist(), order) for v, order in ctx.z2_generators()],
        cohomology_record(ctx.h2_space()),
        cohomology_record(ctx.dec_space()),
        ctx.pairing().to_record(),
    )


@pytest.mark.parametrize(
    "kind,name,q",
    [
        ("quotient", "free2", 2),
        ("quotient", "demushkin3", 3),
        ("quotient", "demushkin7", 4),
        ("relabelled", "q8", 4),
        ("stand-in", "p2_m2_cyclic", 2),
    ],
)
def test_a_table_is_read_only_at_its_generators(kind, name, q, request):
    # a table is a GeneratorAction whose columns are sliced at construction,
    # so the cohomology and the wreath columns never touch mult
    if kind == "quotient":
        t = to_table(action_quotient(name, q), ORACLE_BOUND)
    else:
        t = build_table(kind, name, request)
    unread = FiniteGroupTable(order=t.order, mult=t.mult, identity=t.identity, generators=t.generators)
    unread.mult = Unread()
    want = low_degree_record(GroupCohomology(t, q, h2_bound=t.order))
    assert low_degree_record(GroupCohomology(unread, q, h2_bound=t.order)) == want
    perms = cyclic_action(2)
    got, ref = semidirect_power_action(unread, 2, perms), semidirect_power_action(t, 2, perms)
    assert (got.order, got.identity, got.generators) == (ref.order, ref.identity, ref.generators)
    assert np.array_equal(got.columns, ref.columns)

def reference_principle_check(pres1, pres2, p, order_bound=DEFAULT_ORDER_BOUND, assert_realizable=None):
    """The former ``principle_check``, verbatim: two tables and ``is_isomorphic``."""
    params = SeriesParams(p=p, d=1)
    t1 = to_table(third_quotient(pres1, params, order_bound), order_bound)
    t2 = to_table(third_quotient(pres2, params, order_bound), order_bound)
    iso, witness_map = is_isomorphic(t1, t2)
    if not iso:
        return Verdict(
            criterion="principle",
            verdict=INCONCLUSIVE,
            witness={
                "reason": "third quotients are not isomorphic",
                "orders": [t1.order, t2.order],
            },
        )
    h1_1, h1_2 = dim_h1_mod_p(pres1, p), dim_h1_mod_p(pres2, p)
    h2_1, h2_2 = _h2_count(pres1, p), _h2_count(pres2, p)
    distinguishing = None
    if h1_1 != h1_2:
        distinguishing = {"invariant": "dim_h1", "values": [h1_1, h1_2]}
    elif h2_1 is not None and h2_2 is not None and h2_1 != h2_2:
        distinguishing = {"invariant": "dim_h2", "values": [h2_1, h2_2]}
    if distinguishing is None:
        return Verdict(
            criterion="principle",
            verdict=INCONCLUSIVE,
            witness={
                "reason": "no distinguishing cohomology invariant found",
                "dim_h1": [h1_1, h1_2],
                "dim_h2": [h2_1, h2_2],
            },
        )
    witness = {
        "quotient_order": t1.order,
        "generator_images": witness_map,
        **distinguishing,
    }
    if assert_realizable in ("first", "second"):
        witness["asserted_realizable"] = assert_realizable
        witness["excluded"] = "second" if assert_realizable == "first" else "first"
    return Verdict(criterion="principle", verdict=AT_MOST_ONE, witness=witness)


def outcome(call, *args):
    """The verdict record of a call, or the type and message of its error."""
    try:
        return call(*args).to_record()
    except (QcwError, ValueError) as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("first", sorted(DATA_GROUPS))
def test_principle_check_matches_the_table_route(first, q):
    for second in sorted(DATA_GROUPS):
        args = (DATA_GROUPS[first], DATA_GROUPS[second], q)
        assert outcome(principle_check, *args) == outcome(reference_principle_check, *args), second


def spy_on(monkeypatch, names) -> list[str]:
    """Record the calls of the named callables through every binding in qcw."""
    calls: list[str] = []
    for module in [m for key, m in list(sys.modules.items()) if key == "qcw" or key.startswith("qcw.")]:
        for name in names:
            original = vars(module).get(name)
            if original is None:
                continue

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
    return calls


TABLE_ROUTE = ("to_table", "semidirect_power_table", "is_isomorphic")
BENCH_JOBS = Path(__file__).resolve().parents[1] / "bench" / "jobs.py"


def load_bench_jobs():
    spec = importlib.util.spec_from_file_location("qcw_bench_jobs", BENCH_JOBS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bench_check_jobs_build_no_table(seed, tmp_path, monkeypatch):
    # the benchmark's principle jobs have relators in the third series term
    # (equal kernels), and its wreath job reads the stand-in's columns
    seeded = tmp_path / "seeded.grp"
    jobs, text = load_bench_jobs().build("quotient-check", seed, seeded)
    seeded.write_text(text, encoding="utf-8")
    checks = [job for job in jobs if job.argv[0] == "check"]
    assert {"check-principle-class2-q2", "check-principle-seededclass2-q2", "check-wreath-free2-free1-4"} <= {
        job.id for job in checks
    }
    monkeypatch.chdir(Path(__file__).resolve().parent)
    calls = spy_on(monkeypatch, TABLE_ROUTE)
    for job in checks:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(job.argv + ["--output", "json"]) == 0, job.id
    assert calls == []


def forbid_tables(monkeypatch) -> None:
    """Make ``to_table``, through every binding in qcw, and the
    ``FiniteGroupTable`` constructor raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("a |G| x |G| table was built")

    for module in [m for key, m in list(sys.modules.items()) if key == "qcw" or key.startswith("qcw.")]:
        if "to_table" in vars(module):
            monkeypatch.setattr(module, "to_table", refuse)
    monkeypatch.setattr(FiniteGroupTable, "__post_init__", refuse)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bench_cohomology_jobs_build_no_table(seed, tmp_path, monkeypatch):
    # the cohomology command reads the generator columns of G^[3, q] alone
    seeded = tmp_path / "seeded.grp"
    jobs, text = load_bench_jobs().build("cohomology-h2", seed, seeded)
    seeded.write_text(text, encoding="utf-8")
    assert jobs and all(job.argv[0] == "cohomology" for job in jobs)
    monkeypatch.chdir(Path(__file__).resolve().parent)
    forbid_tables(monkeypatch)
    for job in jobs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(job.argv + ["--output", "json"]) == 0, job.id


DEMUSHKIN3_TS = "group D { generators: t,s; relators: s t s^-1 t^-3; }"


@pytest.mark.parametrize("q", [2, 3])
def test_equal_orders_with_different_kernels_take_the_table_route(q, monkeypatch):
    # demushkin3 with its generators listed the other way round: the same
    # group, the same order, another kernel in E(2, q)
    first, second = DATA_GROUPS["demushkin3"], parse_presentation(DEMUSHKIN3_TS)
    params = SeriesParams(p=q, d=1)
    g1, g2 = third_quotient(first, params), third_quotient(second, params)
    assert g1.order == g2.order
    assert not all(g1.contains_in_kernel(k) for k in g2.kernel_basis)
    want = reference_principle_check(first, second, q).to_record()
    calls = spy_on(monkeypatch, TABLE_ROUTE)
    assert principle_check(first, second, q).to_record() == want
    assert calls == ["to_table", "to_table", "is_isomorphic"]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_isomorphic_third_quotients_have_equal_dim_h1(p):
    # G^[2, p] is a characteristic quotient of G^[3, p], so the principle
    # never needs dim H^1 to tell two groups apart.  The bound 3125 admits
    # E(2, 5), so every rank-2 pair is compared at p = 5 too
    isomorphic = 0
    for first in DATA_GROUPS.values():
        for second in DATA_GROUPS.values():
            try:
                verdict = principle_check(first, second, p, 3125)
            except SizeLimitError:
                continue
            if verdict.witness.get("reason") == "third quotients are not isomorphic":
                continue
            isomorphic += 1
            assert dim_h1_mod_p(first, p) == dim_h1_mod_p(second, p), (first.name, second.name)
            assert verdict.verdict == INCONCLUSIVE or verdict.witness["invariant"] == "dim_h2"
    assert isomorphic > len(DATA_GROUPS)
