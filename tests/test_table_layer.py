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
    to_table,
)
from qcw.cohom import GroupCohomology
from qcw.realizability import (
    CdDescriptor,
    WreathSpec,
    permutation_closure,
    permutation_group_table,
    principle_check,
    semidirect_power_table,
    wreath_construct,
)
from test_cohom import SMALL_TABLES
from test_qcentral import DATA_GROUPS, ORACLE_BOUND, ORACLE_QS, _presentations, _universal_order

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
    collected = []  # (products collected, n |G|) per _collect_batch call inside to_table
    tables = []  # (|G|, largest indexed read) per series step, derived subgroup or class
    in_table: list[ClassTwoGroup] = []

    def collect(A1, C1, A2, C2, q, pairs):
        if in_table:
            g = in_table[-1]
            shape = np.broadcast_shapes(A1.shape, A2.shape)[:-1]
            collected.append((int(np.prod(shape)), g.n * g.order))
        return _collect_batch(A1, C1, A2, C2, q, pairs)

    def spy_to_table(g, order_bound=DEFAULT_ORDER_BOUND):
        in_table.append(g)
        try:
            return to_table(g, order_bound)
        finally:
            in_table.pop()

    post_init = FiniteGroupTable.__post_init__

    def recording_post_init(self):
        post_init(self)
        self.mult = self.mult.view(RecordingArray)

    def spied(method):
        def call(t, *args):
            outer = RecordingArray.log
            RecordingArray.log = [] if outer is None else outer
            try:
                return method(t, *args)
            finally:
                if outer is None:
                    tables.append((t.order, max(RecordingArray.log, default=0)))
                RecordingArray.log = outer

        return call

    monkeypatch.setattr(qcentral, "_collect_batch", collect)
    monkeypatch.setattr(realizability, "to_table", spy_to_table)
    monkeypatch.setattr(FiniteGroupTable, "__post_init__", recording_post_init)
    monkeypatch.setattr(realizability, "series_step_oracle", spied(series_step_oracle))
    for name in ("derived_subgroup", "nilpotency_class"):
        monkeypatch.setattr(FiniteGroupTable, name, spied(getattr(FiniteGroupTable, name)))

    # the principle on two order-512 third quotients, and the wreath
    # stand-in of order 1024
    verdict = principle_check(parse_presentation(HALL_WEIGHT3), free_presentation(3), 2)
    assert verdict.witness["quotient_order"] == 512
    spec = WreathSpec(
        k_pres=free_presentation(2),
        k_cd=CdDescriptor.free(),
        k_top_cohomology_finite=True,
        l_pres=free_presentation(1),
        l_cd=CdDescriptor.free(),
        copies=4,
        action=cyclic_action(4),
    )
    assert wreath_construct(spec, 2).witness["sanity"]["model_order"] == 1024

    assert collected and all(products <= bound for products, bound in collected), collected
    big = [(order, largest) for order, largest in tables if order >= 256]
    assert 1024 in {order for order, _ in big}
    # an |H| x |G| commutator block with H = G would read |G|^2 entries
    assert all(largest < order * order // 8 for order, largest in big), big
