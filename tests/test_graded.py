"""Degree <= 2 graded algebras as pairing tensors: the cup product of a group
table and the symbol map of a field, and the quadratic hull."""

import numpy as np

from qcw.cohom import PairingTensor, pairing_gram, pairings_equivalent, quadratic_hull
from qcw.milnor import FieldDescriptor, symbol_algebra
from qcw.qcentral import SeriesParams, abelian_table, cyclic_table, trivial_table
from qcw.zqlinalg import QuotientModule, prime_power

P2 = SeriesParams(p=2, d=1)


def graded_random_tensor(rng, q, m, t, orders=None):
    """A random tensor that is graded-commutative: symmetric for q = 2,
    alternating otherwise.  The target is (Z/q)^t unless ``orders`` is given."""
    vals = rng.integers(0, q, size=(m, m, t))
    for i in range(m):
        if q != 2:
            vals[i, i] = 0
        for j in range(i + 1, m):
            vals[j, i] = vals[i, j] if q == 2 else (-vals[i, j]) % q
    orders = (q,) * t if orders is None else tuple(orders)
    return PairingTensor(q=q, m=m, target_orders=orders, values=vals % np.array(orders, dtype=np.int64))


def reference_quadratic_hull(T: PairingTensor) -> PairingTensor:
    """The former hull: the same image module, read one coordinate pair at a time."""
    p, _ = prime_power(T.q)
    m, t = T.m, T.target_dim
    first = 0 if p == 2 else 1
    sym_pairs = [(i, j) for i in range(m) for j in range(i + first, m)]
    if t == 0 or not sym_pairs:
        return PairingTensor(q=T.q, m=m, target_orders=(), values=np.zeros((m, m, 0), dtype=np.int64))
    scale = np.array([T.q // o for o in T.target_orders], dtype=np.int64)
    image = QuotientModule([(T.values[i, j] * scale) % T.q for i, j in sym_pairs], [], t, T.q)
    vals = np.zeros((m, m, image.rank), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            vals[i, j] = image.coords((T.values[i, j] * scale) % T.q)
    return PairingTensor(q=T.q, m=m, target_orders=tuple(image.orders), values=vals)


def test_pairing_gram_dims():
    T = pairing_gram(cyclic_table(4), 2)
    assert (T.m, T.target_dim) == (1, 0)
    T = pairing_gram(abelian_table([2, 2]), 2)
    assert (T.m, T.target_dim) == (2, 3)
    T = pairing_gram(trivial_table(), 2)
    assert (T.m, T.target_dim) == (0, 0)


def test_symbol_pairing_dims():
    T = symbol_algebra(FieldDescriptor(kind="finite", params=P2, size=5)).pairing()
    assert (T.q, T.m, T.target_dim) == (2, 1, 0)
    T = symbol_algebra(FieldDescriptor(kind="local", params=P2, ell=3)).pairing()
    assert (T.q, T.m, T.target_dim) == (2, 2, 1)
    T = symbol_algebra(FieldDescriptor(kind="real", params=P2)).pairing()
    assert (T.q, T.m, T.target_dim) == (2, 1, 1)


def test_hull_of_zero_mult():
    T = PairingTensor(q=2, m=1, target_orders=(2,), values=np.zeros((1, 1, 1), dtype=np.int64))
    H = quadratic_hull(T)
    assert H.target_dim == 0
    assert H.values.shape == (1, 1, 0)


def test_hull_fixes_klein_cohomology():
    T = pairing_gram(abelian_table([2, 2]), 2)
    H = quadratic_hull(T)
    assert H.target_dim == T.target_dim == 3
    assert pairings_equivalent(H, T)


def test_hull_idempotent_random():
    rng = np.random.default_rng(11)
    for q in (2, 3):
        for _ in range(25):
            T = graded_random_tensor(rng, q, int(rng.integers(1, 3)), int(rng.integers(0, 3)))
            H1 = quadratic_hull(T)
            H2 = quadratic_hull(H1)
            assert H1.q == H2.q == q
            assert pairings_equivalent(H1, H2)


def test_hull_dimension_bound_q2():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        T = graded_random_tensor(rng, 2, m, int(rng.integers(0, 4)))
        H = quadratic_hull(T)
        assert H.target_dim <= m * (m + 1) // 2


def test_hull_matches_the_pairwise_coordinates():
    # one coords_batch solves the same system, with the same pivots, as the
    # former m x m loop of coords
    rng = np.random.default_rng(19)
    for q in (2, 3, 4, 5, 8, 9):
        p, d = prime_power(q)
        for _ in range(15):
            m, t = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            orders = [p ** int(e) for e in rng.integers(1, d + 1, size=t)]
            T = graded_random_tensor(rng, q, m, t, orders)
            got, want = quadratic_hull(T), reference_quadratic_hull(T)
            assert got.target_orders == want.target_orders
            assert got.values.dtype == want.values.dtype
            assert got.values.shape == want.values.shape
            assert (got.values == want.values).all()


def test_record_keys():
    rec = pairing_gram(cyclic_table(4), 2).to_record()
    assert list(rec.keys()) == ["m", "target_dim", "target_orders", "values"]
    assert rec == {"m": 1, "target_dim": 0, "target_orders": [], "values": [[[]]]}
