"""Third and second q-central quotients of finitely presented groups.

For q = p^d the descending q-central series of a group G is

    G^(1) = G,   G^(i+1) = (G^(i))^q [G^(i), G],

and G^[i] = G / G^(i).  For the free group S on n generators, S^[3] is the
finite group E(n, q): nilpotent of class <= 2, exponent dividing q^2, with
q-th powers central and commutators of exponent q.  Its elements have the
normal form

    x_1^{a_1} ... x_n^{a_n} * prod_{i<j} u_ij^{c_ij},
    a_i in Z/q^2,  c_ij in Z/q,  u_ij = [x_j, x_i] = x_j^-1 x_i^-1 x_j x_i,

and multiplication is by collection:

    (a, c) * (a', c'):   a'' = a + a'          (mod q^2)
                         c''_ij = c_ij + c'_ij + a_j * a'_i   (mod q)

(the swap rule x_j^A x_i^B = x_i^B x_j^A u_ij^{A B} applied pairwise; the
pair correction is bilinear in (a, a'), which is exactly associativity).
Integer powers have the closed form

    (a, c)^k = (k a, k c + C(k, 2) corr(a, a)),  corr(a, a)_ij = a_j a_i,

valid for every k in Z, negative included.

G^[3] of a presented group is E(n, q) / N, where N is the normal closure of
the relator images.  In a class-2 group the normal closure of a set R is
generated by R together with the commutators [r, x_i] (one round suffices:
those commutators are central), which is how ``third_quotient`` saturates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotAHomomorphismError, QcwError, SizeLimitError
from .presentations import Presentation, Word
from .zqlinalg import cokernel_invariants, is_prime, prime_factors, prime_power

DEFAULT_ORDER_BOUND = 512

__all__ = [
    "SeriesParams",
    "ClassTwoElement",
    "ClassTwoGroup",
    "FiniteGroupTable",
    "QuotientMap",
    "universal_class2",
    "evaluate_word",
    "third_quotient",
    "second_quotient",
    "to_table",
    "series_step_oracle",
    "is_isomorphic",
    "induced_quotient_map",
    "quotient_table",
    "cyclic_table",
    "direct_product_table",
    "abelian_table",
    "trivial_table",
    "group_record",
    "table_record",
]


@dataclass(frozen=True)
class SeriesParams:
    """The prime p and the p-power modulus q = p^d of the series."""

    p: int
    d: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.d < 1:
            raise ValueError("d must be >= 1")

    @property
    def q(self) -> int:
        return self.p**self.d

    @classmethod
    def from_q(cls, q: int) -> "SeriesParams":
        p, d = prime_power(q)
        return cls(p=p, d=d)


@dataclass(frozen=True)
class ClassTwoElement:
    """Normal form (a, c): generator exponents mod q^2, pair exponents mod q."""

    a: tuple[int, ...]
    c: tuple[int, ...]

    def is_identity(self) -> bool:
        return not any(self.a) and not any(self.c)


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


class ClassTwoGroup:
    """E(n, q) / N for a subgroup N generated by ``kernel_basis``.

    kernel_basis must be closed under commutation with the generators up to
    subgroup closure (then N is normal, since E has class 2).  E itself must
    fit the order bound, so both N and the quotient stay enumerable.
    """

    def __init__(self, params: SeriesParams, n: int, kernel_basis: tuple[ClassTwoElement, ...] = ()):
        self.params = params
        self.n = n
        self.pairs = _pairs(n)
        self.kernel_basis = tuple(kernel_basis)
        self._kernel_set: frozenset | None = None

    @property
    def q(self) -> int:
        return self.params.q

    @property
    def q2(self) -> int:
        return self.params.q**2

    @property
    def full_order(self) -> int:
        return self.q2**self.n * self.q ** len(self.pairs)

    @property
    def order(self) -> int:
        return self.full_order // len(self.kernel_set())

    def identity(self) -> ClassTwoElement:
        return ClassTwoElement(a=(0,) * self.n, c=(0,) * len(self.pairs))

    def generator(self, i: int) -> ClassTwoElement:
        if not 0 <= i < self.n:
            raise DimensionMismatchError(f"generator index {i} out of range")
        a = [0] * self.n
        a[i] = 1
        return ClassTwoElement(a=tuple(a), c=(0,) * len(self.pairs))

    def generators(self) -> list[ClassTwoElement]:
        return [self.generator(i) for i in range(self.n)]

    # -- group operations on normal forms -----------------------------------

    def _check(self, u: ClassTwoElement):
        if len(u.a) != self.n or len(u.c) != len(self.pairs):
            raise DimensionMismatchError("element has wrong dimensions for this group")

    def mul(self, u: ClassTwoElement, v: ClassTwoElement) -> ClassTwoElement:
        self._check(u)
        self._check(v)
        a = tuple((x + y) % self.q2 for x, y in zip(u.a, v.a))
        c = tuple(
            (cu + cv + u.a[j] * v.a[i]) % self.q
            for (cu, cv, (i, j)) in zip(u.c, v.c, self.pairs)
        )
        return ClassTwoElement(a=a, c=c)

    def power(self, u: ClassTwoElement, k: int) -> ClassTwoElement:
        self._check(u)
        binom = k * (k - 1) // 2
        a = tuple((x * k) % self.q2 for x in u.a)
        c = tuple(
            (cu * k + binom * u.a[j] * u.a[i]) % self.q
            for (cu, (i, j)) in zip(u.c, self.pairs)
        )
        return ClassTwoElement(a=a, c=c)

    def inverse(self, u: ClassTwoElement) -> ClassTwoElement:
        return self.power(u, -1)

    def commutator(self, u: ClassTwoElement, v: ClassTwoElement) -> ClassTwoElement:
        return self.mul(self.inverse(self.mul(v, u)), self.mul(u, v))

    # -- the kernel N --------------------------------------------------------

    def kernel_set(self) -> frozenset:
        """N as a frozenset of (a, c) tuples."""
        if self._kernel_set is None:
            ident = ((0,) * self.n, (0,) * len(self.pairs))
            seen = {ident}
            frontier = [self.identity()]
            gens = list(self.kernel_basis) + [self.inverse(g) for g in self.kernel_basis]
            while frontier:
                x = frontier.pop()
                for g in gens:
                    y = self.mul(x, g)
                    key = (y.a, y.c)
                    if key not in seen:
                        seen.add(key)
                        frontier.append(ClassTwoElement(*key))
            self._kernel_set = frozenset(seen)
        return self._kernel_set

    def contains_in_kernel(self, u: ClassTwoElement) -> bool:
        self._check(u)
        return (u.a, u.c) in self.kernel_set()


def universal_class2(n: int, params: SeriesParams, order_bound: int = DEFAULT_ORDER_BOUND) -> ClassTwoGroup:
    """E(n, q): the third q-central quotient of the free group of rank n."""
    if n < 0:
        raise ValueError("generator count must be >= 0")
    q = params.q
    order = (q * q) ** n * q ** (n * (n - 1) // 2)
    if order > order_bound:
        raise SizeLimitError(f"|E({n},{q})| = {order} exceeds the order bound {order_bound}")
    return ClassTwoGroup(params=params, n=n, kernel_basis=())


def evaluate_word(w: Word, images: list[ClassTwoElement], group: ClassTwoGroup) -> ClassTwoElement:
    """Image of a word under generator -> images, computed in normal form."""
    out = group.identity()
    for g, e in w.letters:
        if g >= len(images):
            raise DimensionMismatchError(
                f"word uses generator {g}, only {len(images)} images given"
            )
        out = group.mul(out, group.power(images[g], e))
    return out


def _saturate_with_commutators(group: ClassTwoGroup, seeds: list[ClassTwoElement]) -> list[ClassTwoElement]:
    # one round of [r, x_i] suffices: those commutators are central in class 2
    gens = group.generators()
    out, seen = [], set()
    for r in seeds:
        for elem in [r] + [group.commutator(r, x) for x in gens]:
            key = (elem.a, elem.c)
            if key not in seen and not elem.is_identity():
                seen.add(key)
                out.append(elem)
    return out


def third_quotient(pres: Presentation, params: SeriesParams, order_bound: int = DEFAULT_ORDER_BOUND) -> ClassTwoGroup:
    """G^[3, q] of the presented group, realized as E(n, q) / N."""
    E = universal_class2(pres.rank, params, order_bound=order_bound)
    images = E.generators()
    seeds = [evaluate_word(r, images, E) for r in pres.relators]
    saturated = _saturate_with_commutators(E, seeds)
    # prune to a small deterministic generating list
    pruned: list[ClassTwoElement] = []
    for g in sorted(saturated, key=lambda e: (e.a, e.c)):
        trial = ClassTwoGroup(params=params, n=pres.rank, kernel_basis=tuple(pruned))
        if not trial.contains_in_kernel(g):
            pruned.append(g)
    return ClassTwoGroup(params=params, n=pres.rank, kernel_basis=tuple(pruned))


def second_quotient(pres: Presentation, params: SeriesParams, order_bound: int = DEFAULT_ORDER_BOUND) -> "FiniteGroupTable":
    """G^[2, q] = G / G^q [G, G], as an explicit abelian group table.

    This is the cokernel of the relator exponent matrix over Z/q.  For prime
    q it is elementary abelian (Z/q)^r with r = n - rank of the matrix; for
    q = p^d, d > 1, relators such as x^p leave smaller cyclic factors and
    the honest cyclic decomposition is built instead.
    """
    q = params.q
    rows = []
    for w in pres.relators:
        row = [0] * pres.rank
        for g, e in w.letters:
            row[g] = (row[g] + e) % q
        rows.append(row)
    invariants = cokernel_invariants(rows, pres.rank, q)
    order = math.prod(invariants) if invariants else 1
    if order > order_bound:
        raise SizeLimitError(f"second quotient order {order} exceeds bound {order_bound}")
    return abelian_table(invariants)


# ---------------------------------------------------------------------------
# explicit multiplication tables


@dataclass
class FiniteGroupTable:
    """A finite group as an order x order multiplication table."""

    order: int
    mult: np.ndarray  # mult[i, j] = index of (element i) * (element j)
    identity: int
    generators: tuple[int, ...]

    def __post_init__(self):
        self.mult = np.asarray(self.mult, dtype=np.int64)
        self._inverses: np.ndarray | None = None
        self._orders: np.ndarray | None = None

    def inverses(self) -> np.ndarray:
        if self._inverses is None:
            inv = np.full(self.order, -1, dtype=np.int64)
            src, dst = np.nonzero(self.mult == self.identity)
            inv[src] = dst
            if (inv < 0).any():
                raise QcwError("table has an element without inverse")
            self._inverses = inv
        return self._inverses

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            orders = np.zeros(self.order, dtype=np.int64)
            acc = np.arange(self.order)
            k = 1
            while (orders == 0).any():
                done = (acc == self.identity) & (orders == 0)
                orders[done] = k
                acc = self.mult[acc, np.arange(self.order)]
                k += 1
                if k > self.order + 1:
                    raise QcwError("not a group table: power chain does not close")
            self._orders = orders
        return self._orders

    def exponent(self) -> int:
        return int(np.lcm.reduce(self.element_orders()))

    def is_abelian(self) -> bool:
        return bool((self.mult == self.mult.T).all())

    def center_size(self) -> int:
        return int((self.mult == self.mult.T).all(axis=1).sum())

    def centralizer_size(self, x: int) -> int:
        return int((self.mult[x, :] == self.mult[:, x]).sum())

    def conjugate(self, x: int, g: int) -> int:
        """g^-1 x g."""
        inv = self.inverses()
        return int(self.mult[self.mult[inv[g], x], g])

    def closure(self, elements) -> set[int]:
        """Subgroup generated by the given element indices."""
        gens = {int(e) for e in elements}
        gens |= {int(self.inverses()[e]) for e in gens}
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = int(self.mult[x, g])
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen

    def commutator_of(self, g: int, h: int) -> int:
        inv = self.inverses()
        return int(self.mult[self.mult[self.mult[inv[g], inv[h]], g], h])

    def _commutators_block(self, left: np.ndarray) -> np.ndarray:
        """Matrix of [g, h] = g^-1 h^-1 g h over g in ``left``, h in G."""
        inv = self.inverses()
        everyone = np.arange(self.order)
        s1 = self.mult[np.ix_(inv[left], inv)]          # g^-1 h^-1
        s2 = self.mult[s1, left[:, None]]               # ... * g
        return self.mult[s2, everyone[None, :]]         # ... * h

    def derived_subgroup(self) -> set[int]:
        comms = self._commutators_block(np.arange(self.order))
        return self.closure(np.unique(comms))

    def nilpotency_class(self) -> int:
        if self.order == 1:
            return 0
        layer = self.derived_subgroup()
        cls = 1
        while layer != {self.identity}:
            cls += 1
            block = self._commutators_block(np.array(sorted(layer), dtype=np.int64))
            newlayer = self.closure(np.unique(block))
            if newlayer == layer:
                raise QcwError("lower central series stalls: table is not nilpotent")
            layer = newlayer
        return cls

    def abelian_invariants(self) -> list[int]:
        """Elementary divisors of G/[G, G], ascending (prime-power cyclic orders)."""
        derived = self.derived_subgroup()
        ab = self if len(derived) == 1 else quotient_table(self, derived).table
        return _abelian_invariants_of_table(ab)

    def power(self, x: int, k: int) -> int:
        out, base = self.identity, int(x)
        if k < 0:
            base, k = int(self.inverses()[x]), -k
        for _ in range(k):
            out = int(self.mult[out, base])
        return out

    def generates(self, elements) -> bool:
        return len(self.closure(elements)) == self.order


def _abelian_invariants_of_table(t: FiniteGroupTable) -> list[int]:
    """Cyclic decomposition of an abelian table from its element-order census."""
    if not t.is_abelian():
        raise QcwError("table is not abelian")
    orders = [int(o) for o in t.element_orders()]
    out: list[int] = []
    primes = set()
    for o in orders:
        primes |= prime_factors(o)
    for p in sorted(primes):
        # N_k = #{x : x^(p^k) = 1}; s_k = log_p(N_k / N_{k-1}) counts factors
        # of exponent >= k; the multiset of exponents is its conjugate.
        counts = [1]
        k = 1
        while True:
            nk = sum(1 for o in orders if p**k % o == 0)
            counts.append(nk)
            if nk == counts[-2]:
                counts.pop()
                break
            k += 1
        s = [round(math.log(counts[i] / counts[i - 1], p)) for i in range(1, len(counts))]
        for k in range(1, len(s) + 1):
            copies = s[k - 1] - (s[k] if k < len(s) else 0)
            out.extend([p**k] * copies)
    return sorted(out)


def trivial_table() -> FiniteGroupTable:
    return FiniteGroupTable(order=1, mult=np.zeros((1, 1), dtype=np.int64), identity=0, generators=())


def cyclic_table(m: int) -> FiniteGroupTable:
    idx = np.arange(m)
    mult = (idx[:, None] + idx[None, :]) % m
    gens = (1,) if m > 1 else ()
    return FiniteGroupTable(order=m, mult=mult, identity=0, generators=gens)


def direct_product_table(t1: FiniteGroupTable, t2: FiniteGroupTable) -> FiniteGroupTable:
    n1, n2 = t1.order, t2.order
    i1, j1 = np.divmod(np.arange(n1 * n2)[:, None], n2)
    i2, j2 = np.divmod(np.arange(n1 * n2)[None, :], n2)
    mult = t1.mult[i1, i2] * n2 + t2.mult[j1, j2]
    gens = tuple(int(g) * n2 + t2.identity for g in t1.generators) + tuple(
        t1.identity * n2 + int(g) for g in t2.generators
    )
    return FiniteGroupTable(
        order=n1 * n2, mult=mult, identity=t1.identity * n2 + t2.identity, generators=gens
    )


def abelian_table(invariants: list[int]) -> FiniteGroupTable:
    t = trivial_table()
    for m in invariants:
        t = direct_product_table(t, cyclic_table(m))
    return t


def validate_table(t: FiniteGroupTable) -> None:
    """Brute-force group axioms; O(order^3), for tests and small tables."""
    n = t.order
    m = t.mult
    if m.shape != (n, n):
        raise QcwError("table shape mismatch")
    if not ((m[t.identity, :] == np.arange(n)).all() and (m[:, t.identity] == np.arange(n)).all()):
        raise QcwError("identity law fails")
    t.inverses()
    for i in range(n):
        # associativity sliced by the first factor: (i*j)*k == i*(j*k)
        if not (m[m[i, :], :] == m[i, m]).all():
            raise QcwError(f"associativity fails at element {i}")
    if t.generators and not t.generates(t.generators):
        raise QcwError("listed generators do not generate")


# ---------------------------------------------------------------------------
# coset tables for class-two quotients


def _encode_batch(A: np.ndarray, C: np.ndarray, q: int) -> np.ndarray:
    """Dense mixed-radix index of elements: a digits base q^2, c digits base q."""
    out = np.zeros(A.shape[:-1], dtype=np.int64)
    for i in range(A.shape[-1]):
        out = out * (q * q) + A[..., i]
    for k in range(C.shape[-1]):
        out = out * q + C[..., k]
    return out


def _decode_batch(codes: np.ndarray, q: int, n: int, npairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of ``_encode_batch``: the (a, c) digit arrays of dense codes."""
    codes = np.asarray(codes, dtype=np.int64)
    A = np.zeros(codes.shape + (n,), dtype=np.int64)
    C = np.zeros(codes.shape + (npairs,), dtype=np.int64)
    for k in reversed(range(npairs)):
        codes, C[..., k] = np.divmod(codes, q)
    for i in reversed(range(n)):
        codes, A[..., i] = np.divmod(codes, q * q)
    return A, C


def _collect_batch(A1, C1, A2, C2, q: int, pairs) -> tuple[np.ndarray, np.ndarray]:
    q2 = q * q
    A = (A1 + A2) % q2
    C = (C1 + C2) % q
    for k, (i, j) in enumerate(pairs):
        C[..., k] = (C[..., k] + A1[..., j] * A2[..., i]) % q
    return A, C


def _power_batch(A, C, k: int, q: int, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (a, c)^k by the closed form (k a, k c + C(k, 2) corr(a, a))."""
    binom = k * (k - 1) // 2 % q
    PA = (k * A) % (q * q)
    PC = (k * C) % q
    for t, (i, j) in enumerate(pairs):
        PC[..., t] = (PC[..., t] + binom * (A[..., j] % q) * (A[..., i] % q)) % q
    return PA, PC


def _kernel_codes(g: ClassTwoGroup) -> np.ndarray:
    """Dense codes of N, ascending (the order of the sorted (a, c) tuples)."""
    kernel = sorted(g.kernel_set())
    KA = np.array([k[0] for k in kernel], dtype=np.int64).reshape(len(kernel), g.n)
    KC = np.array([k[1] for k in kernel], dtype=np.int64).reshape(len(kernel), len(g.pairs))
    return _encode_batch(KA, KC, g.q)


def _coset_table(g: ClassTwoGroup, order_bound: int) -> tuple[FiniteGroupTable, np.ndarray, np.ndarray]:
    """The table of ``to_table`` together with its coset arrays.

    ``reps[i]`` is the dense code of the representative of table element i;
    ``coset_of[code]`` is the table element of every dense code of E(n, q).
    """
    if g.order > order_bound:
        raise SizeLimitError(f"quotient order {g.order} exceeds bound {order_bound}")
    q, n, pairs = g.q, g.n, g.pairs
    npairs = len(pairs)
    # dense codes enumerate E(n, q) lexicographically in (a, c)
    A, C = _decode_batch(np.arange(g.full_order), q, n, npairs)
    KA, KC = _decode_batch(_kernel_codes(g), q, n, npairs)
    # coset representative = element with minimal dense code in its coset
    rep_code = np.full(g.full_order, np.iinfo(np.int64).max, dtype=np.int64)
    for t in range(len(KA)):
        PA, PC = _collect_batch(A, C, KA[t][None, :], KC[t][None, :], q, pairs)
        rep_code = np.minimum(rep_code, _encode_batch(PA, PC, q))
    reps, coset_of = np.unique(rep_code, return_inverse=True)
    RA, RC = _decode_batch(reps, q, n, npairs)
    PA, PC = _collect_batch(RA[:, None, :], RC[:, None, :], RA[None, :, :], RC[None, :, :], q, pairs)
    mult = coset_of[_encode_batch(PA, PC, q)]
    gen_codes = _encode_batch(np.eye(n, dtype=np.int64), np.zeros((n, npairs), dtype=np.int64), q)
    table = FiniteGroupTable(
        order=len(reps),
        mult=mult,
        identity=int(coset_of[0]),
        generators=tuple(int(x) for x in coset_of[gen_codes]),
    )
    return table, reps, coset_of


def to_table(g: ClassTwoGroup, order_bound: int = DEFAULT_ORDER_BOUND) -> FiniteGroupTable:
    """Coset multiplication table of E(n, q)/N with canonical minimal reps.

    Element 0 is the identity coset; generator entries are the cosets of the
    x_i.  Representatives are the lexicographically least (a, c) tuples, so
    tables are deterministic.
    """
    return _coset_table(g, order_bound)[0]


@dataclass
class QuotientTableResult:
    table: FiniteGroupTable
    mapping: np.ndarray  # element index of G -> element index of G/N


def _check_normal_subgroup(t: FiniteGroupTable, sub: list[int]) -> None:
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


def quotient_table(t: FiniteGroupTable, normal_subset) -> QuotientTableResult:
    """Quotient of a table by a normal subgroup, with the projection map."""
    sub = sorted(int(x) for x in normal_subset)
    _check_normal_subgroup(t, sub)
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


def series_step_oracle(t: FiniteGroupTable, subgroup, params: SeriesParams) -> set[int]:
    """One step H -> H^q [H, G] of the q-central series, on explicit tables.

    Independent of the normal-form construction: works purely on the table.
    """
    sub = sorted(int(x) for x in subgroup)
    _check_normal_subgroup(t, sub)
    q = params.q
    gens = {t.power(h, q) for h in sub}
    comms = t._commutators_block(np.array(sub, dtype=np.int64))
    gens.update(int(x) for x in np.unique(comms))
    return t.closure(gens)


# ---------------------------------------------------------------------------
# isomorphism testing


def _invariant_fingerprint(t: FiniteGroupTable):
    return (
        t.order,
        t.exponent(),
        tuple(sorted(map(int, t.element_orders()))),
        t.center_size(),
        tuple(t.abelian_invariants()),
        len(t.derived_subgroup()),
    )


def _word_expressions(t: FiniteGroupTable) -> list[tuple[int, int] | None]:
    """BFS parents: element -> (previous element, generator index)."""
    expr: list[tuple[int, int] | None] = [None] * t.order
    seen = {t.identity}
    frontier = [t.identity]
    gens = list(t.generators)
    while frontier:
        nxt = []
        for x in frontier:
            for gi, g in enumerate(gens):
                y = int(t.mult[x, g])
                if y not in seen:
                    seen.add(y)
                    expr[y] = (x, gi)
                    nxt.append(y)
        frontier = nxt
    if len(seen) != t.order:
        raise QcwError("listed generators do not generate the table")
    return expr


def _build_hom(t1: FiniteGroupTable, t2: FiniteGroupTable, gen_images: list[int], expr) -> np.ndarray | None:
    phi = np.full(t1.order, -1, dtype=np.int64)
    phi[t1.identity] = t2.identity
    pending = [x for x in range(t1.order) if expr[x] is not None]
    # expr is BFS order-safe: parents appear before children when scanned by discovery;
    # resolve iteratively
    changed = True
    while changed:
        changed = False
        for x in pending:
            if phi[x] >= 0:
                continue
            prev, gi = expr[x]
            if phi[prev] >= 0:
                phi[x] = t2.mult[phi[prev], gen_images[gi]]
                changed = True
    if (phi < 0).any():
        return None
    # full multiplicativity check, vectorized
    if not (phi[t1.mult] == t2.mult[np.ix_(phi, phi)]).all():
        return None
    return phi


def is_isomorphic(t1: FiniteGroupTable, t2: FiniteGroupTable) -> tuple[bool, list[int] | None]:
    """Isomorphism test with generator-image backtracking.

    Prunes by order, exponent, element-order census, center order, and
    abelianization; then searches images of t1's generators in table index
    order and returns the first witness (images of t1.generators in t2).
    """
    if (
        t1.order == t2.order
        and t1.identity == t2.identity
        and t1.generators == t2.generators
        and np.array_equal(t1.mult, t2.mult)
    ):
        return True, [int(g) for g in t1.generators]
    if _invariant_fingerprint(t1) != _invariant_fingerprint(t2):
        return False, None
    if t1.order == 1:
        return True, []
    gens = list(t1.generators)
    if not gens:
        raise QcwError("source table lists no generators")
    expr = _word_expressions(t1)
    orders1 = t1.element_orders()
    orders2 = t2.element_orders()
    cent2 = [t2.centralizer_size(x) for x in range(t2.order)]
    cent1 = [t1.centralizer_size(int(g)) for g in gens]
    candidates = [
        [
            y
            for y in range(t2.order)
            if orders2[y] == orders1[int(g)] and cent2[y] == cent1[k]
        ]
        for k, g in enumerate(gens)
    ]

    def backtrack(k: int, chosen: list[int]):
        if k == len(gens):
            phi = _build_hom(t1, t2, chosen, expr)
            if phi is not None and len(set(map(int, phi))) == t1.order:
                return [int(x) for x in chosen]
            return None
        for y in candidates[k]:
            # local consistency: pairwise products and commutators keep orders
            ok = True
            for kk in range(k):
                a, b = int(gens[kk]), int(gens[k])
                pa, pb = chosen[kk], y
                if orders1[t1.mult[a, b]] != orders2[t2.mult[pa, pb]]:
                    ok = False
                    break
                c1 = t1.mult[t1.mult[t1.mult[t1.inverses()[a], t1.inverses()[b]], a], b]
                c2 = t2.mult[t2.mult[t2.mult[t2.inverses()[pa], t2.inverses()[pb]], pa], pb]
                if orders1[c1] != orders2[c2]:
                    ok = False
                    break
            if not ok:
                continue
            res = backtrack(k + 1, chosen + [y])
            if res is not None:
                return res
        return None

    witness = backtrack(0, [])
    return (witness is not None), witness


# ---------------------------------------------------------------------------
# induced maps between third quotients


@dataclass
class QuotientMap:
    source: FiniteGroupTable
    target: FiniteGroupTable
    mapping: np.ndarray
    is_isomorphism: bool
    is_injective: bool
    is_surjective: bool


def induced_quotient_map(
    images: list[Word],
    source: Presentation,
    target: Presentation,
    params: SeriesParams,
    order_bound: int = DEFAULT_ORDER_BOUND,
) -> QuotientMap:
    """Map G^[3](source) -> G^[3](target) induced by generator -> word images.

    Raises NotAHomomorphismError if some source relator survives in the
    target quotient (then the map does not exist at level 3).
    """
    if len(images) != source.rank:
        raise DimensionMismatchError("need one image word per source generator")
    qs = third_quotient(source, params, order_bound)
    qt = third_quotient(target, params, order_bound)
    Et = universal_class2(target.rank, params, order_bound)
    target_gens = Et.generators()
    image_elems = [evaluate_word(w, target_gens, Et) for w in images]
    for r in source.relators:
        r_img = evaluate_word(r, image_elems, Et)
        if not qt.contains_in_kernel(r_img):
            raise NotAHomomorphismError(
                "not a homomorphism at level 3: a relator image survives in the target quotient"
            )
    ts, reps, _ = _coset_table(qs, order_bound)
    tt, _, target_coset_of = _coset_table(qt, order_bound)
    # phi(prod x_i^{a_i} prod u_ij^{c_ij}) via the normal form, per source coset
    powers = image_elems + [Et.commutator(image_elems[j], image_elems[i]) for i, j in qs.pairs]
    RA, RC = _decode_batch(reps, qs.q, qs.n, len(qs.pairs))
    images = []
    for exps in np.hstack([RA, RC]):
        img = Et.identity()
        for base, k in zip(powers, exps):
            img = Et.mul(img, Et.power(base, int(k)))
        images.append(img)
    IA = np.array([e.a for e in images], dtype=np.int64).reshape(len(images), Et.n)
    IC = np.array([e.c for e in images], dtype=np.int64).reshape(len(images), len(Et.pairs))
    mapping = target_coset_of[_encode_batch(IA, IC, Et.q)]
    # sanity: must be a homomorphism of tables
    if not (mapping[ts.mult] == tt.mult[np.ix_(mapping, mapping)]).all():
        raise QcwError("internal error: induced map is not multiplicative")
    image_size = len(set(map(int, mapping)))
    inj = image_size == ts.order
    surj = image_size == tt.order
    return QuotientMap(
        source=ts, target=tt, mapping=mapping, is_isomorphism=inj and surj,
        is_injective=inj, is_surjective=surj,
    )


# ---------------------------------------------------------------------------
# records (stable JSON-facing form)


def _element_record(e: ClassTwoElement) -> dict:
    return {"a": list(e.a), "c": list(e.c)}


def _quotient_exponent(g: ClassTwoGroup) -> int:
    """Least p^e with g^(p^e) in N for every g in E: the exponent of E/N.

    Powers all of E at once and keeps, after each step, only the elements
    whose power is still outside N.  Generator orders alone would not do:
    at p = 2, <x, y | x^2, y^2> gives D4, of exponent 4.
    """
    q, n, pairs = g.q, g.n, g.pairs
    kernel = _kernel_codes(g)
    A, C = _decode_batch(np.arange(g.full_order), q, n, len(pairs))
    exponent = 1
    while True:
        codes = _encode_batch(A, C, q)
        pos = np.minimum(np.searchsorted(kernel, codes), len(kernel) - 1)
        outside = kernel[pos] != codes
        if not outside.any():
            return exponent
        A, C = _power_batch(A[outside], C[outside], g.params.p, q, pairs)
        exponent *= g.params.p


def group_record(g: ClassTwoGroup, order_bound: int = DEFAULT_ORDER_BOUND) -> dict:
    """Order, exponent, class and abelian invariants of G = E(n, q)/N.

    All four come from the normal form in O(|E|) vector work, with no
    multiplication table:

    - abelian invariants: E/[E, E] = (Z/q^2)^n and multiplication adds
      a-parts, so G/[G, G] is the cokernel over Z/q^2 of the a-parts of
      ``kernel_basis``;
    - class: 0 for the trivial group, 1 when every u_ij = [x_j, x_i] lies in
      N, else 2 (E has class <= 2);
    - exponent: the least p^e with g^(p^e) in N for every g in E, from the
      closed power formula applied to every element of E.
    """
    if g.full_order > order_bound:
        raise SizeLimitError(f"|E({g.n},{g.q})| = {g.full_order} exceeds the order bound {order_bound}")
    order = g.order
    npairs = len(g.pairs)
    u = [
        ClassTwoElement(a=(0,) * g.n, c=tuple(int(s == t) for s in range(npairs)))
        for t in range(npairs)
    ]
    cls = 0 if order == 1 else 1 if all(map(g.contains_in_kernel, u)) else 2
    invariants = cokernel_invariants([list(k.a) for k in g.kernel_basis], g.n, g.q2)
    return {
        "order": order,
        "exponent": _quotient_exponent(g),
        "class": cls,
        "abelian_invariants": sorted(invariants),
        "generators": [_element_record(x) for x in g.generators()],
        "kernel_basis": [_element_record(x) for x in g.kernel_basis],
    }


def table_record(t: FiniteGroupTable) -> dict:
    return {
        "order": t.order,
        "exponent": t.exponent(),
        "class": t.nilpotency_class(),
        "abelian_invariants": t.abelian_invariants(),
        "generators": [int(x) for x in t.generators],
        "kernel_basis": [],
    }
