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

Two closed forms follow from these rules; the front end of every quotient
(relator images, commutators) uses them instead of chains of products.

* Word images.  E has class 2, so a homomorphism F -> E, x_i -> u_i, from
  the free group F factors through the free class-2 group F/gamma_3, and
  sends w to the image of its normal form x^a prod_{i<j} [x_j, x_i]^(c_ij)
  there:

      w -> u_1^(a_1) ... u_n^(a_n) prod_{i<j} [u_j, u_i]^(c_ij).

  The pair (a, c) over Z is one O(n)-per-run walk of the word
  (``presentations._class2_image``), and a presentation walks each relator
  once and keeps the pairs (``Presentation.class2_images``).  At the
  standard images u_i = x_i the image is (a mod q^2, c mod q) itself: the
  seeds of ``third_quotient``; a relator lies in the third series iff its
  pair is 0 mod (q^2, q); and the rows of G^[2, q] are a mod q.  The same
  pair is the Magnus expansion truncated at degree 2: d1 = a,
  d2[j, i] = c_ij and d2[i, j] = a_i a_j - c_ij for i < j, and
  d2[i, i] = C(a_i, 2) (Magnus, Karrass and Solitar, *Combinatorial Group
  Theory*, 5.7; Chen, Fox and Lyndon, Ann. Math. 1958), from which
  ``cohom.relator_pairing`` reads the cup tensor.
* Commutators.  [u, v] = u^-1 v^-1 u v = (v u)^-1 (u v).  The products u v
  and v u share the a-part a_u + a_v, and their c-parts differ by
  corr(a_u, a_v) - corr(a_v, a_u).  For X, Y with one a-part a, X^-1 =
  (-a, -c_X + corr(a, a)) and collecting Y onto it adds corr(-a, a), so
  X^-1 Y = (0, c_Y - c_X).  Hence

      [u, v] = (0, c),   c_ij = a_u[j] a_v[i] - a_v[j] a_u[i]   (mod q).

G^[3] of a presented group is E(n, q) / N, where N is the normal closure of
the relator images.  In a class-2 group the normal closure of a set R is
generated by R together with the commutators [r, x_i] (one round suffices:
those commutators are central), which is how ``third_quotient`` saturates.

N is never enumerated.  A normal N is determined by its a-parts, a
submodule of (Z/q^2)^n, and by its central part N ∩ Z over Z/q, where
Z = {(0, c)}; ``ClassTwoGroup`` keeps the Howell form of each
(``zqlinalg._howell_sweep``).  Reducing an element by the first (through
elements of N that lift its rows) and then by the second gives the least
(a, c) of its coset.  Each pivot p^e makes its digit range over [0, p^e)
and every other digit over [0, q^2) (a) or [0, q) (c), so the reduced
forms number E/N densely in mixed radix, in the order of the least (a, c).

The exponent of E/N is read off the generators and the u_ij.  In class 2,
(g h)^k = g^k h^k [h, g]^C(k, 2) (Huppert, *Endliche Gruppen I*, III.1.3).

* Exponent.  For a power k of p, E/N has exponent dividing k iff x_i^k is
  in N for every i and u_ij^C(k, 2) = [x_j, x_i]^C(k, 2) is in N for every
  i < j.  (<=) S_k = {g : g^k in N} holds the x_i and is closed under
  products: by the commutator rule [h, g] = (0, c) is the product of the
  u_ij^c_ij, which are central, so [h, g]^C(k, 2) is the product of the
  (u_ij^C(k, 2))^c_ij and lies in N with g^k and h^k.  E/N is finite, so
  the x_i generate it as a monoid, and S_k is all of E.  (=>) Take g = x_i,
  and g = x_i x_j, whose k-th power is x_i^k x_j^k u_ij^C(k, 2).  The
  u_ij term is needed: at p = 2, <x, y | x^2, y^2> gives D4, whose
  generators have order 2 and whose exponent is 4.  E/N is a p-group, so
  its exponent is the least such k, and k = q^2 always qualifies: E has
  exponent q^2, and q divides C(q^2, 2).

Tables are built and searched from the listed generators, on three lemmas.

* Rows.  If k = y k', then row k of the table is row k' read through
  row y, since (y k') j = y (k' j); in particular row(ab) = row(a)[row(b)].
  ``to_table`` collects only the n |G| products x_i g, squares the rows of
  the x_i into those of the steps x_i^(2^j), 2^j < q^2, and closes the set
  of filled elements under left multiplication by the steps, which reaches
  every element of a finite group.  Every x_i^k, 0 <= k < q^2, is a product
  of distinct steps, so each step doubles a cyclic quotient's filled set,
  which left multiplication by x alone grows by one element at a time.
* Series steps.  For H normal in G = <X>, H^q [H, G] is the normal closure
  of {h^q, [h, x] : h in H, x in X}: modulo that closure every h commutes
  with every x, so h is central, and h^q = 1.  Likewise [G, G] is the normal
  closure of the [x, y] and [H, G] that of the [h, x].  A subgroup K is
  normal when K^x lies in K for each x in X, because K^x has the order of K
  and X generates G as a monoid.  ``_closure_mask`` computes these closures.
* Tree.  A table walks G along one BFS spanning tree of its right Cayley
  graph on the listed generators S (a Schreier tree: Holt, Eick and
  O'Brien, *Handbook of Computational Group Theory*, ch. 5 and 7), built
  one layer per vectorised step; it spans iff S generates G, so it is the
  one generation check.  A homomorphism φ is fixed by φ(S): φ(k) = φ(k') φ(s)
  on each tree edge k = k' s, whose parent k' lies in the layer before.
  Each layer's children are the entries k' s of its parents' rows in the
  columns g -> g s, s in S, so the tree reads |G| |S| entries of the table
  and no others; it is the same tree on anything that holds those columns.
  A map φ is verified on those columns too (``_is_hom``): it is a
  homomorphism iff φ(1) = 1 and φ(g s) = φ(g) φ(s) for every g and every
  s in S, |G| |S| entries where the table has |G|^2.

A ``GeneratorAction`` is such a holder: order, identity, the listed
generators, their columns and the tree built on them.  A
``FiniteGroupTable`` is the action that also holds the |G| x |G| table
and slices its columns from it once, at construction; ``to_action``
collects them as the n |G| right products g x_i, with no table.  The
action is all that the degree <= 2 cohomology reads (``cohom``), so the
``cohomology`` command builds no table.  ``compare`` builds no group at
all: for relators in F^(2, q) it reads |G^[3, q]| off their class-2
images (``relator_order``) and the cup tensor off their Magnus terms
(``cohom.relator_pairing``), one elimination over Z/q each.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, NotAHomomorphismError, QcwError, SizeLimitError
from .presentations import Presentation, Word, _class2_image, commutator, power
from .zqlinalg import _howell_sweep, cokernel_invariants, is_prime, prime_factors, prime_power, sorted_unique

DEFAULT_ORDER_BOUND = 512
_INT64_MAX = 2**63 - 1
# ``to_table`` gathers rows in chunks of this many cells, so that the
# temporaries stay in cache: on a 2-vCPU VM, unchunked gathers of up to half
# the table made an order-2401 fill about 40% slower
_FILL_CELLS = 1 << 14

__all__ = [
    "SeriesParams",
    "ClassTwoElement",
    "ClassTwoGroup",
    "FiniteGroupTable",
    "GeneratorAction",
    "QuotientMap",
    "universal_class2",
    "evaluate_word",
    "third_quotient",
    "relator_order",
    "third_quotient_relators",
    "second_quotient",
    "second_quotient_record",
    "to_table",
    "to_action",
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
    subgroup closure (then N is normal, since E has class 2).  The reduced
    form (``radices``, ``reduce``) describes the normal closure of
    kernel_basis, which is that N whenever the promise holds.
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
        return math.prod(self.radices)

    @property
    def radices(self) -> tuple[int, ...]:
        """Digit ranges of the reduced forms: n a-digits, then one c-digit per pair."""
        return self._form.radices

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

    def element(self, a, c) -> ClassTwoElement:
        """The element with integer digits a mod q^2 and c mod q."""
        return ClassTwoElement(a=tuple(x % self.q2 for x in a), c=tuple(x % self.q for x in c))

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
        """[u, v] = u^-1 v^-1 u v, central: (0, corr(a_u, a_v) - corr(a_v, a_u))
        (module docstring)."""
        self._check(u)
        self._check(v)
        c = tuple((u.a[j] * v.a[i] - v.a[j] * u.a[i]) % self.q for i, j in self.pairs)
        return ClassTwoElement(a=(0,) * self.n, c=c)

    # -- the kernel N --------------------------------------------------------

    @cached_property
    def _form(self) -> "_KernelForm":
        return _KernelForm.build(self)

    def reduce(self, A: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise least (a, c) of the cosets uN, for u = (A, C) in E(n, q).

        The a-rows first, in pivot order: right-multiplying by
        lift^(-floor(a_j / p^e)) leaves a_j in [0, p^e) and keeps the coset.
        Then the central rows do the same to the c-digits.
        """
        q, pairs = self.q, self.pairs
        for j, pe, LA, LC in self._form.lifts:
            PA, PC = _power_batch(LA, LC, -(A[..., j] // pe), q, pairs)
            A, C = _collect_batch(A, C, PA, PC, q, pairs)
        for row, j, pe in self._form.central:
            C = (C - (C[..., j] // pe)[..., None] * row) % q
        return A, C

    def encode(self, A: np.ndarray, C: np.ndarray) -> np.ndarray:
        """Element indices of G = E/N: the codes of the reduced forms."""
        return _encode_batch(*self.reduce(A, C), self.radices)

    def elements(self) -> tuple[np.ndarray, np.ndarray]:
        """The (a, c) digit arrays of the reduced forms, in element order."""
        return _decode_batch(np.arange(self.order), self.radices, self.n)

    def kernel_set(self) -> frozenset:
        """N as a frozenset of (a, c) tuples, by a BFS of |N| x 2|basis| ``mul`` calls.

        Nothing in qcw calls it.  It is the tests' oracle for the reduced
        form, and ``bench/tracer.py`` counts |N| with it.
        """
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
        A, C = self.reduce(np.array(u.a, dtype=np.int64), np.array(u.c, dtype=np.int64))
        return not A.any() and not C.any()


@dataclass(frozen=True)
class _KernelForm:
    """N as two Howell forms: lifts of its a-rows, and the rows of N ∩ Z.

    ``lifts`` holds (column, p^e, a-part, c-part) of an element of N for each
    pivot row of the a-parts of N over Z/q^2; ``central`` holds (row, column,
    p^e) for each pivot row of the c-parts of N ∩ Z over Z/q.
    """

    lifts: tuple[tuple[int, int, np.ndarray, np.ndarray], ...]
    central: tuple[tuple[np.ndarray, int, int], ...]
    radices: tuple[int, ...]

    @classmethod
    def build(cls, g: ClassTwoGroup) -> "_KernelForm":
        p, d, q, n, pairs = g.params.p, g.params.d, g.q, g.n, g.pairs
        r = len(g.kernel_basis)
        GA = np.array([k.a for k in g.kernel_basis], dtype=np.int64).reshape(r, n)
        GC = np.array([k.c for k in g.kernel_basis], dtype=np.int64).reshape(r, len(pairs))
        # Howell form of [a-parts | I_r] over Z/q^2.  A row [v | U] has
        # prod_s g_s^(U_s) in N with a-part v; a row with v = 0 (a syzygy)
        # gives a central element of N, and these span every central
        # product of the g_s up to the commutators [g_s, g_t].
        rows, cols, exps = _howell_sweep(np.hstack([GA, np.eye(r, dtype=np.int64)]), p, 2 * d)
        LA, LC = _product_batch(GA, GC, rows[:, n:], q, pairs)
        on_a = cols < n
        # N ∩ Z over Z/q: the syzygy products and the commutators [g, x_i],
        # which also span every [g_s, g_t] and close N under conjugation
        comm = [g.commutator(k, x).c for k in g.kernel_basis for x in g.generators()]
        central = np.vstack([LC[~on_a], np.array(comm, dtype=np.int64).reshape(len(comm), len(pairs))])
        crows, ccols, cexps = _howell_sweep(central, p, d)
        radices = [q * q] * n + [q] * len(pairs)
        for j, e in zip(cols[on_a], exps[on_a]):
            radices[j] = p ** int(e)
        for j, e in zip(ccols, cexps):
            radices[n + j] = p ** int(e)
        return cls(
            lifts=tuple(
                (int(j), p ** int(e), a, c)
                for j, e, a, c in zip(cols[on_a], exps[on_a], LA[on_a], LC[on_a])
            ),
            central=tuple((row, int(j), p ** int(e)) for row, j, e in zip(crows, ccols, cexps)),
            radices=tuple(radices),
        )


def _refuse_universal_order(n: int, q: int, order_bound: int) -> None:
    """SizeLimitError when |E(n, q)| = q^(2n + C(n, 2)) exceeds the order bound."""
    order = q ** (2 * n + n * (n - 1) // 2)
    if order > order_bound:
        raise SizeLimitError(f"|E({n},{q})| = {order} exceeds the order bound {order_bound}")


def _refuse_inexact(q: int, modulus: int, terms: int = 1) -> None:
    """SizeLimitError when a sum of ``terms`` products of two residues mod
    ``modulus`` can pass 2^63 - 1, past which int64 arithmetic wraps."""
    if terms * modulus * modulus > _INT64_MAX:
        what = f"{modulus}^2" if terms == 1 else f"{terms} x {modulus}^2"
        raise SizeLimitError(f"q = {q} is past exact int64 arithmetic: {what} > 2^63 - 1")


def universal_class2(n: int, params: SeriesParams, order_bound: int = DEFAULT_ORDER_BOUND) -> ClassTwoGroup:
    """E(n, q): the third q-central quotient of the free group of rank n.

    Collection and the Howell forms over Z/q^2 multiply residues mod q^2,
    so q^4 > 2^63 - 1 (q > 55108) raises ``SizeLimitError``, after the
    order bound.
    """
    if n < 0:
        raise ValueError("generator count must be >= 0")
    _refuse_universal_order(n, params.q, order_bound)
    _refuse_inexact(params.q, params.q**2)
    return ClassTwoGroup(params=params, n=n, kernel_basis=())


def evaluate_word(w: Word, images: list[ClassTwoElement], group: ClassTwoGroup) -> ClassTwoElement:
    """Image of a word under generator -> images, read off its class-2 image.

    The generators are checked first, in the order of their first runs:
    each must have an image, and that image is checked.  The word's class-2
    image (a, c) then gives prod u_i^(a_i) prod_{i<j} [u_j, u_i]^(c_ij)
    (module docstring); an image that no run uses has a_i = 0 and no
    c_ij != 0, so it is never read.
    """
    for g in dict.fromkeys(g for g, _ in w.letters):
        if not 0 <= g < len(images):
            raise DimensionMismatchError(
                f"word uses generator {g}, only {len(images)} images given"
            )
        group._check(images[g])
    a, c = _class2_image(w, len(images))
    pairs = zip(_pairs(len(images)), c)
    factors = list(zip(images, a)) + [(group.commutator(images[j], images[i]), k) for (i, j), k in pairs if k]
    out = group.identity()
    for u, k in factors:
        if k:
            out = group.mul(out, group.power(u, k))
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
    seeds = [E.element(a, c) for a, c in pres.class2_images]
    saturated = _saturate_with_commutators(E, seeds)
    # prune to a small deterministic generating list.  The reduced form of a
    # trial describes the normal closure of its basis, and that is the
    # subgroup it generates: the saturated elements with a = 0 (the central
    # ones, the commutators [r, x_i] among them) sort before any with a != 0,
    # so each [r, x_i] of an r already kept lies in the trial.  E's kernel
    # is trivial and no saturated element is the identity, so the first is
    # kept with no membership test, and E builds no ``_KernelForm``.  A
    # trial builds its form once, at its first membership test: one build
    # per kept element, the last when the returned group is first read.
    ordered = sorted(saturated, key=lambda e: (e.a, e.c))
    trial = ClassTwoGroup(params=params, n=pres.rank, kernel_basis=tuple(ordered[:1]))
    for g in ordered[1:]:
        if not trial.contains_in_kernel(g):
            trial = ClassTwoGroup(params=params, n=pres.rank, kernel_basis=trial.kernel_basis + (g,))
    return trial


def _f2q_images(pres: Presentation, q: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The class-2 images (a, c) of the relators, each checked to lie in
    F^(2, q) = F^q [F, F]: its a-part, the exponent sums, is 0 mod q, else
    ``QcwError``.

    Both readers eliminate over Z/q with sums of at most n^2 products of
    residues mod q: ``cohom.relator_pairing`` over its n^2 cup generators,
    ``relator_order`` at the row width n + C(n, 2) <= n^2.  So n^2 q^2 >
    2^63 - 1 raises ``SizeLimitError`` first.
    """
    _refuse_inexact(q, q, pres.rank**2)
    images = pres.class2_images
    for k, (a, _) in enumerate(images):
        if any(x % q for x in a):
            raise QcwError(
                f"relator {k + 1} of {pres.name} is not in F^(2, {q}): an exponent sum is not 0 mod {q}"
            )
    return images


def relator_order(pres: Presentation, params: SeriesParams, order_bound: int = DEFAULT_ORDER_BOUND) -> int:
    """|G^[3, q]|, G = <S | R> with every relator in F^(2, q), read off the
    relators' class-2 images.

    |E(n, q)| over the bound raises ``SizeLimitError`` and a relator
    outside F^(2, q) raises ``QcwError``, with the texts of
    ``universal_class2`` and ``cohom.relator_pairing``.  Then

        |G^[3, q]| = q^n prod cokernel_invariants(rows, n + C(n, 2), q),

    one row (a_k / q mod q, c_k mod q) per relator r_k, (a_k, c_k) its
    class-2 image (``Presentation.class2_images``).  It costs one
    elimination of an r x (n + C(n, 2)) matrix over Z/q; no
    ``ClassTwoGroup`` and no element of G is built.

    Lemma (the order from the relator images).  Let F be free on x_1, ...,
    x_n, N the normal closure of the relators, and F^(i, q) the q-central
    series of F, so G^[3, q] = F / N F^(3, q).

    (a) N ⊆ F^(2, q), so G / G^(2, q) = F / N F^(2, q) = F / F^(2, q) =
    (Z/q)^n, and |G^[3, q]| = q^n |F^(2, q) / N F^(3, q)|.

    (b) F / F^(3, q) = E(n, q) in the normal form (a, c) of the module
    docstring, and F^(2, q) / F^(3, q) is its subgroup {a = 0 mod q}: the
    image of F^q [F, F] has a-parts 0 mod q, and it holds the
    x_i^q = (q e_i, 0) and the u_ij = (0, e_ij), which generate that
    subgroup.  On it, (a, c) -> (a / q, c) mod q is an isomorphism onto
    (Z/q)^(n + C(n, 2)): it is bijective, and additive because the
    collection term a_j a'_i of (a, c) (a', c') is 0 mod q^2, so 0 mod q,
    when both a-parts are 0 mod q.

    (c) N F^(3, q) / F^(3, q) is the normal closure in E of the relator
    images, and the image of r_k is (a_k mod q^2, c_k mod q) (word images,
    module docstring).  For r in F^(2, q) and x in F, [r, x] lies in
    [F^(2, q), F] ⊆ F^(3, q), so each image is central in E and the normal
    closure is the subgroup they generate, which (b) maps onto the row span
    of the rows above.  So F^(2, q) / N F^(3, q) is the cokernel of the
    rows over Z/q, and the formula follows.

    ``third_quotient(pres, params, order_bound).order`` is the same number
    from the reduced forms of E / N, and the tests' oracle for it.  No care
    with the squares x_i^2 is needed at q = 2: that care concerns the
    diagonal of d2, d2[i, i] = C(a_i, 2), the one degree-2 term that is not
    a / q or c, which ``cohom.relator_pairing`` reads and this count never
    does.
    """
    n, q = pres.rank, params.q
    _refuse_universal_order(n, q, order_bound)
    rows = [[x // q % q for x in a] + [x % q for x in c] for a, c in _f2q_images(pres, q)]
    return q**n * math.prod(cokernel_invariants(rows, n + n * (n - 1) // 2, q))


def third_quotient_relators(pres: Presentation, params: SeriesParams) -> tuple[Word, ...]:
    """Relators of G^[3, q] on the presentation's generators x_i: the
    presentation's own, then x_i^(q^2), [x_i, x_j]^q (i < j),
    [x_i^q, x_k] (i != k) and [[x_i, x_j], x_k] (i < j).

    With F free on the x_i, G^[3, q] = F / R F^(3), R the normal closure of
    the presentation's relators, and the listed words L normally generate
    F^(3) = (F^(2))^q [F^(2), F], F^(2) = F^q [F, F].  Each lies in F^(3):
    x_i^(q^2) = (x_i^q)^q and [x_i, x_j]^q are q-th powers of elements of
    F^(2), the other two are commutators of such elements with F.  So
    N = <<L>> <= F^(3).  Conversely, in F / N every [x_i, x_j] and every
    x_i^q commutes with each x_k, so the subgroup H they generate is central.
    F / N modulo H is generated by commuting x_i with x_i^q = 1, hence
    abelian of exponent q, so F^(2) N / N <= H; and H <= F^(2) N / N.  H is
    abelian and generated by elements of order dividing q (x_i^(q^2) = 1 and
    [x_i, x_j]^q = 1), so it has exponent q: (F^(2))^q <= N, and since H is
    central, [F^(2), F] <= N.  Hence N = F^(3), and the presentation's
    relators together with L normally generate R F^(3).
    """
    q, n = params.q, pres.rank
    x = [Word(((i, 1),)) for i in range(n)]
    pairs = _pairs(n)
    extra = [power(x[i], q * q) for i in range(n)]
    extra += [power(commutator(x[i], x[j]), q) for i, j in pairs]
    extra += [commutator(power(x[i], q), x[k]) for i in range(n) for k in range(n) if i != k]
    extra += [commutator(commutator(x[i], x[j]), x[k]) for i, j in pairs for k in range(n)]
    return tuple(pres.relators) + tuple(extra)


def _second_quotient_invariants(
    pres: Presentation, params: SeriesParams, order_bound: int | None
) -> list[int]:
    """Cyclic orders of G^[2, q], the cokernel of the relator exponent matrix over Z/q.

    Raises SizeLimitError when the order exceeds ``order_bound`` (None: no
    bound), and when q^2 > 2^63 - 1, as the elimination multiplies residues
    mod q.
    """
    q = params.q
    _refuse_inexact(q, q)
    rows = [[x % q for x in a] for a, _ in pres.class2_images]
    invariants = cokernel_invariants(rows, pres.rank, q)
    order = math.prod(invariants) if invariants else 1
    if order_bound is not None and order > order_bound:
        raise SizeLimitError(f"second quotient order {order} exceeds bound {order_bound}")
    return invariants


def second_quotient(pres: Presentation, params: SeriesParams, order_bound: int = DEFAULT_ORDER_BOUND) -> "FiniteGroupTable":
    """G^[2, q] = G / G^q [G, G], as an explicit abelian group table.

    This is the cokernel of the relator exponent matrix over Z/q.  For prime
    q it is elementary abelian (Z/q)^r with r = n - rank of the matrix; for
    q = p^d, d > 1, relators such as x^p leave smaller cyclic factors and
    the honest cyclic decomposition is built instead.
    """
    return abelian_table(_second_quotient_invariants(pres, params, order_bound))


def second_quotient_record(
    pres: Presentation, params: SeriesParams, order_bound: int = DEFAULT_ORDER_BOUND
) -> dict:
    """``table_record(second_quotient(...))``, read off the cyclic orders without a table.

    The orders are powers of one prime, so the exponent is the largest; the
    generators are the indices that ``abelian_table`` gives its cyclic
    factors.
    """
    invariants = _second_quotient_invariants(pres, params, order_bound)
    order = math.prod(invariants)
    return {
        "order": order,
        "exponent": max(invariants, default=1),
        "class": 0 if order == 1 else 1,
        "abelian_invariants": sorted(invariants),
        "generators": [math.prod(invariants[k + 1 :]) for k in range(len(invariants))],
        "kernel_basis": [],
    }


# ---------------------------------------------------------------------------
# explicit multiplication tables


@dataclass(frozen=True)
class SpanningTree:
    """The BFS tree on ``gens``, the listed generators deduplicated without
    the identity: per layer, the edges (parent, i, child), child = parent *
    gens[i], in the order a queue-driven BFS finds them; ``edges`` chains
    the layers.  ``columns[k, i]`` is k * gens[i]."""

    gens: np.ndarray
    columns: np.ndarray
    layers: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    edges: tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class GeneratorAction:
    """A finite group known by the right action of its listed generators:
    ``columns[g, i]`` is the index of (element g) * generators[i], |G| x n
    entries where a ``FiniteGroupTable`` holds |G|^2.  The spanning tree
    and the degree <= 2 cohomology (``cohom``) read no more than that."""

    order: int
    identity: int
    generators: tuple[int, ...]
    columns: np.ndarray

    def __post_init__(self):
        self.columns = np.asarray(self.columns, dtype=np.int64)
        self._tree: SpanningTree | None = None

    def spanning_tree(self) -> SpanningTree:
        """The spanning tree on the listed generators, built once; raises
        ``QcwError`` unless they generate the group."""
        if self._tree is None:
            self._tree = _build_tree(self)
        return self._tree


@dataclass
class FiniteGroupTable(GeneratorAction):
    """A finite group as an order x order multiplication table, and the
    action of its listed generators: ``columns`` is the table at them."""

    columns: np.ndarray = field(init=False)
    mult: np.ndarray  # mult[i, j] = index of (element i) * (element j)

    def __post_init__(self):
        self.mult = np.asarray(self.mult, dtype=np.int64)
        self.columns = self.mult[:, np.array(self.generators, dtype=np.int64)]
        super().__post_init__()
        self._inverses: np.ndarray | None = None
        self._orders: np.ndarray | None = None

    def listed_generators(self) -> np.ndarray:
        """The listed generators as an index array, checked by the spanning
        tree to generate the table, as ``_closure_mask``'s conjugators need.
        """
        self.spanning_tree()
        return np.array(self.generators, dtype=np.int64)

    def inverses(self) -> np.ndarray:
        if self._inverses is None:
            hit = self.mult == self.identity
            inv = hit.argmax(axis=1)
            if not hit[np.arange(self.order), inv].all():
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

    def closure(self, elements) -> set[int]:
        """Subgroup generated by the given element indices."""
        return _mask_set(_closure_mask(self, _index_array(elements)))

    def commutators(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """[g, h] = g^-1 h^-1 g h over g in ``left`` (rows), h in ``right`` (columns)."""
        inv = self.inverses()
        left, right = left[:, None], right[None, :]
        return self.mult[self.mult[self.mult[inv[left], inv[right]], left], right]

    def _derived_mask(self) -> np.ndarray:
        gens = self.listed_generators()
        return _closure_mask(self, self.commutators(gens, gens).ravel(), gens)

    def derived_subgroup(self) -> set[int]:
        return _mask_set(self._derived_mask())

    def nilpotency_class(self) -> int:
        if self.order == 1:
            return 0
        gens = self.listed_generators()
        layer = self._derived_mask()
        cls = 1
        while layer.sum() > 1:
            cls += 1
            # [H, G] is the normal closure of the [h, x], x listed
            newlayer = _closure_mask(self, self.commutators(np.flatnonzero(layer), gens).ravel(), gens)
            if (newlayer == layer).all():
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


def _build_tree(t: GeneratorAction) -> SpanningTree:
    """One layer per step: of the products frontier x gens, flattened
    parent-major, each unseen child is kept at its first occurrence.  Reads
    only the columns of the listed generators."""
    listed = [int(s) for s in t.generators]
    gens = np.array([s for s in dict.fromkeys(listed) if s != t.identity], dtype=np.int64)
    columns = t.columns[:, [listed.index(s) for s in gens.tolist()]]
    seen = np.zeros(t.order, dtype=bool)
    seen[t.identity] = True
    # first[k]: the least position of k among its layer's products; a child
    # is unseen in one layer only, so the entries need no reset
    first = np.full(t.order, t.order * max(1, len(gens)), dtype=np.int64)
    frontier = np.array([t.identity], dtype=np.int64)
    parents, indices, children = [], [], []
    while True:
        kids = columns[frontier].ravel()
        new = np.flatnonzero(~seen[kids])
        if not len(new):
            break
        child = kids[new]
        np.minimum.at(first, child, new)
        keep = first[child] == new
        parent, i = np.divmod(new[keep], len(gens))
        parents.append(frontier[parent])
        indices.append(i)
        frontier = child[keep]
        children.append(frontier)
        seen[frontier] = True
    if not seen.all():
        raise QcwError("listed generators do not generate the table")
    empty = np.zeros(0, dtype=np.int64)
    edges = tuple(np.concatenate(part) if part else empty for part in (parents, indices, children))
    return SpanningTree(gens=gens, columns=columns, layers=tuple(zip(parents, indices, children)), edges=edges)


def _index_array(elements) -> np.ndarray:
    return np.fromiter((int(x) for x in elements), dtype=np.int64)


def _mask_set(mask: np.ndarray) -> set[int]:
    return set(np.flatnonzero(mask).tolist())


def _closure_mask(t: FiniteGroupTable, seeds: np.ndarray, conjugators: np.ndarray | None = None) -> np.ndarray:
    """Membership mask of the subgroup K generated by ``seeds`` and closed
    under conjugation by ``conjugators`` (the normal closure, when they are
    the listed generators).

    A seed already in K is skipped; any other one becomes a generator of K,
    K grows by a BFS of frontier x chosen-generator products, and the new
    generator's conjugates are queued as seeds.  When the queue runs dry,
    every generator of K has its conjugates in K, so K^x = K for every
    conjugator x.
    """
    mult = t.mult
    member = np.zeros(t.order, dtype=bool)
    member[t.identity] = True
    elems = np.array([t.identity], dtype=np.int64)
    chosen = np.empty(0, dtype=np.int64)
    inv = None if conjugators is None or not len(conjugators) else t.inverses()[conjugators]
    pending = sorted_unique(np.asarray(seeds, dtype=np.int64))
    while True:
        pending = pending[~member[pending]]
        if not len(pending):
            return member
        s = pending[0]
        chosen = np.append(chosen, s)
        frontier = mult[elems, s]  # the coset K s, disjoint from K
        while len(frontier):
            member[frontier] = True
            elems = np.concatenate([elems, frontier])
            step = mult[frontier[:, None], chosen[None, :]].ravel()
            frontier = sorted_unique(step[~member[step]])
        if inv is not None:
            pending = np.concatenate([pending[1:], mult[mult[inv, s], conjugators]])


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


def _encode_batch(A: np.ndarray, C: np.ndarray, radices) -> np.ndarray:
    """Dense mixed-radix index of elements: a digits, then c digits, in ``radices``."""
    out = np.zeros(A.shape[:-1], dtype=np.int64)
    for digit, radix in zip(np.moveaxis(A, -1, 0), radices):
        out = out * radix + digit
    for digit, radix in zip(np.moveaxis(C, -1, 0), radices[A.shape[-1]:]):
        out = out * radix + digit
    return out


def _decode_batch(codes: np.ndarray, radices, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of ``_encode_batch``: the (a, c) digit arrays of dense codes."""
    codes = np.asarray(codes, dtype=np.int64)
    digits = np.zeros(codes.shape + (len(radices),), dtype=np.int64)
    for k in reversed(range(len(radices))):
        codes, digits[..., k] = np.divmod(codes, radices[k])
    return digits[..., :n], digits[..., n:]


def _collect_batch(A1, C1, A2, C2, q: int, pairs) -> tuple[np.ndarray, np.ndarray]:
    q2 = q * q
    A = (A1 + A2) % q2
    C = (C1 + C2) % q
    for k, (i, j) in enumerate(pairs):
        C[..., k] = (C[..., k] + A1[..., j] * A2[..., i]) % q
    return A, C


def _power_batch(A, C, k, q: int, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (a, c)^k by the closed form (k a, k c + C(k, 2) corr(a, a)).

    k is an integer or an array of them that broadcasts against the rows.
    """
    k = np.asarray(k, dtype=np.int64)
    binom = k * (k - 1) // 2 % q
    PA = (k[..., None] * A) % (q * q)
    PC = (k[..., None] * C) % q
    for t, (i, j) in enumerate(pairs):
        PC[..., t] = (PC[..., t] + binom * (A[..., j] % q) * (A[..., i] % q)) % q
    return PA, PC


def _product_batch(BA, BC, U, q: int, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise prod_s base_s^(U[:, s]) for bases (BA[s], BC[s])."""
    A = np.zeros((len(U), BA.shape[-1]), dtype=np.int64)
    C = np.zeros((len(U), BC.shape[-1]), dtype=np.int64)
    for s in range(len(BA)):
        A, C = _collect_batch(A, C, *_power_batch(BA[s], BC[s], U[:, s], q, pairs), q, pairs)
    return A, C


def to_table(g: ClassTwoGroup, order_bound: int = DEFAULT_ORDER_BOUND) -> FiniteGroupTable:
    """Coset multiplication table of E(n, q)/N with canonical minimal reps.

    Element 0 is the identity coset; generator entries are the cosets of the
    x_i.  Representatives are the lexicographically least (a, c) tuples, so
    tables are deterministic.  Only the n |G| products x_i g are collected
    and reduced; the rows follow from them (module docstring), and neither
    N nor E is enumerated.
    """
    if g.order > order_bound:
        raise SizeLimitError(f"quotient order {g.order} exceeds bound {order_bound}")
    n, npairs = g.n, len(g.pairs)
    RA, RC = g.elements()
    XA, XC = np.eye(n, dtype=np.int64), np.zeros((n, npairs), dtype=np.int64)
    left = g.encode(*_collect_batch(XA[:, None], XC[:, None], RA[None], RC[None], g.q, g.pairs))
    gens = g.encode(XA, XC)
    # the rows of the steps y = x_i^(2^j), 2^j < q^2, by squaring (row(y)[0] = y)
    steps, found = [], {0}
    for row in left:
        for _ in range((g.q2 - 1).bit_length()):
            if int(row[0]) in found:
                break
            found.add(int(row[0]))
            steps.append(row)
            row = row[row]
    # close the known elements (element 0, the identity coset, first) under
    # left multiplication by one step at a time, taking each new y k's row as
    # row(y)[row(k)]; row(y) is a bijection, so a step never reaches an
    # element twice.  Done once every step in turn adds nothing
    mult = np.empty((g.order, g.order), dtype=np.int64)
    mult[0] = np.arange(g.order)
    seen = np.zeros(g.order, dtype=bool)
    seen[0] = True
    known = np.zeros(1, dtype=np.int64)
    chunk = max(1, _FILL_CELLS // g.order)
    idle = 0
    for row in itertools.cycle(steps):
        child = row[known]
        fresh = ~seen[child]
        if not fresh.any():
            idle += 1
            if idle == len(steps):
                break
            continue
        idle = 0
        child, parent = child[fresh], known[fresh]
        seen[child] = True
        for c in range(0, len(child), chunk):
            mult[child[c : c + chunk]] = row[mult[parent[c : c + chunk]]]
        known = np.concatenate([known, child])
    return FiniteGroupTable(
        order=g.order, mult=mult, identity=0, generators=tuple(int(x) for x in gens)
    )


def to_action(g: ClassTwoGroup, order_bound: int = DEFAULT_ORDER_BOUND) -> GeneratorAction:
    """The generator columns of ``to_table(g)``, without the table.

    columns[k, i] is the code of (element k) x_i: the n |G| right products
    of the reduced forms with the x_i, collected and encoded at once, the
    mirror of the products x_i g that ``to_table`` collects.
    """
    if g.order > order_bound:
        raise SizeLimitError(f"quotient order {g.order} exceeds bound {order_bound}")
    n, npairs = g.n, len(g.pairs)
    RA, RC = g.elements()
    XA, XC = np.eye(n, dtype=np.int64), np.zeros((n, npairs), dtype=np.int64)
    columns = g.encode(*_collect_batch(RA[:, None], RC[:, None], XA[None], XC[None], g.q, g.pairs))
    gens = g.encode(XA, XC)
    return GeneratorAction(
        order=g.order, identity=0, generators=tuple(int(x) for x in gens), columns=columns
    )


@dataclass
class QuotientTableResult:
    table: FiniteGroupTable
    mapping: np.ndarray  # element index of G -> element index of G/N


def _normal_subgroup(t: FiniteGroupTable, subset) -> np.ndarray:
    """The sorted element indices of ``subset``, checked to be a normal subgroup.

    A subset with the identity is a subgroup when it is its own closure, and
    a subgroup is normal when its conjugates by the listed generators lie in
    it (module docstring).
    """
    sub = sorted_unique(_index_array(subset))
    member = np.zeros(t.order, dtype=bool)
    member[sub] = True
    if not member[t.identity]:
        raise QcwError("subgroup must contain the identity")
    if _closure_mask(t, sub).sum() != len(sub):
        raise QcwError("subset is not closed under multiplication")
    gens = t.listed_generators()
    inv = t.inverses()
    if not member[t.mult[t.mult[inv[gens][:, None], sub[None, :]], gens[:, None]]].all():
        raise QcwError("subgroup is not normal")
    return sub


def quotient_table(t: FiniteGroupTable, normal_subset) -> QuotientTableResult:
    """Quotient of a table by a normal subgroup, with the projection map."""
    sub = _normal_subgroup(t, normal_subset)
    # coset of g = {g * x : x in sub}; representative = min index
    reps, mapping = sorted_unique(t.mult[:, sub].min(axis=1), return_inverse=True)
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

    Independent of the normal-form construction: works purely on the table,
    as the normal closure of the h^q and the [h, x], x listed (module
    docstring).
    """
    sub = _normal_subgroup(t, subgroup)
    gens = t.listed_generators()
    powers = np.full(len(sub), t.identity, dtype=np.int64)
    for _ in range(params.q):
        powers = t.mult[powers, sub]
    seeds = np.concatenate([powers, t.commutators(sub, gens).ravel()])
    return _mask_set(_closure_mask(t, seeds, gens))


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


def _is_hom(t1: GeneratorAction, t2: FiniteGroupTable, phi: np.ndarray) -> bool:
    """Is the map ``phi`` (element of t1 -> element of t2) a homomorphism?

    It checks phi(1) = 1 and phi(g s) = phi(g) phi(s) for every g and every
    tree generator s, on t1's generator columns: |G| |S| entries.

    Lemma.  These suffice.  By induction on k, phi(g s_1 ... s_k) =
    phi(g s_1 ... s_(k-1)) phi(s_k) = phi(g) phi(s_1) ... phi(s_k); at
    g = 1 this reads phi(s_1 ... s_k) = phi(s_1) ... phi(s_k).  The tree
    spans, so S generates the finite group G, and as a monoid, since
    s^-1 = s^(ord(s) - 1): every h is such a positive word, and
    phi(g h) = phi(g) phi(h).  The converse is clear.
    """
    tree = t1.spanning_tree()
    if phi[t1.identity] != t2.identity:
        return False
    return bool((phi[tree.columns] == t2.mult[phi[:, None], phi[tree.gens]]).all())


def _build_hom(t1: FiniteGroupTable, t2: FiniteGroupTable, images: np.ndarray) -> np.ndarray | None:
    """The homomorphism t1 -> t2 taking the tree generators to ``images``,
    or None if there is none.  It is built along the tree (module
    docstring), whose first layer sets phi(s) = images[i], and verified by
    ``_is_hom``."""
    phi = np.empty(t1.order, dtype=np.int64)
    phi[t1.identity] = t2.identity
    for parent, i, child in t1.spanning_tree().layers:
        phi[child] = t2.mult[phi[parent], images[i]]
    return phi if _is_hom(t1, t2, phi) else None


def is_isomorphic(t1: FiniteGroupTable, t2: FiniteGroupTable) -> tuple[bool, list[int] | None]:
    """Isomorphism test with generator-image backtracking.

    Prunes by order, exponent, element-order census, center order, and
    abelianization; then searches images of t1's generators in table index
    order and returns the first witness (images of t1.generators in t2).
    A generator's candidates are the elements with its order and
    centralizer size, and a candidate for the k-th generator must keep the
    orders of its products and commutators with the images already chosen;
    the orders on t1's side are read once.  Each leaf is checked by
    ``_build_hom`` on |G| |S| entries.
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
    if not t1.generators:
        raise QcwError("source table lists no generators")
    gens = np.array(t1.generators, dtype=np.int64)
    # a repeated generator's image is read at its first listing
    listing = [t1.generators.index(int(s)) for s in t1.spanning_tree().gens]
    orders1, orders2 = t1.element_orders(), t2.element_orders()
    # the centralizer of x is the row x of mult == mult.T
    cent1 = (t1.mult[gens] == t1.mult[:, gens].T).sum(axis=1)
    cent2 = (t2.mult == t2.mult.T).sum(axis=1)
    candidates = [np.flatnonzero((orders2 == orders1[g]) & (cent2 == c)) for g, c in zip(gens, cent1)]
    products1 = orders1[t1.mult[gens[:, None], gens[None, :]]]
    commutators1 = orders1[t1.commutators(gens, gens)]
    mult2, inv2 = t2.mult, t2.inverses()

    def backtrack(chosen: list[int]) -> list[int] | None:
        k = len(chosen)
        if k == len(gens):
            phi = _build_hom(t1, t2, np.array(chosen, dtype=np.int64)[listing])
            return chosen if phi is not None and len(sorted_unique(phi)) == t1.order else None
        ys = candidates[k]
        for kk, pa in enumerate(chosen):
            # local consistency: pairwise products and commutators keep orders
            commutators2 = mult2[mult2[mult2[inv2[pa], inv2[ys]], pa], ys]
            ys = ys[(orders2[mult2[pa, ys]] == products1[kk, k]) & (orders2[commutators2] == commutators1[kk, k])]
        for y in ys.tolist():
            witness = backtrack(chosen + [y])
            if witness is not None:
                return witness
        return None

    witness = backtrack([])
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
    ts, tt = to_table(qs, order_bound), to_table(qt, order_bound)
    # phi(prod x_i^{a_i} prod u_ij^{c_ij}) via the normal form, per source element
    bases = image_elems + [Et.commutator(image_elems[j], image_elems[i]) for i, j in qs.pairs]
    BA = np.array([e.a for e in bases], dtype=np.int64).reshape(len(bases), Et.n)
    BC = np.array([e.c for e in bases], dtype=np.int64).reshape(len(bases), len(Et.pairs))
    IA, IC = _product_batch(BA, BC, np.hstack(qs.elements()), Et.q, Et.pairs)
    mapping = qt.encode(IA, IC)
    # sanity: must be a homomorphism of tables
    if not _is_hom(ts, tt, mapping):
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
    """Least power k of p with g^k in N for every g in E: the exponent of E/N.

    By the exponent lemma (module docstring), for k = 1, p, p^2, ... one
    batch of n + n(n-1)/2 rows is reduced, the x_i^k = (k e_i, 0) and the
    u_ij^C(k, 2) = (0, C(k, 2) e_t), and the first k at which every row
    lies in N is returned; it is at most q^2.  No element of E/N is listed.
    """
    n, unit = g.n, np.eye(g.n + len(g.pairs), dtype=np.int64)
    k = 1
    while True:
        A, C = g.reduce(unit[:, :n] * (k % g.q2), unit[:, n:] * (k * (k - 1) // 2 % g.q))
        if not A.any() and not C.any():
            return k
        k *= g.params.p


def group_record(g: ClassTwoGroup, order_bound: int = DEFAULT_ORDER_BOUND) -> dict:
    """Order, exponent, class and abelian invariants of G = E(n, q)/N.

    All four come from the reduced form of ``ClassTwoGroup``, with no
    multiplication table:

    - order: the product of the radices;
    - abelian invariants: E/[E, E] = (Z/q^2)^n and multiplication adds
      a-parts, so G/[G, G] is the cokernel over Z/q^2 of the a-parts of
      ``kernel_basis``;
    - class: 0 for the trivial group, 1 when N contains Z = [E, E] (every
      c-radix is 1), else 2 (E has class <= 2);
    - exponent: the least p^e with g^(p^e) in N for every g in E, from
      the powers of the x_i and the u_ij alone (the exponent lemma of the
      module docstring).

    So the record costs O(n^2 log_p q) row reductions plus the cokernel,
    whatever |G| is.  The bound still applies to |E(n, q)|, as in
    ``third_quotient``.
    """
    _refuse_universal_order(g.n, g.q, order_bound)
    order = g.order
    cls = 0 if order == 1 else 1 if all(r == 1 for r in g.radices[g.n:]) else 2
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
