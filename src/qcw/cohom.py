"""Mod-q cohomology of explicit finite groups in degrees 1 and 2.

Degree 1 is Hom(G, Z/q), solved on its |S| values at the listed
generators through the spanning tree of degree 2 (below).  Degree 2 uses
normalized bar cochains: a cochain is a function
f : (G \\ 1) x (G \\ 1) -> Z/q (normalization f(1, .) = f(., 1) = 0 is
built into the indexing), the cocycle identity

    f(g, h) + f(gh, k) = f(h, k) + f(g, hk)

is the cocycle condition, and coboundaries are spanned by
(d u)(g, h) = u(g) - u(gh) + u(h) over normalized 1-cochains u.

Writing (df)(g, h, k) = f(h, k) - f(gh, k) + f(g, hk) - f(g, h), a
normalized f is a cocycle iff df(g, h, s) = 0 for all g, h and every s in
a generating set S.  Indeed ddf = 0 at (g, h, k', s) reads
df(g, h, k's) = df(g, h, k') once df(., ., s) = 0, and df(g, h, 1) = 0 by
normalization; every element of a finite group is a positive word in S, so
df = 0 by induction on the word length of k.

These |S| (|G|-1)^2 equations, s running over the table's listed
generators, are not solved as they stand: a normalized cocycle is fixed by
its |S| (|G|-1) values f(x, s) (Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, ch. 7).  Take the group's BFS spanning tree
of the right Cayley graph on S (``GeneratorAction.spanning_tree``); each
walk below runs over it a layer at a time, as every parent lies in the
layer before.  On a tree edge k = k's the equation df(g, k', s) = 0
reads f(g, k) = f(g, k') + f(gk', s) - f(k', s), so walking the tree
extends any generator values to a normalized cochain that satisfies the
tree equations, and every cocycle is the extension of its own values.  So
Z^2 is, on the generator values, the solution module of the remaining
(off-tree) equations, and the extension is injective on it.

Z^2 is solved from a presentation <S | R> of G, by dimension shifting
(Brown, *Cohomology of Groups*, III.5-III.6; Fox, "Free differential
calculus I", Ann. Math. 1953).  For a word w in S and generator values f
(with f(1, s) = 0) walk w from every g at once:

    acc_w(g) = sum over the letters of w of  +f(g u, s)        (letter s)
                                          or -f(g u s^-1, s)  (letter s^-1),

u the prefix before the letter.  Then acc_uv(g) = acc_u(g) + acc_v(g u), so
w -> acc_w is a derivation of the free group on S into Map(G, Z/q), on which
u acts by (u.φ)(g) = φ(g u).  Map(G, Z/q) is co-induced, hence acyclic, so
with M = Map(G, Z/q) / constants the connecting map is an isomorphism
H^1(G, M) -> H^2(G, Z/q), and on cocycles it sends a derivation δ to
F(g, h) = δ~(h)(g), δ~(h) the lift of δ(h) that vanishes at 1; conversely
F(., h) modulo constants is a derivation for every normalized cocycle F.
A derivation of the free group factors through G iff it vanishes on R,
since the normal closure of R acts trivially on M.  So the generator values
of the normalized cocycles are exactly the f with acc_r constant in g for
every relator r, and f(1, s) = 0 fixes the constant: the lift of
δ(s) = acc_s vanishing at 1 is f(., s) itself.  The walk equations are the
|R| (|G|-1) rows acc_r(g) - acc_r(1), g != 1.  A relator's walk must take
every g back to g (r = 1 in G); ``z2_generators`` raises otherwise.  It
does not check that R presents G: fewer relators give more solutions, and
the safety net below rejects them.

A table given no relators (``h2``, ``decomposable_h2``, the stand-ins)
walks the Schreier relators path(h) s path(hs)^-1 of the tree, one per
off-tree pair (h, s); path(k) spells the tree path to k.  By Schreier's
lemma they freely generate the kernel of the free group on S onto G, so
they present G (Holt, Eick and O'Brien, ch. 2).  Their walk equations are
the off-tree equations: along a tree path acc_path(k)(g) - acc_path(k)(1)
is the extension's f(g, k), by the tree equation, so for the Schreier
relator r of (h, s)

    acc_r(g) - acc_r(1) = f(g, h) + f(gh, s) - f(h, s) - f(g, hs)
                        = -df(g, h, s).

Free reduction of r changes no row, as w -> acc_w is a derivation, and
nothing cancels across s: path(hs) ends in s only on the tree edge (h, s).
``cohomology`` passes the relators of G^[3, q] instead
(``qcentral.third_quotient_relators``), |R| (|G| - 1) rows against the
(|S| |G| - |G| + 1)(|G| - 1) of the Schreier relators.  Both present G, so
they solve for the same Z^2 and cross-check.

One function evaluates df, the safety net, on generator values that carry
a trailing axis of m cochains.  Row g of the extension needs only row g of
the tree walk, so df runs over blocks of rows g whose size keeps every
temporary within one cell budget.  Fed solutions at every pair, tree pairs
included, it is by the lemma above the full cocycle identity.  The net
runs on the ``rank`` representatives rep_i = ``transform @ gens`` of the
H^2 module ``QuotientModule(gauge(gens), coboundary_rows())``, not on all
m solutions.
Net lemma: that module gives every s in span(gens) as
gauge(s) = Σ c_i gauge(rep_i) + Σ d_j dK_j, so s - Σ c_i rep_i lies in B^2
by the gauge lemma below.  df is linear, and it vanishes on B^2 (a
coboundary is a cocycle, hence the extension of its own values).  So df
vanishes on all the solutions iff it vanishes on the representatives: the
check equals the check on every solution, it is not a weaker one, and it
does not need B^2 ⊆ span(gens), so a corrupted kernel still trips it.

The generators returned depend on Z^2 alone.  Over Z/q every submodule M
of (Z/q)^w satisfies Ann(Ann(M)) = M (Z/q is self-injective), so the
equation module is Ann(Z^2) for any system of equations on the generator
values whose solutions are Z^2, whatever presentation, tree, row order or
blocking produced it.  ``RowSpace`` holds it in Howell form, which is
unique for the module (Howell, "Spans in the module (Z_m)^s", 1986), and
the generators are read off that form: one per free column when every
pivot is a unit, else ``kernel_with_orders`` of its rows.  So the relators
of G^[3, q] and the Schreier relators land on the same vectors, in the
same order.

Degree 2 has one coordinate system, the |S| (|G|-1) generator values, and
no function here builds a |G| x |G| cochain.  Restriction is injective on
Z^2 (a cocycle is fixed by these values), and B^2 and the cup products lie
in Z^2, so H^2 = Z^2 / B^2 and its decomposable part are the same modules
on restricted vectors.  The basis classes reported are restricted vectors.
Their support size is the number of nonzero values of the bar cochains
they extend to, and neither count walks the tree a second time.  The H^2
basis classes are the net's representatives rep_i, so their extensions
are counted inside the net's own walk, one row block at a time, and
cached with Z^2 once the net passes.  The decomposable classes need no
walk, by the cup lemma: for a, b in Hom(G, Z/q) the values
f(g, s) = a(g) b(s) extend to the bar cochain (a ∪ b)(g, k) = a(g) b(k)
(Brown, V.3).  Along a tree edge k = k' s the tree equation gives
F(g, k) = F(g, k') + a(g k') b(s) - a(k') b(s) = F(g, k') + a(g) b(s), as
a is a homomorphism, so with F(g, 1) = 0, F(g, k) = a(g) times the sum of
b over the letters of the tree path to k, which is a(g) b(k).  The
extension is linear mod q, so decomposable class r = Σ_ij C[r, i, j]
a_i ∪ a_j (C the ``transform`` of ``dec_module``) extends to
Σ_ij C[r, i, j] a_i(g) a_j(k) mod q, counted from the H^1 basis values a
block of rows g at a time.  No block of either count holds more than one
cell budget.  Maps induced on the decomposable part need no cochain either
(``induced_h_maps``).

B^2 is not eliminated as the span of the |G| - 1 coboundaries d(u_x) of
point masses: the spanning tree fixes a gauge (the Schreier-tree
normalisation of Holt, Eick and O'Brien, ch. 7).  The first BFS layer holds
exactly the listed generators s_i.  For restricted values v (with
v(1, s) = 0) set u_v(1) = u_v(s_i) = 0 and u_v(k) = u_v(k') - v(k', s_i)
along every other tree edge k = k' s_i; then v - du_v, with
du(g, s) = u(g) + u(s) - u(gs), vanishes on the tree edges, and ``gauge``
keeps its values at the (|S|-1)(|G|-1) + |S| off-tree pairs.  The same walk
with v = 0 and u(s_i) = δ_ij gives K_j, the number of letters s_j on the
tree path; dK_j vanishes on the tree edges, and the |S| rows dK_j are
``coboundary_rows``.  Claim: v ∈ B^2 iff gauge(v) ∈ span(dK_j).  If
gauge(v) = Σ c_j dK_j on the off-tree pairs, then v - du_v - Σ c_j dK_j is
zero there and on the tree edges, so it is zero everywhere and
v = d(u_v + Σ c_j K_j).  Conversely, if v = du, then t = u - u_v has
dt = v - du_v zero on the tree edges, so t' = t - Σ t(s_j) K_j has
t'(1) = t'(s_j) = 0 and t'(k) = t'(k') along every tree edge: t' = 0 and
gauge(v) = Σ t(s_j) dK_j.  The gauge is linear, so a quotient by B^2 is a
quotient of gauged values by |S| rows.  Its relation module
Λ = {λ : λ·gens ∈ B^2} is the same in both coordinate systems, and
``QuotientModule`` reads everything off the Howell form of Λ, so H^2, its
decomposable part and the cup tensor come out as they would from all of
B^2; the basis classes are the same combinations (``transform``) of the
original restricted generators.

Degree 1 lives on the same tree.  Lemma: Hom(G, Z/q) is the kernel of the
transposed gauge rows, v -> Σ_j v_j K_j.  A homomorphism f adds up along
the tree path, so f = Σ_j f(s_j) K_j (K_j(s_i) = δ_ij, as the first layer
holds the s_i).  Conversely f = Σ_j v_j K_j has f(1) = 0 and
f(g) + f(s_i) - f(g s_i) = Σ_j v_j dK_j(g, s_i), which vanishes on the tree
edges; since S generates G, f is a homomorphism iff it vanishes at the
off-tree pairs as well, that is iff v is in the kernel of
``coboundary_rows().T``: |S| columns and at most |S| pivots, where the
homomorphism conditions f(x g) = f(x) + f(g) on the |G| - 1 values take a
|S| |G| x (|G| - 1) system.  v -> Σ_j v_j K_j is injective, so the kernel
vectors' potentials span Hom(G, Z/q).

``h1_space`` reports the ``kernel_with_orders`` generators v of that
kernel, with their orders, as the homomorphisms Σ_j v_j K_j, the
potentials K that ``coboundary_rows`` walks kept and reused.  On the tree
generators the basis values are the kernel vectors themselves, since
K_j(s_i) = δ_ij.  So when the gauge rows vanish mod q, and the kernel is
all of (Z/q)^|S| with the unit vectors as its generators, the basis is the
dual basis χ_i(s_j) = δ_ij of the tree generators, the basis in which
the cup products χ_i ∪ χ_j are read off the relators.

For q = p^d with d > 1 the spaces are Z/q-modules rather than vector
spaces; "dimension" throughout means the minimal number of generators
(the length of the cyclic-invariant list), which coincides with the F_p
dimension when q = p.

Cup products of degree-1 classes use (a cup b)(g, h) = a(g) * b(h) with no
sign.  The decomposable part of H^2 is the span of these products modulo
coboundaries; ``GroupCohomology.dec_module`` computes it without solving
for all of H^2 (only coboundaries are needed), keeping large groups within
reach of the degree <= 2 comparisons.

The group is a ``qcentral.GeneratorAction``, read only through its |G| x |S|
columns g -> g s and the spanning tree on them: a product g k walks the tree
beside the extension (``_along_tree``), and a relator walk carries its prefix
map g -> g u.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotAHomomorphismError, QcwError, SizeLimitError
from .presentations import Presentation, Word, concat, inverse
from .qcentral import FiniteGroupTable, GeneratorAction, _f2q_images, _pairs
from .zqlinalg import (
    QuotientModule,
    RowSpace,
    diagonalize,
    kernel_with_orders,
    prime_power,
    solve_mod_many,
)

DEFAULT_H2_BOUND = 64
_BLOCK_CELLS = 1 << 22

__all__ = [
    "CohomologySpace",
    "PairingTensor",
    "TableHom",
    "GroupCohomology",
    "h1",
    "h2",
    "decomposable_h2",
    "inflation",
    "induced_h_maps",
    "pairing_gram",
    "relator_pairing",
    "pairings_equivalent",
    "quadratic_hull",
    "cohomology_record",
]


@dataclass
class CohomologySpace:
    """Basis of H^degree(G, Z/q) with cyclic orders of the basis classes.

    Degree-1 classes are length-|G| arrays; degree-2 classes are their
    generator values f(g, s), g != 1, g-major, |S| (|G|-1) long.
    ``support_size`` is the number of nonzero values of the basis classes as
    functions on G, or on G x G for the bar cochains that degree 2 extends to.
    """

    degree: int
    modulus: int
    invariants: list[int]
    basis: list[np.ndarray]
    support_size: int

    @property
    def dimension(self) -> int:
        return len(self.invariants)


@dataclass
class PairingTensor:
    """Bilinear map coordinates: values[i, j] in the target module."""

    q: int
    m: int
    target_orders: tuple[int, ...]
    values: np.ndarray  # shape (m, m, len(target_orders))

    @property
    def target_dim(self) -> int:
        return len(self.target_orders)

    def to_record(self) -> dict:
        return {
            "m": self.m,
            "target_dim": self.target_dim,
            "target_orders": list(self.target_orders),
            "values": self.values.tolist(),
        }


@dataclass
class TableHom:
    """A homomorphism of group tables, as an index mapping array."""

    source: FiniteGroupTable
    target: FiniteGroupTable
    mapping: np.ndarray

    def __post_init__(self):
        self.mapping = np.asarray(self.mapping, dtype=np.int64)
        if self.mapping.shape != (self.source.order,):
            raise DimensionMismatchError("mapping length must equal the source order")
        if ((self.mapping < 0) | (self.mapping >= self.target.order)).any():
            raise DimensionMismatchError("mapping entries must be elements of the target")
        if self.mapping[self.source.identity] != self.target.identity:
            raise NotAHomomorphismError("mapping does not preserve the identity")
        ok = (
            self.mapping[self.source.mult]
            == self.target.mult[np.ix_(self.mapping, self.mapping)]
        ).all()
        if not ok:
            raise NotAHomomorphismError("mapping is not multiplicative")

    def is_surjective(self) -> bool:
        return len(set(map(int, self.mapping))) == self.target.order

    def compose(self, earlier: "TableHom") -> "TableHom":
        """self o earlier (apply ``earlier`` first); ``earlier`` must land in
        this map's source: the same table, or one with the same identity and
        multiplication."""
        mid, src = earlier.target, self.source
        if mid is not src and not (mid.identity == src.identity and np.array_equal(mid.mult, src.mult)):
            raise DimensionMismatchError("homomorphisms do not compose")
        return TableHom(source=earlier.source, target=self.target, mapping=self.mapping[earlier.mapping])


def check_h2_bound(order: int, h2_bound: int) -> None:
    """Refuse a full degree-2 solve on a group of more than ``h2_bound`` elements."""
    if order > h2_bound:
        raise SizeLimitError(f"group order {order} exceeds the degree-2 bound {h2_bound}")


class GroupCohomology:
    """Cached degree <= 2 cohomology data of one (table, q) pair."""

    def __init__(
        self,
        table: GeneratorAction,
        q: int,
        h2_bound: int = DEFAULT_H2_BOUND,
        relators=None,
    ):
        """``table`` is read only at the listed generators (module
        docstring); a ``FiniteGroupTable`` is one such action.
        ``relators`` are words in the listed generators (letter i is
        ``table.generators[i]``) that present the group; Z^2 is solved from
        their walks.  None means the Schreier relators of the spanning tree;
        an empty list is the empty presentation, which the safety net
        refuses on a nontrivial group."""
        prime_power(q)
        self.t = table
        self.q = q
        self.h2_bound = h2_bound
        self.relators = None if relators is None else tuple(relators)
        n = table.order
        elems = np.arange(n, dtype=np.int64)
        self.elems = elems[elems != table.identity]
        self.width = (n - 1) * (n - 1)
        self._h1: CohomologySpace | None = None
        self._b2: np.ndarray | None = None
        self._K: np.ndarray | None = None
        self._off: tuple[np.ndarray, np.ndarray] | None = None
        self._z2: list[tuple[np.ndarray, int]] | None = None
        self._h2_module: QuotientModule | None = None
        self._h2_support: int | None = None
        self._cups: np.ndarray | None = None
        self._dec_module: QuotientModule | None = None

    # -- degree 1 -----------------------------------------------------------

    def h1_space(self) -> CohomologySpace:
        """Hom(G, Z/q) from the kernel of ``coboundary_rows().T`` (module
        docstring): each kernel vector gives the values at the tree
        generators of one basis homomorphism, its potential, and its order.
        Raises ``QcwError`` unless the listed generators generate."""
        if self._h1 is None:
            b2 = self.coboundary_rows()
            kern = kernel_with_orders(b2.T, self.q)
            v = np.array([vec for vec, _ in kern], dtype=np.int64).reshape(len(kern), len(b2)).T
            # the potential of constant generator values v is Σ_j K_j v_j
            values = self._K @ v % self.q
            self._h1 = CohomologySpace(
                degree=1,
                modulus=self.q,
                invariants=[o for _, o in kern],
                basis=list(values.T),
                support_size=int(np.count_nonzero(values)),
            )
        return self._h1

    # -- the generator-value coordinates ---------------------------------------

    def coboundary_rows(self) -> np.ndarray:
        """The |S| gauge rows dK_j on the off-tree values: B^2 in the gauge
        of the module docstring.  K_j counts the letters s_j on the tree path
        to each element, so dK_j vanishes on the tree edges."""
        if self._b2 is None:
            gens = self.t.spanning_tree().gens
            ns = len(gens)
            # f(g, s_i) = δ_ij for every g: the walk gives p = K_j, kept for
            # ``h1_space``, and the values δ_ij + K_j(g) - K_j(g s_i) = dK_j(g, s_i)
            on_gens = np.broadcast_to(np.eye(ns, dtype=np.int64), (self.t.order, ns, ns))
            self._K = self._potentials(on_gens)
            self._b2 = self._tree_reduced(on_gens, self._K)
        return self._b2

    def gauge(self, vectors) -> np.ndarray:
        """The off-tree values of v - du for the restricted vectors v (rows),
        where u(1) = u(s) = 0 and u(k) = u(k') - v(k', s) along each tree
        edge k = k's, so that v - du vanishes on the tree edges.  v is a
        coboundary iff its gauge lies in the span of ``coboundary_rows``."""
        on_gens = self._on_gens(vectors)
        return self._tree_reduced(on_gens, self._potentials(on_gens))

    def _potentials(self, on_gens: np.ndarray) -> np.ndarray:
        """p(1) = 0 and p(k) = p(k') + f(k', s) along each tree edge k = k's,
        |G| x m for the |G| x |S| x m values f (not reduced mod q), by
        pointer jumping: while anc[k] is the 2^j-th ancestor of k (the root
        once past it), pot[k] sums the edge values on the path from k up to
        anc[k], so pot += pot[anc], anc = anc[anc] doubles the reach.  The
        depth-many layers take log2(depth) steps, with the same integer
        sums."""
        tree = self.t.spanning_tree()
        parent, i, k = tree.edges
        pot = np.zeros((self.t.order, on_gens.shape[-1]), dtype=np.int64)
        pot[k] = on_gens[parent, i]
        anc = np.full(self.t.order, self.t.identity)
        anc[k] = parent
        reach = 1
        while reach < len(tree.layers):
            pot += pot[anc]
            anc = anc[anc]
            reach *= 2
        return pot

    def _tree_reduced(self, on_gens: np.ndarray, pot: np.ndarray) -> np.ndarray:
        """w(g, s) = f(g, s) + p(g) - p(gs) at the off-tree pairs, one row per
        trailing index of the |G| x |S| x m values f, p their ``_potentials``."""
        columns = self.t.spanning_tree().columns
        g, i = self._off_tree()
        return ((on_gens[g, i] + pot[g] - pot[columns[g, i]]) % self.q).T

    def _off_tree(self) -> tuple[np.ndarray, np.ndarray]:
        """The off-tree pairs (g, gens[i]), g != 1, g-major as in the
        restricted vectors: the tree edges (k', i) with k' != 1 removed."""
        if self._off is None:
            tree = self.t.spanning_tree()
            parent, i, _ = tree.edges
            off = np.ones((self.t.order, len(tree.gens)), dtype=bool)
            off[parent, i] = False
            self._off = np.nonzero(off)
        return self._off

    def _schreier_relators(self) -> list[Word]:
        """The Schreier relators path(h) s path(hs)^-1 of the spanning tree,
        one per off-tree pair (h, s) in the order of ``_off_tree``: path(k)
        spells the tree path to k, each tree generator as its first listing
        in ``generators``.  They present the group (module docstring)."""
        tree = self.t.spanning_tree()
        listed = [int(x) for x in self.t.generators]
        letter = [Word(((listed.index(s), 1),)) for s in tree.gens.tolist()]
        path = {self.t.identity: Word(())}
        for parent, i, k in zip(*(a.tolist() for a in tree.edges)):
            path[k] = concat(path[parent], letter[i])
        h, i = self._off_tree()
        ends = zip(h.tolist(), i.tolist(), tree.columns[h, i].tolist())
        return [concat(path[x], letter[j], inverse(path[y])) for x, j, y in ends]

    # -- degree 2 -------------------------------------------------------------

    def _on_gens(self, vectors) -> np.ndarray:
        """The generator values of restricted vectors as a |G| x |S| x m array,
        one cochain per trailing index, with f(1, s) = 0."""
        gens = self.t.spanning_tree().gens
        w, ns = len(self.elems), len(gens)
        vectors = np.asarray(vectors, dtype=np.int64).reshape(len(vectors), w * ns)
        on_gens = np.zeros((self.t.order, ns, len(vectors)), dtype=np.int64)
        on_gens[self.elems] = vectors.T.reshape(w, ns, len(vectors))
        return on_gens

    def _along_tree(self, on_gens: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Extend generator values f(x, s) to f(g, k) for the rows g in ``rows``.

        ``on_gens`` is |G| x |S| x m as ``_on_gens`` builds it.  Along a tree
        edge k = k' s, df(g, k', s) = 0 reads f(g, k) = f(g, k') + f(gk', s)
        - f(k', s), so row g needs only row g, and the products P[., k] = g k
        walk beside it: g k = (g k') s is the column of s at g k'.  Returns
        the len(rows) x |G| x m values F of the extended cochains in those
        rows, with f(., 1) = 0, and the len(rows) x |G| products P.
        """
        tree = self.t.spanning_tree()
        F = np.zeros((len(rows), self.t.order, on_gens.shape[-1]), dtype=np.int64)
        P = np.empty((len(rows), self.t.order), dtype=np.int64)
        P[:, self.t.identity] = rows
        for parent, i, k in tree.layers:
            gk = P[:, parent]
            F[:, k] = F[:, parent] + on_gens[gk, i] - on_gens[parent, i]
            P[:, k] = tree.columns[gk, i]
        return F % self.q, P

    def _row_blocks(self, row_cells: int):
        """The rows g != 1 in blocks of at most ``_BLOCK_CELLS`` // ``row_cells``
        rows, one row if a row alone is larger: ``row_cells`` is the room a row
        g needs, |G| |S| m for df at every pair (h, s), or for m cochains
        along the tree and their temporaries."""
        step = max(1, _BLOCK_CELLS // max(1, row_cells))
        for start in range(0, len(self.elems), step):
            yield self.elems[start : start + step]

    def _df_blocks(self, vectors, h: np.ndarray, i: np.ndarray):
        """df(g, h, s) = f(h, s) - f(gh, s) + f(g, hs) - f(g, h) for the
        cochains extended from the restricted ``vectors``, at the pairs
        (h, s) = (h[j], gens[i[j]]), in blocks of rows g != 1.

        Yields (df, F) per block: df the block x len(h) x len(vectors) values
        mod q, F the block x |G| x len(vectors) extended cochains of
        ``_along_tree`` in those rows.  A block holds at most ``_BLOCK_CELLS``
        entries of df unless one row g alone is larger.
        """
        on_gens = self._on_gens(vectors)
        f_hs, hs = on_gens[h, i], self.t.spanning_tree().columns[h, i]
        ns = len(self.t.spanning_tree().gens)
        for g in self._row_blocks(self.t.order * ns * on_gens.shape[-1]):
            F, P = self._along_tree(on_gens, g)
            r = np.arange(len(g))[:, None]
            yield (f_hs - on_gens[P[:, h], i] + F[r, hs] - F[r, h]) % self.q, F

    def _walk_rows(self, relators):
        """The walk equations acc_r(g) - acc_r(1) = 0, g != 1, of the
        ``relators`` on the restricted unknowns (module docstring), in
        blocks of relators whose dense rows hold at most
        ``_BLOCK_CELLS // 4`` entries unless one relator alone is larger:
        ``RowSpace`` sweeps a block with temporaries a few times its size.

        A letter at prefix u reads f(g h, s) with h = u (letter s) or
        h = u s^-1 (letter s^-1) for every g: the walk carries the map g -> g u
        through the columns and stacks the maps g -> g h it reads.  A run
        x^e, y = x or x^-1, reads h = v y^t for t < |e|, with v = u or u y.
        These lie in the coset v <y>, which has o = ord(x) elements, so only
        the first min(|e|, o) are walked, and v y^t, t < o, is read
        floor(|e|/o) + [t < |e| mod o] times: a long run costs its period."""
        t = self.t
        gens = self.t.spanning_tree().gens
        n, ns = t.order, len(gens)
        unknowns = len(self.elems) * ns
        # cell[k, i]: the column of f(k, gens[i]); f(1, .) = 0 goes to a spare
        # last column, dropped below
        cell = np.full((n, ns), unknowns, dtype=np.int64)
        cell[self.elems] = np.arange(unknowns).reshape(len(self.elems), ns)
        column = {int(x): i for i, x in enumerate(gens)}
        # per listed generator x: its column and the maps k -> k x, k -> k x^-1
        letters = []
        for a, x in enumerate(t.generators):
            times_x = t.columns[:, a]
            letters.append((column.get(int(x), -1), times_x, np.argsort(times_x)))
        g = np.arange(n)[:, None]
        one = t.identity
        step = max(1, _BLOCK_CELLS // 4 // max(1, n * (unknowns + 1)))
        for start in range(0, len(relators), step):
            block = relators[start : start + step]
            acc = np.zeros((len(block), n, unknowns + 1), dtype=np.int64)
            for b, r in enumerate(block):
                gh, i, weight = [], [], []
                gu = np.arange(n)
                for a, e in r.letters:
                    if a >= len(letters):
                        raise DimensionMismatchError(
                            f"relator uses generator {a}, the table lists {len(letters)}"
                        )
                    col, times_x, times_x_inv = letters[a]
                    if col < 0 or not e:
                        continue  # the letter is the identity: f(k, 1) = 0
                    times_y = times_x if e > 0 else times_x_inv
                    gv = gu if e > 0 else times_y[gu]
                    coset = [gv]
                    nxt = times_y[gv]
                    # a map g -> g h is fixed by h, its value at 1
                    while len(coset) < abs(e) and nxt[one] != gv[one]:
                        coset.append(nxt)
                        nxt = times_y[nxt]
                    # o = ord(x) if the walk met v again, else o = |e| < ord(x)
                    o = len(coset)
                    reps, extra = divmod(abs(e), o)
                    sign = 1 if e > 0 else -1
                    gh += coset
                    i += [col] * o
                    weight += [sign * ((reps + 1) % self.q)] * extra
                    weight += [sign * (reps % self.q)] * (o - extra)
                    # the prefix after the run is v y^k, nxt = v y^o
                    k = abs(e) - (e < 0)
                    gu = nxt if k == o else coset[k % o]
                # g r = g for every g iff r = 1
                if gu[one] != one:
                    raise QcwError(f"relator {start + b} does not hold in the table")
                gh = np.array(gh, dtype=np.int64).reshape(len(gh), n).T
                np.add.at(acc[b], (g, cell[gh, i]), weight)
            rows = acc[:, self.elems, :unknowns]
            rows -= acc[:, t.identity, None, :unknowns]
            rows %= self.q
            yield rows.reshape(len(block) * len(self.elems), unknowns)

    def z2_generators(self) -> list[tuple[np.ndarray, int]]:
        """Independent generators (vector, order) of the cocycle module Z^2,
        as restricted vectors: the kernel of the relators' walk equations,
        the tree's Schreier relators if none were given, read off their
        Howell form (see the module docstring).  The H^2 module is built
        here, once: the safety net runs on its representatives (the net
        lemma of the module docstring), and Z^2 and the module are cached
        together once the net has passed.  A non-cocycle raises
        ``QcwError`` and caches nothing."""
        if self._z2 is None:
            t, q = self.t, self.q
            check_h2_bound(t.order, self.h2_bound)
            gens = self.t.spanning_tree().gens
            unknowns = len(self.elems) * len(gens)
            relators = self._schreier_relators() if self.relators is None else self.relators
            rs = RowSpace(unknowns, q)
            for rows in self._walk_rows(relators):
                rs.add_rows(rows)
            kernel = rs.kernel()
            z2 = np.array([v for v, _ in kernel], dtype=np.int64).reshape(len(kernel), unknowns)
            module = self._modulo_b2(z2)
            # the safety net on the H^2 representatives: every df(g, h, s),
            # tree pairs included.  They are the basis classes of
            # ``h2_space``, so their support is counted on the same walk
            every_pair = np.nonzero(np.ones((t.order, len(gens)), dtype=bool))
            support = 0
            for df, F in self._df_blocks(module.transform @ z2 % q, *every_pair):
                if df.any():
                    raise QcwError("internal error: cocycle solver produced a non-cocycle")
                support += int(np.count_nonzero(F))
                del df, F  # free the block before the next one is built
            self._z2, self._h2_module, self._h2_support = kernel, module, support
        return self._z2

    def _modulo_b2(self, vectors) -> QuotientModule:
        """span(vectors) + B^2 / B^2 on the gauged values (module docstring)."""
        b2 = self.coboundary_rows()
        return QuotientModule(self.gauge(vectors), b2, b2.shape[1], self.q)

    def h2_module(self) -> QuotientModule:
        """H^2 = Z^2 / B^2 in the gauge: ``basis`` and ``coords_batch`` are
        on gauged values (``gauge``).  It is the module that
        ``z2_generators`` builds for its safety net, the same object."""
        if self._h2_module is None:
            self.z2_generators()
        return self._h2_module

    def _z2_vectors(self) -> np.ndarray:
        gens = self.t.spanning_tree().gens
        z2 = [v for v, _ in self.z2_generators()]
        return np.array(z2, dtype=np.int64).reshape(len(z2), len(self.elems) * len(gens))

    def h2_space(self) -> CohomologySpace:
        """H^2; the support of its basis classes is the safety net's count."""
        mod = self.h2_module()
        return self._space(mod, self._z2_vectors(), self._h2_support)

    def _space(self, mod: QuotientModule, gens: np.ndarray, support_size: int) -> CohomologySpace:
        """The basis classes of a module built by ``_modulo_b2(gens)``: each a
        combination of the given restricted generators, as restricted values."""
        return CohomologySpace(
            degree=2,
            modulus=self.q,
            invariants=list(mod.orders),
            basis=list(mod.transform @ gens % self.q),
            support_size=support_size,
        )

    # -- cup products and the decomposable part -------------------------------

    def cup_flats(self) -> np.ndarray:
        """Generator values (a cup b)(g, s) = a(g) b(s), all pairs of H^1 basis, one row each."""
        if self._cups is None:
            basis = np.array(self.h1_space().basis, dtype=np.int64).reshape(-1, self.t.order)
            gens = self.t.spanning_tree().gens
            cups = basis[:, None, self.elems, None] * basis[None, :, None, gens] % self.q
            self._cups = cups.reshape(len(basis) ** 2, len(self.elems) * len(gens))
        return self._cups

    def dec_module(self) -> QuotientModule:
        """Span of cup products of H^1 classes, modulo coboundaries, on
        gauged values like ``h2_module``.

        Needs only B^2, not the full cocycle solve, so it works above the
        degree-2 bound.
        """
        if self._dec_module is None:
            self._dec_module = self._modulo_b2(self.cup_flats())
        return self._dec_module

    def dec_space(self) -> CohomologySpace:
        mod = self.dec_module()
        return self._space(mod, self.cup_flats(), self._cup_support(mod.transform))

    def _cup_support(self, transform: np.ndarray) -> int:
        """The nonzero values of the bar cochains Σ_ij C[r, i, j] a_i(g) a_j(k)
        mod q that the combinations ``transform`` (rows C[r] on the cup
        products, i m + j) of the H^1 basis a extend to, by the cup lemma of
        the module docstring: no tree walk, a block of rows g at a time."""
        if not len(transform):
            return 0
        a = np.array(self.h1_space().basis, dtype=np.int64).reshape(-1, self.t.order)
        rank, m = len(transform), len(a)
        # Ci[i, r m + j] = C[r, i, j]
        Ci = transform.reshape(rank, m, m).transpose(1, 0, 2).reshape(m, rank * m)
        support = 0
        for g in self._row_blocks(rank * self.t.order):
            # X[g, r m + j] = Σ_i a_i(g) C[r, i, j], then the values X[g, r] . a(k)
            X = a[:, g].T @ Ci % self.q
            support += int(np.count_nonzero(X.reshape(-1, m) @ a % self.q))
        return support

    def pairing(self) -> PairingTensor:
        """Cup tensor of the H^1 basis in decomposable-H^2 coordinates.

        The cup products are the generators of ``dec_module``, in the order
        (i, j) -> i m + j, so their coordinates are already known.  The
        module is taken modulo B^2, so a_i ∪ a_j is a coboundary iff
        ``values[i, j]`` is zero.
        """
        m = self.h1_space().dimension
        mod = self.dec_module()
        vals = mod.generator_coords.reshape(m, m, mod.rank)
        return PairingTensor(q=self.q, m=m, target_orders=tuple(mod.orders), values=vals)


# ---------------------------------------------------------------------------
# operation-level API


def h1(G: GeneratorAction, q: int) -> CohomologySpace:
    """H^1(G, Z/q) = Hom(G, Z/q), with representative homomorphisms."""
    return GroupCohomology(G, q).h1_space()


def h2(G: GeneratorAction, q: int, h2_bound: int = DEFAULT_H2_BOUND) -> CohomologySpace:
    """H^2(G, Z/q) = Z^2 / B^2, Z^2 from the walks of the tree's Schreier relators."""
    return GroupCohomology(G, q, h2_bound=h2_bound).h2_space()


@dataclass
class DecomposableH2:
    space: CohomologySpace
    inclusion: np.ndarray  # columns: coordinates of dec basis in the H^2 basis


def decomposable_h2(G: GeneratorAction, q: int, h2_bound: int = DEFAULT_H2_BOUND) -> DecomposableH2:
    """The decomposable subspace of H^2 and its inclusion matrix into H^2."""
    ctx = GroupCohomology(G, q, h2_bound=h2_bound)
    inclusion = ctx.h2_module().coords_batch(ctx.dec_module().basis).T
    return DecomposableH2(space=ctx.dec_space(), inclusion=inclusion)


def relator_pairing(pres: Presentation, q: int) -> PairingTensor:
    """The cup tensor of G^[3, q], G = <S | R>, read off the relators.

    Every relator r_k must lie in F^(2, q) = F^q [F, F], F free on the
    generators x_1, ..., x_n: the a-part of its class-2 image (a, c)
    (``Presentation.class2_images``), which is its degree-1 Magnus term d1,
    is 0 mod q, else ``QcwError`` (``qcentral._f2q_images``, the check
    that ``qcentral.relator_order`` makes too).  Then H^1 has the basis χ_i
    dual to the generators, m = n, and the tensor of that basis is read in
    QuotientModule(V, [], r, q) with

        V[i m + j, k] = -d2[i, j](r_k) mod q,

    the cup χ_i ∪ χ_j being generator i m + j.  The degree-2 Magnus term
    d2 is read off the image: d2[j, i] = c_ij and d2[i, j] = a_i a_j - c_ij
    for i < j, and d2[i, i] = C(a_i, 2) (the identities at
    ``presentations._class2_image``).  So ε_ij below is read off the image
    too, and the cost is the walk of each relator, O(n) a run, once per
    presentation whatever q is; no element of the group is listed.

    Lemma (the relator route).  Write ε_ij(w) = d2[i, j](w) mod q, and
    N = R F^(3, q), R the normal closure of the relators and F^(3, q) the
    third q-central term, so G^[3, q] = F / N; N ⊆ F^(2, q).  Then a
    combination f = Σ λ_ij χ_i ∪ χ_j, the cocycle
    (g, h) -> Σ λ_ij χ_i(g) χ_j(h), is a coboundary iff
    Σ λ_ij ε_ij(r_k) = 0 mod q for every k.  (Neukirch, Schmidt and
    Wingberg, *Cohomology of Number Fields*, III §9; Labute,
    "Classification of Demushkin groups", 1967.)

    (a) Fix i, j and let ρ : F -> U_3(Z/q), the unitriangular 3 x 3
    matrices, send x_l to 1 + δ_il E_12 + δ_jl E_23.  It is the Magnus map
    x_l -> 1 + X_l followed by the ring map X_l -> δ_il E_12 + δ_jl E_23,
    which kills every monomial of degree >= 3 and sends X_a X_b to
    δ_ia δ_jb E_13 (for i = j, X_i -> E_12 + E_23 and X_i^2 -> E_13), so
    ρ(w) = 1 + d1[i](w) E_12 + d1[j](w) E_23 + ε_ij(w) E_13.  d1 is a
    homomorphism to Z^n and vanishes mod q on F^(2, q), so ρ maps F^(2, q)
    into the centre 1 + Z/q E_13: on F^(2, q), ε_ij is a homomorphism,
    invariant under conjugation by F, and it vanishes on
    F^(2, q)^q [F^(2, q), F] = F^(3, q).

    (b) E_f = Z/q x G with (a, g)(b, h) = (a + b + f(g, h), gh) is a group
    by the cocycle identity, and (a, 1) is central.  Let L : F -> E_f send
    x_l to (0, x_l).  The Z/q part of L(w) is a sum over the letters of w of
    values of f, the walk acc_w(1) of the module docstring, so it is linear
    in f.  For f = χ_i ∪ χ_j, (a, g) -> 1 + χ_i(g) E_12 + χ_j(g) E_23
    + a E_13 is a homomorphism E_f -> U_3(Z/q) that takes L(x_l) to ρ(x_l),
    so the Z/q part of L(w) is ε_ij(w).  Hence for every f above and r in
    N, L(r) = (c_f(r), 1) with c_f(r) = Σ λ_ij ε_ij(r).

    (c) f ∈ B^2 iff c_f vanishes on N.  If f = du, then s(g) = (-u(g), g)
    is a homomorphism G -> E_f, as du(g, h) = u(g) - u(gh) + u(h), and
    L(x_l) = (u(x_l), 1) s(x_l), so L(w) = (ψ(w), 1) s(w) with ψ in
    Hom(F, Z/q), which kills N ⊆ F^(2, q).  Conversely, if c_f kills N,
    L factors through a homomorphism σ : G -> E_f lifting the identity,
    σ(g) = (-u(g), g) with u(1) = 0, and σ(g) σ(h) = σ(gh) reads f = du.

    (d) c_f is a homomorphism on N (its values are central) and invariant
    under conjugation by F, so it vanishes on N iff it vanishes on the
    relators and on F^(3, q), and by (a) it does on F^(3, q).

    So the relation module Λ = {λ : Σ λ_ij χ_i ∪ χ_j ∈ B^2} is
    {λ : λ·V = 0}, the Λ of QuotientModule(V, [], r, q), whichever sign V
    carries.  ``GroupCohomology(to_action(third_quotient(pres)), q).pairing()``
    reads the same Λ off ``dec_module`` (the gauge lemma of the module
    docstring), and in the same basis: as N ⊆ F^(2, q), Hom(G, Z/q) =
    Hom(F, Z/q), the potential K_j counts the letters x_j on a tree path,
    which is χ_j mod q, so the gauge rows vanish and ``h1_space`` returns the
    dual basis χ_i.  ``QuotientModule`` reads its orders and
    ``generator_coords`` off the Howell form of Λ alone, so the two tensors
    are equal, value for value.

    Sign.  Read as the transgression that sends a homomorphism on N to the
    class of the extension it pushes F / [N, F] N^q out to, (b) gives the
    preimage of χ_i ∪ χ_j as +ε_ij.  V is fixed to carry -ε_ij, the sign
    in which the formula of Labute and of Neukirch, Schmidt and Wingberg
    is stated, (χ_i ∪ χ_j)(r) = -a_ij for i < j when
    r = Π x_i^(q a_i) Π_(i<j) [x_i, x_j]^(a_ij) modulo F^(3, q): for
    r = [x_i, x_j], i < j, d2[i, j] = 1 and V[i m + j] = -1 mod q.  No value, order or basis depends on the
    choice, since Λ is the same for V and -V.
    """
    prime_power(q)
    m, r = pres.rank, len(pres.relators)
    V = np.zeros((m * m, r), dtype=np.int64)
    for k, (a, c) in enumerate(_f2q_images(pres, q)):
        # d2 read off the class-2 image (the docstring's identities)
        d2 = [[a[i] * a[j] if i != j else a[i] * (a[i] - 1) // 2 for j in range(m)] for i in range(m)]
        for (i, j), cij in zip(_pairs(m), c):
            d2[i][j], d2[j][i] = d2[i][j] - cij, cij
        V[:, k] = [-x % q for row in d2 for x in row]
    mod = QuotientModule(V, [], r, q)
    return PairingTensor(q=q, m=m, target_orders=tuple(mod.orders), values=mod.generator_coords.reshape(m, m, mod.rank))


def inflation(pi: TableHom, cls: np.ndarray) -> np.ndarray:
    """Pullback of a degree-1 class on the target along a surjective quotient map."""
    if not pi.is_surjective():
        raise NotAHomomorphismError("inflation requires a surjective quotient map")
    cls = np.asarray(cls, dtype=np.int64)
    if cls.shape != (pi.target.order,):
        raise DimensionMismatchError("class shape does not match the target group")
    return cls[pi.mapping]


@dataclass
class InducedMaps:
    h1_matrix: np.ndarray
    dec_matrix: np.ndarray
    h1_bijective: bool
    dec_bijective: bool


def induced_h_maps(pi: TableHom, q: int) -> InducedMaps:
    """Contravariant matrices of pi^* on H^1 and on decomposable H^2.

    Column j of ``h1_matrix`` M1 holds the source coordinates of the pulled
    back target class a_j: pi^* a_j = Σ_u M1[u, j] b_u as functions on the
    source, b_u its H^1 basis (B^1 = 0 for trivial coefficients).  The
    decomposable part needs no cochain.  Lemma: with T the ``transform`` of
    the target ``dec_module`` and P the source ``pairing().values``, target
    class k is Σ_ij T[k, ij] a_i ∪ a_j, and pi^* commutes with the cup
    product on cochains, (a ∪ b)(pi g, pi h) = a(pi g) b(pi h), so

        pi^*(class k) = Σ_uv (Σ_ij T[k, ij] M1[u, i] M1[v, j]) b_u ∪ b_v,

    exactly, and its source coordinates are Σ_uv (...) P[u, v, l] modulo
    the order of source class l: the coordinates of b_u ∪ b_v are P[u, v].
    """
    src = GroupCohomology(pi.source, q)
    tgt = GroupCohomology(pi.target, q)
    # H^1: pull back each target basis hom and express in the source basis
    src_h1 = src.h1_space()
    tgt_h1 = tgt.h1_space()
    m, n = src_h1.dimension, tgt_h1.dimension
    m1 = np.zeros((m, n), dtype=np.int64)
    if m and n:
        stack = np.array(src_h1.basis, dtype=np.int64).T  # |G| x m
        pulled = np.array(tgt_h1.basis, dtype=np.int64)[:, pi.mapping]
        cols = solve_mod_many(stack, pulled.T, q)
        if any(x is None for x in cols):
            raise QcwError("internal error: pullback hom not in the source H^1")
        m1 = np.stack(cols, axis=1)
    h1_bij = _is_module_iso(m1, src_h1.invariants, tgt_h1.invariants, q)
    # decomposable H^2, by the lemma
    src_dec, tgt_dec = src.dec_module(), tgt.dec_module()
    T = tgt_dec.transform.reshape(tgt_dec.rank, n, n)
    coeffs = np.einsum("kij,ui->kuj", T, m1) % q
    coeffs = np.einsum("kuj,vj->kuv", coeffs, m1) % q
    P = src.pairing().values.reshape(m * m, src_dec.rank)
    m2 = (coeffs.reshape(tgt_dec.rank, m * m) @ P).T % np.array(src_dec.orders, dtype=np.int64)[:, None]
    dec_bij = _is_module_iso(m2, list(src_dec.orders), list(tgt_dec.orders), q)
    return InducedMaps(h1_matrix=m1, dec_matrix=m2, h1_bijective=h1_bij, dec_bijective=dec_bij)


def _is_module_iso(matrix: np.ndarray, src_orders, tgt_orders, q: int) -> bool:
    """Does the matrix (columns = images of target gens) hit all of the source?"""
    if sorted(src_orders) != sorted(tgt_orders):
        return False
    # surjective onto a finite module of the same order == bijective
    return math.prod(_span_invariants(matrix.T, src_orders, q)) == math.prod(src_orders)


def pairing_gram(G: GeneratorAction, q: int) -> PairingTensor:
    """Cup-product tensor of an H^1 basis in decomposable-H^2 coordinates."""
    return GroupCohomology(G, q).pairing()


# ---------------------------------------------------------------------------
# equivalence of pairing tensors


def _det_mod(M: np.ndarray, q: int) -> int:
    m = M.shape[0]
    total = 0
    for perm in itertools.permutations(range(m)):
        # permutation sign by counting inversions
        inv = sum(1 for i in range(m) for j in range(i + 1, m) if perm[i] > perm[j])
        sign = -1 if inv % 2 else 1
        term = sign
        for i in range(m):
            term *= int(M[i, perm[i]])
        total += term
    return total % q


def _invertible_matrices(m: int, q: int, cap: int):
    p, _ = prime_power(q)
    count = q ** (m * m)
    if count > cap:
        raise SizeLimitError(f"pairing equivalence search space {count} over bound")
    for entries in itertools.product(range(q), repeat=m * m):
        M = np.array(entries, dtype=np.int64).reshape(m, m)
        if _det_mod(M, q) % p != 0:
            yield M


def _module_automorphisms(orders: tuple[int, ...], q: int, cap: int) -> list[np.ndarray]:
    t = len(orders)
    if t == 0:
        return [np.zeros((0, 0), dtype=np.int64)]
    choices = []
    for i in range(t):
        for j in range(t):
            g = math.gcd(orders[i], orders[j])
            step = orders[i] // g
            choices.append([k * step for k in range(g)])
    total = 1
    for ch in choices:
        total *= len(ch)
        if total > cap:
            raise SizeLimitError("target automorphism search space over bound")
    size = math.prod(orders)
    out = []
    for combo in itertools.product(*choices):
        Q = np.array(combo, dtype=np.int64).reshape(t, t)
        # column j is the image of generator j; the endomorphism of a finite
        # module is bijective exactly when it is onto
        if math.prod(_span_invariants(Q.T, orders, q)) == size:
            out.append(Q)
    return out


def _canonical_target(tensor: PairingTensor) -> PairingTensor:
    order = np.argsort(np.array(tensor.target_orders), kind="stable")
    return PairingTensor(
        q=tensor.q,
        m=tensor.m,
        target_orders=tuple(tensor.target_orders[i] for i in order),
        values=tensor.values[:, :, order] if tensor.target_dim else tensor.values,
    )


def _span_invariants(vectors, orders, q: int) -> list[int]:
    """Sorted cyclic orders of the span of the rows inside the sum of the Z/o_i.

    Scaling coordinate i by q / o_i embeds Z/o_i in Z/q, so the span is
    measured as a submodule of (Z/q)^t.
    """
    t = len(orders)
    if t == 0:
        return []
    scale = np.array([q // o for o in orders], dtype=np.int64)
    rows = (np.asarray(vectors, dtype=np.int64).reshape(-1, t) * scale) % q
    # diag(p^e) = U rows V with U, V invertible, so the span is the sum of the p^e Z/q
    p, d = prime_power(q)
    return sorted(p ** (d - e) for e in diagonalize(rows, q).exps)


def _value_span_invariants(T: PairingTensor) -> list[int]:
    return _span_invariants(T.values.reshape(T.m * T.m, T.target_dim), T.target_orders, T.q)


def _target_solve(A: np.ndarray, B: np.ndarray, q: int) -> bool:
    """Is Q A = B for an invertible Q on the free target (Z/q)^t?

    A and B are t x n, one value per column.  One solve finds a Q, which is
    then verified; when the columns of A span the target the solution is
    unique, so its invertibility decides.
    """
    # row r of Q solves A.T x = B[r]; diagonalize pivots on A alone
    rows = solve_mod_many(A.T, B.T, q)
    if any(x is None for x in rows):
        return False
    Q = np.stack(rows)
    # Q is invertible iff its rows span the target
    t = len(Q)
    return _span_invariants(Q, (q,) * t, q) == [q] * t and bool(((Q @ A) % q == B).all())


def _identity_witness(T1: PairingTensor, T2: PairingTensor) -> bool:
    """Is T2 = Q T1 for an invertible Q, with the source basis kept?

    Only for a free target (every order q), where one target solve decides.
    A True is the verified equivalence (I, Q); a False says nothing about
    other source bases.
    """
    q, m, t = T1.q, T1.m, T1.target_dim
    if any(o != q for o in T1.target_orders):
        return False
    if m == 0 or t == 0:
        return True
    return _target_solve(T1.values.reshape(m * m, t).T % q, T2.values.reshape(m * m, t).T % q, q)


def pairings_equivalent(T1: PairingTensor, T2: PairingTensor, search_cap: int = 2_000_000) -> bool:
    """Equality of tensors up to invertible changes of source and target bases.

    The identity source change comes first (``_identity_witness``): the
    Kummer lemma of ``qcw.milnor.galois_model`` says why it is the natural
    one for the Milnor and cup tensors that ``compare`` matches, so those
    never reach the search.  Otherwise the search is exhaustive over source
    bases (m <= 4 enforced).  The target transform is found by a linear
    solve when the tensor values generate a free target (the case for all
    tensors produced in-repo); otherwise invertible target transforms are
    enumerated.
    """
    if T1.q != T2.q:
        raise DimensionMismatchError("tensors have different moduli")
    if T1.m != T2.m:
        return False
    if sorted(T1.target_orders) != sorted(T2.target_orders):
        return False
    if T1.m > 4:
        raise SizeLimitError("source dimension above the search bound 4")
    if _identity_witness(T1, T2):
        return True
    # sorted, so the same before and after _canonical_target
    span1 = _value_span_invariants(T1)
    if span1 != _value_span_invariants(T2):
        return False
    q, m = T1.q, T1.m
    T1, T2 = _canonical_target(T1), _canonical_target(T2)
    t = T1.target_dim
    if m == 0 or t == 0:
        return True
    orders = T1.target_orders
    full_span = len(span1) == t
    free_target = all(o == q for o in orders)
    solve_path = free_target and full_span
    if solve_path:
        autos = None
    elif free_target:
        autos = list(_invertible_matrices(t, q, search_cap))
    else:
        autos = _module_automorphisms(orders, q, search_cap)
    B = T2.values.reshape(m * m, t).T % q
    for P in _invertible_matrices(m, q, search_cap):
        S = np.einsum("ix,jy,ijt->xyt", P, P, T1.values) % q
        for k, o in enumerate(orders):
            S[:, :, k] %= o
        A = S.reshape(m * m, t).T % q
        if solve_path:
            if _target_solve(A, B, q):
                return True
        else:
            for Q in autos:
                QA = Q @ A
                good = True
                for k, o in enumerate(orders):
                    if ((QA[k] - B[k]) % o != 0).any():
                        good = False
                        break
                if good:
                    return True
    return False


def quadratic_hull(T: PairingTensor) -> PairingTensor:
    """Degree <= 2 quadratic hull: the target becomes the image of the pairing.

    The hull replaces the target by

        (A^1 (x) A^1 modulo the commutativity convention) / ker(values),

    i.e. by the image of the pairing on the (anti)symmetric square; for
    p = 2 the symmetric square includes the squares x (x) x, for odd p they
    are excluded (forced by graded anticommutativity).  Degrees >= 3 of the
    hull are not represented.
    """
    p, _ = prime_power(T.q)
    m, t = T.m, T.target_dim
    if p == 2:
        sym_pairs = [(i, j) for i in range(m) for j in range(i, m)]
    else:
        sym_pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    if t == 0 or not sym_pairs:
        return PairingTensor(q=T.q, m=m, target_orders=(), values=np.zeros((m, m, 0), dtype=np.int64))
    # embed the target Sum Z/o_k into (Z/q)^t by scaling coordinate k with
    # q/o_k, so Z/q-linear algebra sees the correct orders
    scale = np.array([T.q // o for o in T.target_orders], dtype=np.int64)
    flat = (T.values.reshape(m * m, t) * scale) % T.q
    image = QuotientModule(flat[[i * m + j for i, j in sym_pairs]], [], t, T.q)
    vals = image.coords_batch(flat).reshape(m, m, image.rank)
    return PairingTensor(q=T.q, m=m, target_orders=tuple(image.orders), values=vals)


def cohomology_record(space: CohomologySpace) -> dict:
    return {
        "degree": space.degree,
        "modulus": space.modulus,
        "dimension": space.dimension,
        "invariants": list(space.invariants),
        "basis_support_size": space.support_size,
    }
