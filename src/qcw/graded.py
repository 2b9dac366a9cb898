"""Finite graded algebras in degrees <= 2 and their quadratic hulls.

A GradedAlgebra2 is a degree-1 module (Z/q)^dim1, a degree-2 module with
cyclic ``target_orders``, and the multiplication tensor of the degree-1
basis.  Two constructors package the degree <= 2 data of a group cohomology
ring (H^1, decomposable H^2, cup product) and of a Milnor K-ring mod q
(k1, k2, symbol).

The quadratic hull truncated to degree 2 replaces the degree-2 part by

    (A^1 (x) A^1 modulo the commutativity convention) / ker(mult),

i.e. by the image of the multiplication on the (anti)symmetric square; for
p = 2 the symmetric square includes the squares x (x) x, for odd p they are
excluded (forced by graded anticommutativity).  Degrees >= 3 of the hull
are not represented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohom import GroupCohomology, PairingTensor, pairings_equivalent
from .milnor import SymbolAlgebra
from .qcentral import FiniteGroupTable
from .zqlinalg import QuotientModule, prime_power

__all__ = [
    "GradedAlgebra2",
    "algebra_from_cohomology",
    "algebra_from_milnor",
    "quadratic_hull",
    "algebras_equivalent",
]


@dataclass
class GradedAlgebra2:
    """q, degree-1 dimension, degree-2 invariants, multiplication tensor."""

    q: int
    dim1: int
    target_orders: tuple[int, ...]
    mult: np.ndarray  # (dim1, dim1, dim2)

    @property
    def dim2(self) -> int:
        return len(self.target_orders)

    def pairing(self) -> PairingTensor:
        return PairingTensor(
            q=self.q, m=self.dim1, target_orders=self.target_orders, values=self.mult
        )

    def to_record(self) -> dict:
        return {
            "q": self.q,
            "dim1": self.dim1,
            "dim2": self.dim2,
            "mult": self.mult.tolist(),
        }


def algebra_from_cohomology(G: FiniteGroupTable, q: int) -> GradedAlgebra2:
    """H^1, decomposable H^2 and the cup product as a graded algebra."""
    ctx = GroupCohomology(G, q)
    tensor = ctx.pairing()
    return GradedAlgebra2(
        q=q, dim1=tensor.m, target_orders=tensor.target_orders, mult=tensor.values
    )


def algebra_from_milnor(S: SymbolAlgebra) -> GradedAlgebra2:
    """k1, k2 and the symbol map as a graded algebra."""
    tensor = S.pairing()
    return GradedAlgebra2(
        q=S.q, dim1=tensor.m, target_orders=tensor.target_orders, mult=tensor.values
    )


def quadratic_hull(A: GradedAlgebra2) -> GradedAlgebra2:
    """Degree <= 2 quadratic hull: degree 2 becomes the image of mult."""
    p, _ = prime_power(A.q)
    m, t = A.dim1, A.dim2
    if p == 2:
        sym_pairs = [(i, j) for i in range(m) for j in range(i, m)]
    else:
        sym_pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    if t == 0 or not sym_pairs:
        return GradedAlgebra2(
            q=A.q,
            dim1=m,
            target_orders=(),
            mult=np.zeros((m, m, 0), dtype=np.int64),
        )
    # embed the degree-2 module Sum Z/o_k into (Z/q)^t by scaling coordinate
    # k with q/o_k, so Z/q-linear algebra sees the correct orders
    scale = np.array([A.q // o for o in A.target_orders], dtype=np.int64)
    gens = [(A.mult[i, j] * scale) % A.q for (i, j) in sym_pairs]
    image = QuotientModule(gens, [], t, A.q)
    vals = np.zeros((m, m, image.rank), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            vals[i, j] = image.coords((A.mult[i, j] * scale) % A.q)
    return GradedAlgebra2(
        q=A.q, dim1=m, target_orders=tuple(image.orders), mult=vals
    )


def algebras_equivalent(A: GradedAlgebra2, B: GradedAlgebra2) -> bool:
    """Pairing equivalence of the two degree <= 2 algebras."""
    if A.q != B.q:
        return False
    return pairings_equivalent(A.pairing(), B.pairing())
