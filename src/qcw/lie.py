"""Hall bases and Witt ranks of free Lie rings, weights 1 to 3.

Only dimension counting is provided: the weight-w component of the free Lie
ring on n generators has rank

    witt_rank(n, w) = (1/w) * sum_{d | w} mu(d) * n^(w/d),

realized by the Hall basic commutators.  At weight 3 these are the brackets
[[x_j, x_i], x_k] with i < j and k >= i.

The one imported group-theoretic fact used downstream: for a free pro-p
group S of rank n and R = [S, [S, S]], the relation module R/R^p[R, S] has
F_p-rank witt_rank(n, 3), so a minimal presentation of S/R has that many
relators; equivalently dim H^2(S/R, F_p) = witt_rank(n, 3).  (Minimal
presentations of pro-p groups: see e.g. Serre, Galois Cohomology, I.4.3.)
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HallBasisEntry", "witt_rank", "hall_basis"]


@dataclass(frozen=True)
class HallBasisEntry:
    """A basic commutator; ``tree`` nests generator indices, e.g. ((1, 0), 0)."""

    weight: int
    tree: object

    def __str__(self) -> str:
        def render(t):
            if isinstance(t, int):
                return f"x{t + 1}"
            return f"[{render(t[0])},{render(t[1])}]"

        return render(self.tree)


def _mobius(n: int) -> int:
    out, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    if n > 1:
        out = -out
    return out


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def witt_rank(n: int, w: int) -> int:
    """Rank of the degree-w component of the free Lie ring on n generators."""
    if n < 0:
        raise ValueError("generator count must be >= 0")
    if w < 1:
        raise ValueError("weight must be >= 1")
    total = sum(_mobius(d) * n ** (w // d) for d in _divisors(w))
    assert total % w == 0
    return total // w


def hall_basis(n: int, w: int) -> list[HallBasisEntry]:
    """Hall basic commutators of weight w <= 3, in Hall order.

    Weight 2: [x_j, x_i] with i < j.  Weight 3: [[x_j, x_i], x_k] with i < j
    and k >= i (the Hall condition: the right factor is >= the inner right
    factor).
    """
    if w not in (1, 2, 3):
        raise ValueError("only weights 1, 2, 3 are supported")
    if w == 1:
        entries = [HallBasisEntry(1, i) for i in range(n)]
    elif w == 2:
        entries = [
            HallBasisEntry(2, (j, i)) for i in range(n) for j in range(i + 1, n)
        ]
    else:
        entries = [
            HallBasisEntry(3, ((j, i), k))
            for i in range(n)
            for j in range(i + 1, n)
            for k in range(i, n)
        ]
    assert len(entries) == witt_rank(n, w)
    return entries
