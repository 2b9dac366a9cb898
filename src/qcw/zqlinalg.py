"""Linear algebra over Z/q with q = p^d.

Z/p^d is a chain ring: every nonzero element factors as unit * p^e, so
Gaussian elimination works verbatim provided pivots are chosen with minimal
p-valuation.  Everything here reduces to that one idea:

* ``diagonalize`` brings a matrix to diag(p^e1, p^e2, ...) by row and column
  operations (valuation-sorted, so e1 <= e2 <= ...), tracking the column
  transform and optionally its inverse and the row transform.
* ``kernel_with_orders`` / ``solve_mod`` / ``QuotientModule`` are the standard
  consequences, phrased so that callers get cyclic orders alongside vectors
  (for prime q all orders are q and everything collapses to F_p linear
  algebra).  ``QuotientModule`` reads the relations among its generators
  off one Howell form (below), so its basis, orders and coordinates depend
  only on the generators and the span of the relations.  When that form
  has unit pivots only, the module is free and is read off the form itself,
  without ``diagonalize``.
* ``RowSpace`` accumulates the row module of a stream of vectors in Howell
  form, the canonical echelon form over Z/p^d (for prime q the reduced row
  echelon form), built by one left-to-right column sweep with
  least-valuation pivots; it is the workhorse for the large, highly
  redundant 2-cocycle systems.
* Over F_2 (q = 2) the one sweep, ``_howell_sweep``, runs a bit-packed
  kernel (``_gf2_sweep``; Albrecht, Bard and Hart, "Algorithm 898", ACM
  TOMS 2010): rows packed 64 columns to a uint64 word, one OR-reduce per
  pivot to reach the next column with a candidate bit, one XOR over the
  rows with that bit.  Over F_2 the Howell form is the reduced row
  echelon form, which is unique, so the kernel returns exactly what the
  general sweep (``_general_sweep``) returns; the general sweep is its
  test oracle.

All vectors are numpy int64 arrays with entries in [0, q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def prime_factors(n: int) -> set[int]:
    out, k = set(), 2
    while k * k <= n:
        while n % k == 0:
            out.add(k)
            n //= k
        k += 1
    if n > 1:
        out.add(n)
    return out


def prime_power(q: int) -> tuple[int, int]:
    """Return (p, d) with q = p^d, p prime; raise ValueError otherwise."""
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    # the least factor, or q itself when none is at most sqrt(q)
    p = 2
    while q % p and p * p <= q:
        p += 1
    if q % p:
        p = q
    d, rest = 0, q
    while rest % p == 0:
        rest //= p
        d += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, d


def valuation(x: int, p: int, d: int) -> int:
    """p-valuation of x mod p^d; the zero class gets valuation d."""
    x = int(x)
    if x % p**d == 0:
        return d
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def unit_inverse(x: int, p: int, d: int) -> int:
    """For x = u * p^e mod p^d return u^{-1} mod p^d."""
    q = p**d
    e = valuation(x, p, d)
    if e >= d:
        raise ZeroDivisionError("zero has no unit part")
    u = (int(x) % q) // p**e
    return pow(u, -1, q)


def _as_matrix(rows, width: int, q: int) -> np.ndarray:
    """The rows reduced mod q as a new int64 matrix, a 1-D array as one row."""
    if not isinstance(rows, np.ndarray) and len(rows) == 0:
        return np.zeros((0, width), dtype=np.int64)
    # one allocation: asarray does not copy int64 input, and % makes the result
    m = np.asarray(rows, dtype=np.int64) % q
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.shape[1] != width:
        raise ValueError(f"expected width {width}, got {m.shape[1]}")
    return m


@dataclass
class Diagonalization:
    """D = U A V with D = diag(p^exps) padded by zeros; V columns tracked.

    U is not kept: ``carry``, when requested, is U applied to the caller's
    right-hand-side columns, so ``carry=np.eye(m)`` gives U itself.
    """

    q: int
    p: int
    d: int
    exps: list[int]
    V: np.ndarray
    Vinv: np.ndarray | None = None
    D: np.ndarray | None = None
    carry: np.ndarray | None = None


def _first_min_valuation(block: np.ndarray, p: int, d: int) -> tuple[int, int, int] | None:
    """(row, col, e) of the first entry of least p-valuation e in row-major order.

    Level e holds the nonzero entries of valuation <= e, those not divisible
    by p^(e+1); the first nonempty level is the least valuation.  Each level
    is scanned in row chunks of doubling size, so a hit near the top reads
    few rows and a miss reads the block once.  None when the block is zero.
    """
    for e in range(d):
        start, size = 0, 8
        while start < block.shape[0]:
            chunk = block[start : start + size]
            hit = chunk != 0 if e == d - 1 else chunk % p ** (e + 1) != 0
            rows = hit.any(axis=1)
            if rows.any():
                i = int(rows.argmax())
                return start + i, int(hit[i].argmax()), e
            start += size
            size *= 2
    return None


def diagonalize(A, q: int, want_Vinv: bool = False, carry=None) -> Diagonalization:
    """Diagonalize A over Z/q by row+column ops with valuation pivoting.

    Step r takes as pivot the first entry, in row-major order, of least
    p-valuation e in the block A[r:, r:], moves it to (r, r) and scales it to
    p^e.  Every entry of the block has valuation >= e, so row ops clear
    column r below the pivot and column ops clear row r to its right.

    Column-r invariant: once the row ops of step r are done, column r of A is
    p^e * e_r, because rows above r are already diagonal and rows below were
    just cleared.  On A the column ops therefore only set A[r, r+1:] to zero,
    which is done directly; V and Vinv get them in full.

    Cost per pivot, besides a row and a column swap: the pivot search reads
    the block's rows down to the first candidate, once per valuation level
    tried (one level for prime q, at most d); the row ops touch only the rows
    with a nonzero entry in column r and, in A, only the columns >= r where
    row r is nonzero (carry gets the same rows); the V update touches
    only the at most r + 1 rows where V[:, r] != 0 and the columns with a
    nonzero multiplier, and Vinv[r] sums only the rows with a nonzero
    multiplier.

    A and carry are copied and reduced mod q here, a 1-D A as one row and
    a 1-D carry as one column, so callers pass them as they are.
    """
    p, d = prime_power(q)
    A = np.array(A, dtype=np.int64) % q
    if A.ndim == 1:
        A = A.reshape(1, -1)
    m, n = A.shape
    V = np.eye(n, dtype=np.int64)
    Vinv = np.eye(n, dtype=np.int64) if want_Vinv else None
    if carry is not None:
        carry = np.array(carry, dtype=np.int64) % q
        if carry.ndim == 1:
            carry = carry.reshape(-1, 1)
        if carry.shape[0] != m:
            raise ValueError("carry must have one row per matrix row")
    exps: list[int] = []
    for r in range(min(m, n)):
        pivot = _first_min_valuation(A[r:, r:], p, d)
        if pivot is None:
            break
        bi, bj, e = pivot
        i, j = r + bi, r + bj
        if i != r:
            A[[r, i]] = A[[i, r]]
            if carry is not None:
                carry[[r, i]] = carry[[i, r]]
        if j != r:
            A[:, [r, j]] = A[:, [j, r]]
            V[:, [r, j]] = V[:, [j, r]]
            if Vinv is not None:
                Vinv[[r, j]] = Vinv[[j, r]]
        # A[r:, :r] is zero, so row r and the row ops need only columns >= r
        uinv = unit_inverse(A[r, r], p, d)
        A[r, r:] = (A[r, r:] * uinv) % q
        if carry is not None:
            carry[r] = (carry[r] * uinv) % q
        pe = p**e
        # clear the pivot column by row ops
        below = r + 1 + np.flatnonzero(A[r + 1 :, r])
        if below.size:
            mult = A[below, r] // pe
            cols = r + np.flatnonzero(A[r, r:])
            cell = np.ix_(below, cols)
            A[cell] = (A[cell] - np.outer(mult, A[r, cols])) % q
            if carry is not None:
                carry[below] = (carry[below] - np.outer(mult, carry[r])) % q
        # clear the pivot row: directly on A (column-r invariant), by column ops on V, Vinv
        right = r + 1 + np.flatnonzero(A[r, r + 1 :])
        if right.size:
            mult = A[r, right] // pe
            A[r, right] = 0
            rows = np.flatnonzero(V[:, r])
            cell = np.ix_(rows, right)
            V[cell] = (V[cell] - np.outer(V[rows, r], mult)) % q
            if Vinv is not None:
                Vinv[r] = (Vinv[r] + mult @ Vinv[right]) % q
        exps.append(e)
    return Diagonalization(q=q, p=p, d=d, exps=exps, V=V, Vinv=Vinv, D=A, carry=carry)


def kernel_with_orders(A, q: int) -> list[tuple[np.ndarray, int]]:
    """Generators (vector, cyclic order) of {x in (Z/q)^n : A x = 0}.

    The generators are independent: the kernel is the direct sum of the
    cyclic groups they span.
    """
    dg = diagonalize(A, q)
    p, d, n = dg.p, dg.d, len(dg.V)
    gens: list[tuple[np.ndarray, int]] = []
    for i, e in enumerate(dg.exps):
        if e == 0:
            continue  # unit pivot: coordinate forced to zero
        vec = (p ** (d - e) * dg.V[:, i]) % q
        gens.append((vec, p**e))
    for j in range(len(dg.exps), n):
        gens.append((dg.V[:, j] % q, q))
    return gens


def solve_mod_many(A, B, q: int) -> list[np.ndarray | None]:
    """Solutions of A x = b for every column b of B (None where unsolvable)."""
    dg = diagonalize(A, q, carry=B)
    p, n, C = dg.p, len(dg.V), dg.carry
    out: list[np.ndarray | None] = []
    for col in range(C.shape[1]):
        c = C[:, col]
        y = np.zeros(n, dtype=np.int64)
        good = True
        for i, e in enumerate(dg.exps):
            pe = p**e
            if c[i] % pe != 0:
                good = False
                break
            y[i] = c[i] // pe
        if good and (c[len(dg.exps) :] % q != 0).any():
            good = False
        out.append((dg.V @ y) % q if good else None)
    return out


def solve_mod(A, b, q: int) -> np.ndarray | None:
    """One solution x of A x = b over Z/q, or None."""
    return solve_mod_many(A, b, q)[0]


def cokernel_invariants(rels, width: int, q: int) -> list[int]:
    """Cyclic orders of (Z/q)^width / span(rels), 1-entries dropped."""
    p, d = prime_power(q)
    rels = _as_matrix(rels, width, q)
    dg = diagonalize(rels, q)
    inv = [p**e for e in dg.exps if e > 0]
    inv += [q] * (width - len(dg.exps))
    return inv


class QuotientModule:
    """The subquotient (span(gens) + span(rels)) / span(rels) of (Z/q)^width.

    Exposes independent cyclic generators (``basis`` rows with ``orders``),
    the coordinates of the given generators in that basis
    (``generator_coords``, one row each) and coordinates of arbitrary
    ambient vectors in it.

    The module is presented on the s given generators: it is (Z/q)^s / Λ
    with Λ = {λ : λ·gens ∈ span(rels)}.  Λ is read off one Howell form:
    the row span of [gens | I_s ; rels | 0] holds (λ·gens + μ·rels, λ), its
    elements that vanish on the first ``width`` columns are (0, λ) for λ in
    Λ, and by the Howell property they are spanned by the Howell rows with
    a pivot column >= width.  Those rows are the Howell form of Λ, unique
    for the module, and ``diagonalize`` of them gives the basis (``basis =
    transform @ gens``), the orders and ``generator_coords``.  So all of
    these depend only on gens and span(rels), not on which rows span it or
    in what order.

    Unit-pivot lemma.  When every Howell row of Λ has a unit pivot, the rows
    are a reduced row echelon form: row r has 1 at its pivot column
    lcols[r], 0 at the other pivot columns and left of lcols[r].  Then step
    r of ``diagonalize`` takes its pivot at row r's leading unit, without a
    row operation: the swaps of steps < r
    moved only pivot columns left, to positions < r, and free columns right
    of where they stood, so position lcols[r] still holds column lcols[r],
    and row r, zero at the other pivot columns, has no nonzero entry at an
    earlier position >= r.  The rows below are zero in that column, so no
    row operation runs, and the column operations only clear row r, which
    changes Vinv in row r alone.  So step r swaps positions r and lcols[r],
    every exponent is 0, and with ``at`` the identity permutation after
    those swaps and free = at[len(lcols):]: every order is q, ``transform``
    is the unit rows at ``free``, ``basis`` is gens[free], and
    ``generator_coords`` has 1 at a free generator's own slot and
    -Λ[ρ, free] mod q for the generator at pivot column lcols[ρ], as row ρ
    of Λ says that generator equals -Σ_f Λ[ρ, f] gens[f] modulo rels.
    """

    def __init__(self, gens, rels, width: int, q: int):
        self.q = q
        self.p, self.d = prime_power(q)
        self.width = width
        gens = _as_matrix(gens, width, q)
        rels = _as_matrix(rels, width, q)
        self.rels = rels
        s = gens.shape[0]
        # the Howell form of Λ: the rows of the sweep that vanish on the first width columns
        M = np.zeros((s + len(rels), width + s), dtype=np.int64)
        M[:s, :width] = gens
        M[np.arange(s), width + np.arange(s)] = 1
        M[s:, :width] = rels
        rows, cols, exps = _howell_sweep(M, self.p, self.d)
        in_lam = cols >= width
        lam, lcols = rows[in_lam, width:], cols[in_lam] - width
        if not exps[in_lam].any():
            # unit pivots: diagonalize would only swap columns (class docstring)
            at = list(range(s))  # at[position] = generator
            for r, c in enumerate(lcols.tolist()):
                at[r], at[c] = at[c], at[r]
            free = np.array(at[len(lcols) :], dtype=np.int64)
            self.orders = [q] * len(free)
            self.transform = np.zeros((len(free), s), dtype=np.int64)
            self.transform[np.arange(len(free)), free] = 1
            self.basis = gens[free]
            self.generator_coords = np.zeros((s, len(free)), dtype=np.int64)
            self.generator_coords[free, np.arange(len(free))] = 1
            self.generator_coords[lcols] = -lam[:, free] % q
            return
        dg = diagonalize(lam, q, want_Vinv=True)
        # Vinv @ gens generates the cyclic summands: the relations on them are
        # the rows of D = U P V, so summand i has order p^exps[i] (dropped when
        # that is 1) and the free ones order q
        kept = [i for i, e in enumerate(dg.exps) if e > 0] + list(range(len(dg.exps), s))
        self.orders = [self.p ** dg.exps[i] if i < len(dg.exps) else q for i in kept]
        self.transform = dg.Vinv[kept] % q
        self.basis = (self.transform @ gens) % q
        # gens = V (Vinv gens): row k of V holds generator k's coordinates
        self.generator_coords = dg.V[:, kept] % np.array(self.orders, dtype=np.int64)

    @property
    def rank(self) -> int:
        """Minimal number of generators (length of the invariant list)."""
        return len(self.orders)

    def coords_batch(self, vectors) -> np.ndarray:
        """Coordinates of many classes at once (one diagonalization pass)."""
        vectors = _as_matrix(vectors, self.width, self.q)
        t = len(self.orders)
        A = np.vstack([self.basis, self.rels]).T
        sols = solve_mod_many(A, vectors.T, self.q)
        out = np.zeros((len(vectors), t), dtype=np.int64)
        for k, x in enumerate(sols):
            if x is None:
                raise ValueError("vector not in the module")
            out[k] = [int(xi) % o for xi, o in zip(x[:t], self.orders)]
        return out

    def coords(self, v) -> np.ndarray:
        """Coordinates of the class of v in the basis, entry i mod orders[i].

        Raises ValueError if v is not in span(gens) + span(rels).
        """
        return self.coords_batch(np.asarray(v, dtype=np.int64).reshape(1, -1))[0]

    def contains_in_rels(self, v) -> bool:
        return solve_mod(self.rels.T, v, self.q) is not None


def _howell_sweep(M: np.ndarray, p: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Howell form (rows, pivot columns, pivot exponents) of the rows of M,
    which holds entries in [0, p^d) and may be overwritten: by ``_gf2_sweep``
    over F_2, else by ``_general_sweep``.  An empty M returns at once."""
    if not M.size:
        return M[:0], np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if (p, d) == (2, 1):
        return _gf2_sweep(M)
    return _general_sweep(M, p, d)


_BITS = [np.uint64(1 << b) for b in range(64)]


def _gf2_sweep(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_general_sweep`` at q = 2 on rows packed 64 columns to a word.

    Over F_2 the Howell form is the reduced row echelon form, which is
    unique, so this returns the general sweep's rows, pivot columns and
    (zero) exponents exactly.  Column c of M is bit c % 64 of word c // 64
    of its row.  The candidates (the rows not yet pivots) are zero left of
    the current column, so the lowest set bit of the OR of their current
    word is the next pivot column, and columns where no candidate has a
    bit cost nothing.  The first candidate with that bit is the pivot row:
    every row with the bit is XORed with it from the pivot's word on (the
    pivot row is zero left of it), which clears the bit everywhere, and
    the pivot row is then written back, swapped up to just below the
    earlier pivots.  A bit held by the pivot row alone needs only the swap.
    """
    n, w = M.shape
    words = -(-w // 64)
    bits = np.zeros((n, 64 * words), dtype=bool)
    bits[:, :w] = M
    W = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    k = 0  # W[:k] are the pivot rows so far, in column order; W[k:] the candidates
    cols: list[int] = []
    for j in range(words):
        while k < n:
            low = int(np.bitwise_or.reduce(W[k:, j]))
            if not low:
                break
            b = (low & -low).bit_length() - 1
            nz = (W[:, j] & _BITS[b]).nonzero()[0]
            r = int(nz[nz.searchsorted(k)])
            if r != k or len(nz) > 1:
                pivot = W[r, j:].copy()
                if len(nz) > 1:
                    W[nz, j:] ^= pivot
                W[r, j:] = W[k, j:]
                W[k, j:] = pivot
            cols.append(64 * j + b)
            k += 1
    rows = np.unpackbits(W[:k].view(np.uint8), axis=1, count=w, bitorder="little")
    return rows.astype(np.int64), np.array(cols, dtype=np.int64), np.zeros(k, dtype=np.int64)


def _general_sweep(M: np.ndarray, p: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Howell form (rows, pivot columns, pivot exponents) of the rows of M.

    One sweep over the columns; M holds entries in [0, p^d) and is
    overwritten, and the returned rows are a view of its top.  At column c
    the pivot is the first candidate (a row not yet a pivot) whose entry at
    c has least p-valuation e; it is scaled to p^e and swapped up to just
    below the earlier pivots.  Every other row with a nonzero entry x at c
    loses (x // p^e) times the pivot row: a candidate's x has valuation
    >= e, so it is cleared, and a pivot row above keeps x mod p^e.  For
    e > 0 the tail p^(d-e) * pivot row, which is zero at c, joins the
    candidates.  A column where no candidate is nonzero changes nothing, so
    the sweep jumps from it to the next column with a nonzero candidate
    entry (``_next_column``).
    """
    q = p**d
    n, w = M.shape
    k = 0  # M[:k] are the pivot rows so far, in column order; M[k:n] the candidates
    cols: list[int] = []
    exps: list[int] = []
    c = 0
    # with no candidates left, the columns to the right change nothing
    while c < w and k < n:
        nz = np.flatnonzero(M[:n, c])
        cand = nz[np.searchsorted(nz, k) :]
        if cand.size == 0:
            c = _next_column(M[k:n], c + 1)
            continue
        x = M[cand, c]
        e, pe = 0, 1
        hit = x % p != 0
        while not hit.any():
            e, pe = e + 1, pe * p
            hit = x % (pe * p) != 0
        r = int(cand[hit.argmax()])
        if r != k:
            M[[k, r]] = M[[r, k]]
            nz = np.where(nz == r, k, np.where(nz == k, r, nz))
        # the updates below touch only the pivot row's support (it is zero left of c)
        pc = np.flatnonzero(M[k])
        u = pow(int(M[k, c]) // pe, -1, q)
        if u != 1:
            M[k, pc] = M[k, pc] * u % q
        rest = nz[nz != k]
        if rest.size:
            cell = np.ix_(rest, pc)
            M[cell] = (M[cell] - np.outer(M[rest, c] // pe, M[k, pc])) % q
        cols.append(c)
        exps.append(e)
        if e:
            tail = M[k] * p ** (d - e) % q
            if tail.any():
                if n == len(M):
                    M = np.concatenate([M, np.zeros((max(16, n // 4), w), dtype=np.int64)])
                M[n] = tail
                n += 1
        k += 1
        c += 1
    return M[:k], np.array(cols, dtype=np.int64), np.array(exps, dtype=np.int64)


def _next_column(block: np.ndarray, c: int) -> int:
    """The first column >= c where ``block`` has a nonzero entry, else its
    width: read in column chunks of doubling width, as in
    ``_first_min_valuation``, so a gap of g columns costs log2(g) steps."""
    size = 8
    while c < block.shape[1]:
        hit = block[:, c : c + size].any(axis=0)
        if hit.any():
            return c + int(hit.argmax())
        c += size
        size *= 2
    return block.shape[1]


class RowSpace:
    """The submodule of (Z/q)^width spanned by streamed rows, in Howell form.

    Echelon invariant (Howell, "Spans in the module (Z_m)^s", 1986;
    Storjohann and Mulders, "Fast algorithms for linear algebra modulo N",
    1998): the rows are one int64 matrix; row i is zero left of its pivot
    column ``_cols[i]``, the pivot columns increase strictly, and the pivot
    entry is p^``_exps[i]``; every other row's entry in a pivot column lies
    in [0, p^e) for that pivot's e, so it is 0 above a unit pivot; and
    p^(d-e) * row i lies in the span of the rows below it.  This form is
    unique for the module, so the rows do not depend on the order or the
    chunking in which vectors arrive.  For prime q, and whenever every pivot
    is a unit, it is the reduced row echelon form.

    ``add_rows`` re-sweeps the stacked [rows; block] column by column
    (``_howell_sweep``).  A column costs one read over the stacked rows; a
    pivot updates only the rows with a nonzero entry in its column, and
    only on the columns where the pivot row is nonzero.  At q = 2 the
    sweep works on 64-column words, and costs per pivot, not per column.
    """

    def __init__(self, width: int, q: int):
        self.q = q
        self.p, self.d = prime_power(q)
        self.width = width
        self._rows = np.zeros((0, width), dtype=np.int64)
        self._cols = np.zeros(0, dtype=np.int64)
        self._exps = np.zeros(0, dtype=np.int64)

    @property
    def nrows(self) -> int:
        return len(self._rows)

    def rows_matrix(self) -> np.ndarray:
        return self._rows.copy()

    @property
    def unit_pivots(self) -> bool:
        """Is every pivot a unit (so that the rows are the reduced row echelon form)?"""
        return not self._exps.any()

    def add_rows(self, block) -> int:
        """Insert a block of rows; returns the number of new pivots."""
        block = _as_matrix(block, self.width, self.q)
        nonzero = block.any(axis=1)
        if not nonzero.all():
            block = block[nonzero]
        if not len(block):
            return 0
        before = self.nrows
        # the sweep may overwrite its input: block is this call's own copy
        stacked = np.vstack([self._rows, block]) if before else block
        self._rows, self._cols, self._exps = _howell_sweep(stacked, self.p, self.d)
        return self.nrows - before

    def add_row(self, v) -> bool:
        """Insert one vector; returns True if the row space grew."""
        grew = not self.contains(v)
        self.add_rows(np.asarray(v).reshape(1, -1))
        return grew

    def residual(self, v) -> np.ndarray:
        """v reduced by the rows in pivot order; zero exactly when v is in the span.

        Each pivot leaves v's entry in its column in [0, p^e), and later rows
        are zero there, so a nonzero remainder survives to the end.
        """
        v = np.asarray(v, dtype=np.int64) % self.q
        for row, c, e in zip(self._rows, self._cols, self._exps):
            x = int(v[c]) // self.p**e
            if x:
                v = (v - x * row) % self.q
        return v

    def contains(self, v) -> bool:
        return not self.residual(v).any()

    def kernel(self) -> list[tuple[np.ndarray, int]]:
        """Independent generators (vector, order) of {x : row . x = 0 for every row}."""
        if not self.unit_pivots:
            return kernel_with_orders(self._rows, self.q)
        return [(v, self.q) for v in rref_kernel(self._rows, self._cols, self.width, self.q)]


def rref_kernel(rows: np.ndarray, cols: np.ndarray, width: int, q: int) -> np.ndarray:
    """The kernel basis of a reduced row echelon form with unit pivots at
    ``cols``: one row per free column f, 1 at f, 0 at the other free
    columns and -rows[:, f] at the pivot columns."""
    free = np.ones(width, dtype=bool)
    free[cols] = False
    free = np.flatnonzero(free)
    K = np.zeros((len(free), width), dtype=np.int64)
    K[np.arange(len(free)), free] = 1
    K[:, cols] = -rows[:, free].T % q
    return K


def sorted_unique(a, return_inverse: bool = False):
    """``np.unique(a)`` of a 1-D array, or ``np.unique(a, axis=0)`` of the rows
    of a 2-D one, by one stable sort; the same output, without the import of
    ``numpy.ma`` that ``np.unique`` makes on its first call."""
    a = np.asarray(a)
    rows = a if a.ndim == 2 else a.reshape(-1, 1)
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    s = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (s[1:] != s[:-1]).any(axis=1)
    unique = s[new] if a.ndim == 2 else s[new, 0]
    if not return_inverse:
        return unique
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return unique, inverse
