"""Milnor K-theory mod q in degrees 1 and 2 for small concrete fields.

Supported field descriptors (all must contain the q-th roots of unity):

* finite fields F_s with s = ell^k and s = 1 (mod q): k1 = F*/(F*)^q is
  cyclic of order q on the generator g; bilinearity makes the symbols
  {g^a, g^b} the multiples ab {g, g} of one symbol, and k2 mod q is Z/q on
  {g, g} modulo one Steinberg relation {x, 1-x} = 0 per field element
  x != 0, 1 (the lemma is in ``_finite_symbol_algebra``).
* local fields Q_ell with ell prime, ell != p and q | ell - 1 (the tame
  case; for q = 2 every odd ell qualifies): k1 is free of rank 2 over Z/q
  on a unit class u and the uniformizer ell; k2 mod q = Z/q via the tame
  symbol

      {a, b} |-> ((-1)^{v(a) v(b)} a^{v(b)} / b^{v(a)})^((ell-1)/q)  in mu_q,

  which for q = 2 is the classical Hilbert symbol of Q_ell.  The residue
  field F_ell is a ``SmallField``, whose generator g0 is the least
  primitive root, and u = g0^cu.  The symbol is then the bilinear form

      {u^alpha ell^v, u^beta ell^w} = v w (ell - 1)/2 + cu (alpha w - beta v) mod q

  (``_LocalData.tame_exponent`` proves it), with the values 0, cu and
  (ell - 1)/2 mod q on (u, u), (u, ell) and (ell, ell).  Only cu and the
  k1 class of an integer need a logarithm in F_ell, by baby-step
  giant-step, so no step is linear in ell.
* the real field (q = 2 only): k1 = {+-1}, k2 = Z/2 generated by {-1,-1}
  (a sum of two negatives is never zero, so the Steinberg relation never
  kills it).

The identification mu_q = Z/q is fixed per field as zeta = g0^((ell-1)/q)
|-> 1 (local case), and -1 |-> 1 for the reals.  Unit classes are named by
least representatives: -1 when q = 2 and ell = 3 (mod 4), otherwise the
least integer generating the residue quotient.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .cohom import PairingTensor
from .errors import QcwError, UnsupportedFieldError
from .presentations import Presentation, Word
from .qcentral import SeriesParams
from .zqlinalg import is_prime, kernel_with_orders, prime_factors, prime_power

__all__ = [
    "FieldDescriptor",
    "SymbolAlgebra",
    "SmallField",
    "parse_field",
    "k1",
    "k2",
    "symbol_algebra",
    "milnor_pairing_gram",
    "galois_model",
]


# ---------------------------------------------------------------------------
# small finite fields with discrete logarithms


def _poly_mul(a, b, ell, modpoly):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % ell
    # reduce modulo the monic modpoly
    k = len(modpoly) - 1
    while len(out) > k:
        lead = out.pop()
        if lead:
            for i in range(k):
                out[-k + i] = (out[-k + i] - lead * modpoly[i]) % ell
    while len(out) < k:
        out.append(0)
    return tuple(out)


def _pow(base, e: int, mul, one):
    """base^e under mul by square-and-multiply, for e >= 0."""
    result = one
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        base = mul(base, base)
    return result


def _poly_gcd(a, b, ell):
    a, b = list(a), list(b)

    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, ell)
        while len(a) >= len(b):
            coef = (a[-1] * inv) % ell
            shift = len(a) - len(b)
            for i in range(len(b)):
                a[shift + i] = (a[shift + i] - coef * b[i]) % ell
            a = trim(a)
            if not a:
                break
        a, b = b, a
    return trim(a)


def _is_irreducible(modpoly, ell: int) -> bool:
    # f of degree k is irreducible iff x^(ell^k) = x mod f and
    # gcd(f, x^(ell^(k/r)) - x) = 1 for every prime r | k
    k = len(modpoly) - 1
    x = tuple(([0, 1] + [0] * (k - 2))[:k]) if k > 1 else (0,)
    one = tuple([1] + [0] * (k - 1))
    mul = lambda a, b: _poly_mul(a, b, ell, modpoly)
    if _pow(x, ell**k, mul, one) != x:
        return False
    for r in sorted(prime_factors(k)):
        xe = list(_pow(x, ell ** (k // r), mul, one))
        xe[1] = (xe[1] - 1) % ell  # subtract x
        g = _poly_gcd(modpoly, xe, ell)
        if len(g) != 1:
            return False
    return True


class SmallField:
    """F_s over a chosen multiplicative generator g, with discrete logs.

    g is the least element of multiplicative order s - 1, so for prime s it
    is the least primitive root.

    The full tables ``powers`` and ``dlog`` are built on first access.
    ``log`` and ``one_minus`` need neither: they find logarithms by
    baby-step giant-step, so a caller that reads a few elements pays
    O(sqrt(s)) multiplications, not s.  A caller that walks g^1, g^2, ...
    in order steps them with ``iter_powers``, one multiplication each,
    where ``element_of_exp`` powers each from scratch.
    """

    def __init__(self, s: int):
        ell, k = prime_power(s)
        self.s, self.ell, self.k = s, ell, k
        if k == 1:
            elems = range(1, s)
            mul = lambda a, b: (a * b) % ell
            one = 1
        else:
            import itertools

            modpoly = None
            for tail in itertools.product(range(ell), repeat=k):
                cand = list(tail) + [1]  # monic
                if _is_irreducible(cand, ell):
                    modpoly = cand
                    break
            if modpoly is None:
                raise QcwError(f"no irreducible polynomial found for F_{s}")
            self.modpoly = modpoly
            elems = (t for t in itertools.product(range(ell), repeat=k) if any(t))
            mul = lambda a, b: _poly_mul(a, b, ell, modpoly)
            one = tuple([1] + [0] * (k - 1))
        self.one = one
        self._mul = mul
        # generator: least element of multiplicative order s - 1
        factors = prime_factors(s - 1)
        gen = None
        for cand in elems:
            if all(_pow(cand, (s - 1) // r, mul, one) != one for r in factors):
                gen = cand
                break
        assert gen is not None
        self.generator = gen

    def iter_powers(self):
        """g^0, g^1, ..., g^(s-2), one multiplication each, made lazily."""
        x = self.one
        for _ in range(self.s - 1):
            yield x
            x = self._mul(x, self.generator)

    @functools.cached_property
    def powers(self) -> list:
        return list(self.iter_powers())  # powers[i] = g^i

    @functools.cached_property
    def dlog(self) -> dict:
        dlog = {x: i for i, x in enumerate(self.powers)}
        assert len(dlog) == self.s - 1
        return dlog

    def element_of_exp(self, i: int):
        return _pow(self.generator, i % (self.s - 1), self._mul, self.one)

    @functools.cached_property
    def _baby_steps(self) -> tuple[int, dict, object]:
        """n = ceil(sqrt(s - 1)), {g^j: j} for j < n, and the giant step g^-n."""
        n = math.isqrt(self.s - 2) + 1
        baby, x = {}, self.one
        for j in range(n):
            baby[x] = j
            x = self._mul(x, self.generator)
        return n, baby, self.element_of_exp(-n)

    def log(self, y) -> int:
        """The exponent e in [0, s - 1) with g^e = y, by baby-step
        giant-step: with e = k n + j, the first k for which y g^(-k n) is a
        baby step g^j."""
        n, baby, giant = self._baby_steps
        for k in range(n):
            if y in baby:
                return k * n + baby[y]
            y = self._mul(y, giant)
        raise QcwError(f"{y} is not a unit of F_{self.s}")

    def one_minus(self, a) -> int | None:
        """dlog(1 - a), or None when a = 1."""
        if self.k == 1:
            v = (1 - a) % self.ell
            return None if v == 0 else self.log(v)
        diff = tuple((self.one[j] - a[j]) % self.ell for j in range(self.k))
        return None if not any(diff) else self.log(diff)

    def generator_name(self) -> str:
        return str(self.generator) if self.k == 1 else "g"


# ---------------------------------------------------------------------------
# field descriptors


@dataclass(frozen=True)
class FieldDescriptor:
    """kind 'finite' (size), 'local' (residue prime ell), or 'real'."""

    kind: str
    params: SeriesParams
    size: int = 0
    ell: int = 0

    def __post_init__(self):
        q, p = self.params.q, self.params.p
        if self.kind == "finite":
            try:
                prime_power(self.size)
            except ValueError:
                raise UnsupportedFieldError(f"finite field size {self.size} is not a prime power")
            if self.size % q != 1:
                raise UnsupportedFieldError(
                    f"F_{self.size} lacks q-th roots of unity: need size = 1 mod {q}"
                )
        elif self.kind == "local":
            if not is_prime(self.ell):
                raise UnsupportedFieldError(f"residue characteristic {self.ell} is not prime")
            if self.ell == p:
                raise UnsupportedFieldError(
                    "local fields with residue characteristic p are out of scope (wild case)"
                )
            if (self.ell - 1) % q != 0:
                raise UnsupportedFieldError(
                    f"Q_{self.ell} lacks q-th roots of unity: need {q} | {self.ell - 1}"
                )
        elif self.kind == "real":
            if q != 2:
                raise UnsupportedFieldError("the real field only supports q = 2")
        else:
            raise UnsupportedFieldError(f"unknown field kind {self.kind!r}")

    def label(self) -> str:
        if self.kind == "finite":
            return f"Fq:{self.size}"
        if self.kind == "local":
            return f"Qp:{self.ell}"
        return "R"


def parse_field(text: str, params: SeriesParams) -> FieldDescriptor:
    """Parse 'Fq:<size>', 'Qp:<ell>' or 'R'."""
    text = text.strip()
    if text == "R":
        return FieldDescriptor(kind="real", params=params)
    if text.startswith("Fq:"):
        return FieldDescriptor(kind="finite", params=params, size=int(text[3:]))
    if text.startswith("Qp:"):
        return FieldDescriptor(kind="local", params=params, ell=int(text[3:]))
    raise UnsupportedFieldError(f"cannot parse field descriptor {text!r}")


# ---------------------------------------------------------------------------
# symbol algebras


@dataclass
class SymbolAlgebra:
    field: FieldDescriptor
    k1_basis: list[str]
    k1_orders: list[int]
    k2_pairs: list[tuple[int, int]]
    k2_relations: np.ndarray  # rows: relations among the pair symbols over Z/q
    k2_invariants: list[int]
    k2_values: np.ndarray  # (len(k2_pairs), len(k2_invariants)) coordinates

    @property
    def q(self) -> int:
        return self.field.params.q

    def _symbol_tensor(self) -> np.ndarray:
        """{e_i, e_j} in k2 coordinates for every pair of k1 basis vectors:
        the listed pair values, {e_j, e_i} = -{e_i, e_j} for the others,
        reduced mod the k2 orders."""
        m = len(self.k1_basis)
        vals = np.zeros((m, m, len(self.k2_invariants)), dtype=np.int64)
        for (i, j), v in zip(self.k2_pairs, self.k2_values):
            vals[j, i] = -v
            vals[i, j] = v
        return vals % np.asarray(self.k2_invariants, dtype=np.int64)

    def symbol(self, a, b) -> np.ndarray:
        """{a, b} for k1 coordinate vectors a, b, in k2 coordinates."""
        a = np.asarray(a, dtype=np.int64) % self.q
        b = np.asarray(b, dtype=np.int64) % self.q
        out = np.einsum("i,j,ijk->k", a, b, self._symbol_tensor())
        return out % np.asarray(self.k2_invariants, dtype=np.int64)

    def pairing(self) -> PairingTensor:
        """The k1 x k1 -> k2 symbol tensor in the k1 basis."""
        m = len(self.k1_basis)
        if m > 4:
            raise QcwError("k1 rank above the pairing bound")
        return PairingTensor(
            q=self.q, m=m, target_orders=tuple(self.k2_invariants), values=self._symbol_tensor()
        )

    def to_record(self) -> dict:
        return {
            "field": self.field.label(),
            "q": self.q,
            "k1_basis": list(self.k1_basis),
            "k1_orders": list(self.k1_orders),
            "k2_pairs": [list(p) for p in self.k2_pairs],
            "k2_relations": self.k2_relations.tolist(),
            "k2_invariants": list(self.k2_invariants),
            "k2_values": self.k2_values.tolist(),
        }


def _finite_symbol_algebra(desc: FieldDescriptor) -> SymbolAlgebra:
    """k2 mod q of F_s as Z/q on {g, g} modulo the Steinberg relations.

    Lemma.  On the q^2 symbol generators e_{a,b} = {g^a, g^b} (a, b mod q)
    the bilinearity rows e_{a+a2,b} - e_{a,b} - e_{a2,b} and
    e_{b,a+a2} - e_{b,a} - e_{b,a2} span exactly the kernel of
    phi: (Z/q)^{q^2} -> Z/q, e_{a,b} |-> ab mod q.  Proof: phi kills every
    row, since ((a + a2) mod q) b = ab + a2 b mod q.  Conversely the row with
    a = a2 = 0 gives e_{0,b} = 0, and the rows with a2 = 1 give
    e_{a,b} = e_{a-1,b} + e_{1,b}, so e_{a,b} = a e_{1,b}; in the second slot
    likewise e_{1,b} = b e_{1,1}.  So every v is phi(v) e_{1,1} modulo the
    rows, and v lies in their span when phi(v) = 0.

    Hence the bilinear symbols form Z/q on {g, g} = e_{1,1}, and the
    Steinberg symbol {g^i, 1 - g^i} = e_{i, dlog(1 - g^i)} is
    i dlog(1 - g^i) {g, g}.  With d the gcd of q and these multiples over
    every g^i != 1 (the pass stops once d = 1, which no later multiple can
    change), k2 is Z/q / (d) = Z/d: the relation row [d] on the single k1
    pair, the invariant d with {g, g} at coordinate 1 when d > 1, and no
    invariant when d = 1.  (K_2 of a finite field vanishes (Milnor 1970), so
    d = 1; a wrong dlog table shows as d > 1 instead of being assumed away.)
    """
    q = desc.params.q
    F = SmallField(desc.size)
    d = q
    powers = F.iter_powers()
    next(powers)  # g^0 = 1 has no Steinberg symbol
    for i, a in enumerate(powers, start=1):
        d = math.gcd(d, i * F.one_minus(a))
        if d == 1:
            break
    invariants = [d] if d > 1 else []
    return SymbolAlgebra(
        field=desc,
        k1_basis=[F.generator_name()],
        k1_orders=[q],
        k2_pairs=[(0, 0)],
        k2_relations=np.array([[d]], dtype=np.int64),
        k2_invariants=invariants,
        k2_values=np.ones((1, len(invariants)), dtype=np.int64),
    )


@dataclass
class _LocalData:
    ell: int
    q: int
    field: SmallField  # the residue field F_ell; its generator g0 is the least primitive root
    unit_rep: int  # least integer representative of the unit class u
    cu: int  # log_{g0}(u) mod q (a unit mod p)

    def tame_exponent(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        """Tame symbol of a = u^alpha ell^v and b = u^beta ell^w as a mu_q
        exponent: e = v w (ell - 1)/2 + cu (alpha w - beta v) mod q.

        Proof.  The symbol is the residue (-1)^(v w) a^w / b^v, raised to
        the power (ell - 1)/q.  The powers of ell cancel in a^w / b^v, so
        the residue is (-1)^(v w) u^(alpha w - beta v).  With u = g0^U
        (U = cu mod q) and -1 = g0^((ell - 1)/2) it is g0^E with
        E = v w (ell - 1)/2 + U (alpha w - beta v), and x |-> x^((ell-1)/q)
        sends g0^E to zeta^E, where zeta = g0^((ell - 1)/q) has order q.
        So the exponent is E mod q, which needs U only mod q.  On the basis
        the values are {u, u} = 0, {u, ell} = cu and {ell, ell} =
        (ell - 1)/2 mod q.
        """
        (alpha, v), (beta, w) = a, b
        return (v * w * ((self.ell - 1) // 2) + self.cu * (alpha * w - beta * v)) % self.q

    def class_of_integer(self, m: int) -> tuple[int, int]:
        """k1 coordinates (unit exponent, valuation) of a nonzero integer."""
        if m == 0:
            raise ValueError("zero has no class")
        v = 0
        while m % self.ell == 0:
            m //= self.ell
            v += 1
        alpha = (self.field.log(m % self.ell) * pow(self.cu, -1, self.q)) % self.q
        return alpha, v % self.q


def local_data(desc: FieldDescriptor) -> _LocalData:
    q, ell = desc.params.q, desc.ell
    p = desc.params.p
    F = SmallField(ell)
    if q == 2 and ell % 4 == 3:
        unit_rep = -1
    else:  # the least integer that is not a p-th power mod ell
        unit_rep = next(c for c in range(2, ell) if pow(c, (ell - 1) // p, ell) != 1)
    cu = F.log(unit_rep % ell) % q
    assert cu % p != 0
    return _LocalData(ell=ell, q=q, field=F, unit_rep=unit_rep, cu=cu)


def _local_symbol_algebra(desc: FieldDescriptor) -> SymbolAlgebra:
    q = desc.params.q
    L = local_data(desc)
    basis = [(1, 0), (0, 1)]  # u, ell
    pairs = [(0, 0), (0, 1), (1, 1)]
    values = np.array([[L.tame_exponent(basis[i], basis[j])] for i, j in pairs], dtype=np.int64)
    # k2 = Z/q: {u, ell} maps to a primitive root of unity, so it generates;
    # the relations are the kernel of (Z/q)^3 -> Z/q, never 0
    relation_rows = np.array([r for r, _ in kernel_with_orders(values.T, q)], dtype=np.int64)
    return SymbolAlgebra(
        field=desc,
        k1_basis=[str(L.unit_rep), str(desc.ell)],
        k1_orders=[q, q],
        k2_pairs=pairs,
        k2_relations=relation_rows,
        k2_invariants=[q],
        k2_values=values,
    )


def _real_symbol_algebra(desc: FieldDescriptor) -> SymbolAlgebra:
    # k1 = {1, -1}; {-1, -1} is nonzero: -x - y = 1 has no solution with
    # x, y > 0 ... i.e. a sum of two negative squares-classes never
    # represents 1, so Steinberg never degenerates the symbol
    values = np.array([[1]], dtype=np.int64)
    return SymbolAlgebra(
        field=desc,
        k1_basis=["-1"],
        k1_orders=[2],
        k2_pairs=[(0, 0)],
        k2_relations=np.zeros((0, 1), dtype=np.int64),
        k2_invariants=[2],
        k2_values=values,
    )


def symbol_algebra(desc: FieldDescriptor) -> SymbolAlgebra:
    if desc.kind == "finite":
        return _finite_symbol_algebra(desc)
    if desc.kind == "local":
        return _local_symbol_algebra(desc)
    if desc.kind == "real":
        return _real_symbol_algebra(desc)
    raise UnsupportedFieldError(desc.kind)


def k1(desc: FieldDescriptor) -> tuple[list[str], list[int]]:
    """k1 basis names and cyclic orders."""
    S = symbol_algebra(desc)
    return S.k1_basis, S.k1_orders


def k2(desc: FieldDescriptor) -> list[int]:
    """Cyclic invariants of k2 mod q."""
    return symbol_algebra(desc).k2_invariants


def milnor_pairing_gram(desc: FieldDescriptor) -> PairingTensor:
    """The k1 x k1 -> k2 symbol tensor in the chosen bases."""
    return symbol_algebra(desc).pairing()


def galois_model(desc: FieldDescriptor) -> Presentation:
    """Standard presentation of the maximal pro-p Galois group of the field.

    Imported facts: finite fields have procyclic absolute Galois group (free
    pro-p quotient of rank 1); Q_ell with ell != p has tame maximal pro-p
    quotient <s, t | s t s^-1 t^-ell>; the reals have Galois group of order
    2.  These are validated downstream by the K-theory comparison runs.

    The generators are listed so that generator i pairs with
    ``k1_basis[i]``: the Frobenius x with g for F_s; the Frobenius lift s
    (chosen, as in the tame presentation, to fix every ell^(1/n)) with the
    unit u and the inertia generator t with the uniformizer ell for Q_ell;
    complex conjugation x with -1 for R.

    Lemma (the natural source basis).  In these bases the identity is the
    source change of the natural isomorphism, up to one target change Q.
    Kummer theory sends a in k1 to chi_a(sigma) = sigma(a^(1/q)) / a^(1/q)
    in mu_q = Z/q.  On the generators: chi_g(x) = g^((s-1)/q) is primitive;
    u^(1/q) is unramified, so chi_u(t) = 1 and chi_u(s) = u^((ell-1)/q) =
    zeta^cu (``local_data``), primitive; s fixes ell^(1/q), so
    chi_ell(s) = 1, while t moves ell^(1/q) by a primitive q-th root; and
    chi_-1(x) = -1.  So chi_{a_i} = c_i x_i^* with units c_i, where x_i^*
    is the basis dual to the generators.  ``GroupCohomology.h1_space``
    returns exactly that dual basis when the gauge rows vanish mod q, which
    they do here: every relator has exponent sums 0 mod q (t: 1 - ell).
    So every relator lies in F^(2, q), and the relator lemma at
    ``cohom.relator_pairing`` reads the cup tensor in that same dual basis
    off the degree-2 Magnus terms of the relators, which is how ``compare``
    gets its group side.
    The norm-residue map {a, b} |-> chi_a cup chi_b is a target
    isomorphism, so the Milnor values are, up to it, c_i c_j (x_i^* cup
    x_j^*).  Graded commutativity gives x^* cup x^* = -(x^* cup x^*), so a
    diagonal value is 0 (p odd) or q/2 times a target vector (p = 2) and
    is fixed by every unit scalar, and the two off-diagonal values are
    negatives of each other.  With m <= 2 and a target of rank <= 1, the
    scalars c_i c_j therefore act as the one unit c_0 c_1 (1 when m = 1),
    which Q absorbs.  ``cohom.pairings_equivalent`` tries this witness
    before its GL_m search and verifies it, so its soundness does not rest
    on this lemma; the lemma is why consistent fields never reach the
    search.
    """
    if desc.kind == "finite":
        return Presentation(name="GF", generator_names=("x",), relators=())
    if desc.kind == "local":
        rel = Word(((0, 1), (1, 1), (0, -1), (1, -desc.ell)))
        return Presentation(name="GQ", generator_names=("s", "t"), relators=(rel,))
    if desc.kind == "real":
        return Presentation(name="GR", generator_names=("x",), relators=(Word(((0, 2),)),))
    raise UnsupportedFieldError(desc.kind)
