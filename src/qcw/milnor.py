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

  which for q = 2 is the classical Hilbert symbol of Q_ell.
* the real field (q = 2 only): k1 = {+-1}, k2 = Z/2 generated by {-1,-1}
  (a sum of two negatives is never zero, so the Steinberg relation never
  kills it).

The identification mu_q = Z/q is fixed per field as zeta = g^((ell-1)/q)
|-> 1, where g is the least primitive root (local case), and -1 |-> 1 for
the reals.  Unit classes are named by least representatives: -1 when q = 2
and ell = 3 (mod 4), otherwise the least integer generating the residue
quotient.
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
# small finite fields with discrete-log tables


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


def _poly_pow_x(e: int, ell: int, modpoly) -> tuple:
    """x^e mod (modpoly, ell)."""
    k = len(modpoly) - 1
    result = tuple([1] + [0] * (k - 1))
    base = tuple(([0, 1] + [0] * (k - 2))[:k]) if k > 1 else (0,)
    while e:
        if e & 1:
            result = _poly_mul(result, base, ell, modpoly)
        e >>= 1
        base = _poly_mul(base, base, ell, modpoly)
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
    if _poly_pow_x(ell**k, ell, modpoly) != x:
        return False
    for r in sorted(prime_factors(k)):
        xe = list(_poly_pow_x(ell ** (k // r), ell, modpoly))
        xe[1] = (xe[1] - 1) % ell  # subtract x
        g = _poly_gcd(modpoly, xe, ell)
        if len(g) != 1:
            return False
    return True


class SmallField:
    """F_s over a chosen multiplicative generator g, with discrete logs.

    The full tables ``powers`` and ``dlog`` are built on first access.
    ``one_minus`` needs neither: it finds its logarithm by baby-step
    giant-step, so a caller that reads a few elements pays O(sqrt(s))
    multiplications, not s.  A caller that walks g^1, g^2, ... in order
    steps them with ``iter_powers``, one multiplication each, where
    ``element_of_exp`` powers each from scratch.
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
            if all(self._pow_raw(cand, (s - 1) // r, mul, one) != one for r in factors):
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

    @staticmethod
    def _pow_raw(base, e, mul, one):
        result = one
        while e:
            if e & 1:
                result = mul(result, base)
            e >>= 1
            base = mul(base, base)
        return result

    def element_of_exp(self, i: int):
        return self._pow_raw(self.generator, i % (self.s - 1), self._mul, self.one)

    @functools.cached_property
    def _baby_steps(self) -> tuple[int, dict, object]:
        """n = ceil(sqrt(s - 1)), {g^j: j} for j < n, and the giant step g^-n."""
        n = math.isqrt(self.s - 2) + 1
        baby, x = {}, self.one
        for j in range(n):
            baby[x] = j
            x = self._mul(x, self.generator)
        return n, baby, self.element_of_exp(-n)

    def _bsgs_dlog(self, y) -> int:
        """The exponent e in [0, s - 1) with g^e = y: with e = k n + j, the
        first k for which y g^(-k n) is a baby step g^j."""
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
            return None if v == 0 else self._bsgs_dlog(v)
        diff = tuple((self.one[j] - a[j]) % self.ell for j in range(self.k))
        return None if not any(diff) else self._bsgs_dlog(diff)

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

    def symbol(self, a, b) -> np.ndarray:
        """{a, b} for k1 coordinate vectors a, b, in k2 coordinates."""
        a = np.asarray(a, dtype=np.int64) % self.q
        b = np.asarray(b, dtype=np.int64) % self.q
        m = len(self.k1_basis)
        out = np.zeros(len(self.k2_invariants), dtype=np.int64)
        pair_index = {pr: k for k, pr in enumerate(self.k2_pairs)}
        for i in range(m):
            for j in range(m):
                if a[i] == 0 or b[j] == 0:
                    continue
                if (i, j) in pair_index:
                    val = self.k2_values[pair_index[(i, j)]]
                else:
                    val = -self.k2_values[pair_index[(j, i)]]
                out = out + a[i] * b[j] * val
        for t, o in enumerate(self.k2_invariants):
            out[t] %= o
        return out

    def pairing(self) -> PairingTensor:
        """The k1 x k1 -> k2 symbol tensor in the k1 basis."""
        m = len(self.k1_basis)
        if m > 4:
            raise QcwError("k1 rank above the pairing bound")
        eye = np.eye(m, dtype=np.int64)
        vals = np.zeros((m, m, len(self.k2_invariants)), dtype=np.int64)
        for i in range(m):
            for j in range(m):
                vals[i, j] = self.symbol(eye[i], eye[j])
        return PairingTensor(q=self.q, m=m, target_orders=tuple(self.k2_invariants), values=vals)

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


def _least_primitive_root(ell: int) -> int:
    factors = prime_factors(ell - 1)
    for g in range(2, ell):
        if all(pow(g, (ell - 1) // r, ell) != 1 for r in factors):
            return g
    raise QcwError(f"no primitive root mod {ell}")


@dataclass
class _LocalData:
    ell: int
    q: int
    g0: int  # least primitive root
    unit_rep: int  # integer representative of the unit class u
    unit_name: str
    cu: int  # dlog_{g0}(u) mod q (a unit mod p)

    def zeta(self) -> int:
        return pow(self.g0, (self.ell - 1) // self.q, self.ell)

    def dlog_mu(self, t: int) -> int:
        """Exponent e with zeta^e = t, for t in mu_q."""
        z = self.zeta()
        acc = 1
        for e in range(self.q):
            if acc == t % self.ell:
                return e
            acc = (acc * z) % self.ell
        raise QcwError("value not in mu_q")

    def tame_exponent(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        """Tame symbol of a = u^alpha ell^v, b likewise, as a mu_q exponent."""
        (aa, va), (ab, vb) = a, b
        residue = pow(-1, (va * vb) % 2, self.ell) * pow(
            self.unit_rep % self.ell, (aa * vb - ab * va) % (self.ell - 1), self.ell
        )
        t = pow(residue % self.ell, (self.ell - 1) // self.q, self.ell)
        return self.dlog_mu(t)

    def class_of_integer(self, m: int) -> tuple[int, int]:
        """k1 coordinates (unit exponent, valuation) of a nonzero integer."""
        if m == 0:
            raise ValueError("zero has no class")
        v = 0
        while m % self.ell == 0:
            m //= self.ell
            v += 1
        res = m % self.ell
        e = _dlog_mod(res, self.g0, self.ell)
        alpha = (e * pow(self.cu, -1, self.q)) % self.q
        return alpha, v % self.q


def _dlog_mod(x: int, g: int, ell: int) -> int:
    acc = 1
    for e in range(ell - 1):
        if acc == x % ell:
            return e
        acc = (acc * g) % ell
    raise QcwError("dlog failure")


def local_data(desc: FieldDescriptor) -> _LocalData:
    q, ell = desc.params.q, desc.ell
    p = desc.params.p
    g0 = _least_primitive_root(ell)
    if q == 2 and ell % 4 == 3:
        unit_rep, unit_name = -1, "-1"
    else:
        unit_rep = None
        for c in range(2, ell):
            if pow(c, (ell - 1) // p, ell) != 1:
                unit_rep, unit_name = c, str(c)
                break
        assert unit_rep is not None
    cu = _dlog_mod(unit_rep % ell, g0, ell) % q
    assert cu % p != 0
    return _LocalData(ell=ell, q=q, g0=g0, unit_rep=unit_rep, unit_name=unit_name, cu=cu)


def _local_symbol_algebra(desc: FieldDescriptor) -> SymbolAlgebra:
    q = desc.params.q
    L = local_data(desc)
    basis_coords = [(1, 0), (0, 1)]  # u, ell
    pairs = [(0, 0), (0, 1), (1, 1)]
    values = np.array(
        [[L.tame_exponent(basis_coords[i], basis_coords[j])] for i, j in pairs],
        dtype=np.int64,
    )
    # k2 = Z/q: {u, ell} maps to a primitive root of unity, so it generates
    rels = kernel_with_orders(values.T, q)
    relation_rows = (
        np.array([r for r, _ in rels], dtype=np.int64)
        if rels
        else np.zeros((0, len(pairs)), dtype=np.int64)
    )
    return SymbolAlgebra(
        field=desc,
        k1_basis=[L.unit_name, str(desc.ell)],
        k1_orders=[q, q],
        k2_pairs=pairs,
        k2_relations=relation_rows,
        k2_invariants=[q],
        k2_values=values % q,
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


def galois_model(desc: FieldDescriptor, params: SeriesParams | None = None) -> Presentation:
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
