"""Front-end oracle: the former routes of relator images, commutators,
kernel pruning, tokens, the exponent of a quotient and Magnus terms.

qcw computes a word's image in E(n, q), a commutator, the token texts of a
file, the exponent of E(n, q)/N and the Magnus terms of a word by closed
forms (``qcw.qcentral``, ``qcw.presentations`` and ``qcw.realizability``).
The helpers here are the routes those replaced, kept as they were: a word
multiplied run by run with ``mul`` and ``power``, a commutator as the
product (v u)^-1 (u v), the pruning loop of ``third_quotient`` with a fresh
trial group per element, the tokenizer of (kind, text, offset) tuples with
the descent that read it, the exponent found by powering all |G| reduced
forms, and the Magnus recurrence on object-dtype arrays.  The file is a
helper module, not a test file: pytest does not collect it.
"""

import re

import numpy as np

from qcw import presentations
from qcw.errors import DimensionMismatchError, ParseError
from qcw.presentations import MAX_DEPTH, Presentation, Word, _commutator, _extend, _power
from qcw.qcentral import ClassTwoElement, ClassTwoGroup, _power_batch, universal_class2

# -- relator images, commutators and the pruning loop -------------------------


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


def commutator(group: ClassTwoGroup, u: ClassTwoElement, v: ClassTwoElement) -> ClassTwoElement:
    """[u, v] = u^-1 v^-1 u v, as the product (v u)^-1 (u v)."""
    return group.mul(group.inverse(group.mul(v, u)), group.mul(u, v))


def _saturate_with_commutators(group: ClassTwoGroup, seeds: list[ClassTwoElement]) -> list[ClassTwoElement]:
    # one round of [r, x_i] suffices: those commutators are central in class 2
    gens = group.generators()
    out, seen = [], set()
    for r in seeds:
        for elem in [r] + [commutator(group, r, x) for x in gens]:
            key = (elem.a, elem.c)
            if key not in seen and not elem.is_identity():
                seen.add(key)
                out.append(elem)
    return out


def third_quotient(pres, params, order_bound) -> ClassTwoGroup:
    """G^[3, q] of the presented group, realized as E(n, q) / N."""
    E = universal_class2(pres.rank, params, order_bound=order_bound)
    images = E.generators()
    seeds = [evaluate_word(r, images, E) for r in pres.relators]
    saturated = _saturate_with_commutators(E, seeds)
    pruned: list[ClassTwoElement] = []
    for g in sorted(saturated, key=lambda e: (e.a, e.c)):
        trial = ClassTwoGroup(params=params, n=pres.rank, kernel_basis=tuple(pruned))
        if not trial.contains_in_kernel(g):
            pruned.append(g)
    return ClassTwoGroup(params=params, n=pres.rank, kernel_basis=tuple(pruned))


# -- the exponent of E(n, q)/N and the Magnus terms -----------------------------


def _quotient_exponent(g: ClassTwoGroup) -> int:
    """Least p^e with g^(p^e) in N for every g in E: the exponent of E/N.

    Powers the |G| reduced forms at once and keeps, after each step, only
    the elements whose power is still outside N.  Generator orders alone
    would not do: at p = 2, <x, y | x^2, y^2> gives D4, of exponent 4.
    """
    A, C = g.elements()
    exponent = 1
    while True:
        RA, RC = g.reduce(A, C)
        outside = RA.any(axis=-1) | RC.any(axis=-1)
        if not outside.any():
            return exponent
        A, C = _power_batch(RA[outside], RC[outside], g.params.p, g.q, g.pairs)
        exponent *= g.params.p


def magnus_terms(w: Word, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Terms of degree 1, 2 and 3 of the Magnus expansion of a word, over Z.

    Returns object arrays of Python integers d1 (n), d2 (n x n) and
    d3 (n x n x n) with w = 1 + d1[i] X_i + d2[i, j] X_i X_j
    + d3[i, j, k] X_i X_j X_k + (degree >= 4), summed over the indices.  A
    run x_g^e is the factor (1 + X_g)^e = 1 + e X_g + C(e, 2) X_g^2
    + C(e, 3) X_g^3 for every integer e, and right multiplication by it
    only adds to entries whose last index is g.
    """
    d1 = np.zeros(n, dtype=object)
    d2 = np.zeros((n, n), dtype=object)
    d3 = np.zeros((n, n, n), dtype=object)
    for g, e in w.letters:
        g, e = int(g), int(e)
        b2, b3 = e * (e - 1) // 2, e * (e - 1) * (e - 2) // 6
        d3[:, :, g] += e * d2
        d3[:, g, g] += b2 * d1
        d3[g, g, g] += b3
        d2[:, g] += e * d1
        d2[g, g] += b2
        d1[g] += e
    return d1, d2, d3


# -- the tokenizer of (kind, text, offset) tuples and its descent ---------------

# one match per token, together with the whitespace and comments after it
_TOKEN_RE = re.compile(
    r"""(?: (?P<ident>[A-Za-z][A-Za-z0-9]*)
          | (?P<int>-?[0-9]+)
          | (?P<punct>[{}\[\](),;:^])
          | (?P<bad>.) )
        (?:[ \t\r\n]+|\#[^\n]*)*
    """,
    re.VERBOSE | re.DOTALL,
)
_SKIP_RE = re.compile(r"(?:[ \t\r\n]+|\#[^\n]*)*")


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) per token, ending in ("eof", "", len(text))."""
    tokens = [
        (m.lastgroup, m[m.lastindex], m.start())
        for m in _TOKEN_RE.finditer(text, _SKIP_RE.match(text).end())
    ]
    tokens.append(("eof", "", len(text)))
    return tokens


class _Fault(Exception):
    """A parse error at a character offset; parse_file adds line and column."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.message = message
        self.offset = offset


def _expect(tokens, i: int, want: str) -> None:
    text = tokens[i][1]
    if text != want:
        raise _Fault(f"expected {want!r}, got {text!r}", tokens[i][2])


def _expect_kind(tokens, i: int, kind: str) -> str:
    if tokens[i][0] != kind:
        raise _Fault(f"expected {kind!r}, got {tokens[i][1]!r}", tokens[i][2])
    return tokens[i][1]


def _parse_groups(tokens: list) -> list[Presentation]:
    budget = presentations.MAX_RUNS

    def spend(runs: int, what: str, offset: int) -> None:
        nonlocal budget
        if runs > budget:
            raise _Fault(
                f"{what} too long: the powers and commutators of this file "
                f"would build more than {presentations.MAX_RUNS} runs",
                offset,
            )
        budget -= runs

    def word(i: int, index: dict, depth: int) -> tuple[list, int]:
        runs: list[tuple[int, int]] = []
        start = i
        while True:
            kind, text, offset = tokens[i]
            if depth == MAX_DEPTH and text in ("[", "("):
                raise _Fault(f"brackets nested more than {MAX_DEPTH} deep", offset)
            if kind == "ident":
                g = index.get(text)
                if g is None:
                    raise _Fault(f"undeclared generator {text!r}", offset)
                if tokens[i + 1][1] == "^":
                    e = int(_expect_kind(tokens, i + 2, "int"))
                    i += 3
                else:
                    e = 1
                    i += 1
                if runs and runs[-1][0] == g:
                    e += runs.pop()[1]
                if e != 0:
                    runs.append((g, e))
                continue
            if text == "[":
                left, i = word(i + 1, index, depth + 1)
                _expect(tokens, i, ",")
                right, i = word(i + 1, index, depth + 1)
                _expect(tokens, i, "]")
                spend(2 * (len(left) + len(right)), "commutator", offset)
                base = _commutator(left, right)
            elif text == "(":
                base, i = word(i + 1, index, depth + 1)
                _expect(tokens, i, ")")
            elif i == start:
                raise _Fault(f"expected a generator, '[' or '(', got {text!r}", offset)
            else:
                return runs, i
            i += 1
            if tokens[i][1] == "^":
                k = int(_expect_kind(tokens, i + 1, "int"))
                caret = tokens[i][2]
                base = _power(base, k, lambda size: spend(size, "power", caret))
                i += 2
            _extend(runs, base)

    def group(i: int) -> tuple[Presentation, int]:
        _expect(tokens, i, "group")
        name = _expect_kind(tokens, i + 1, "ident")
        _expect(tokens, i + 2, "{")
        _expect(tokens, i + 3, "generators")
        _expect(tokens, i + 4, ":")
        i += 5
        if tokens[i][1] == ";":
            raise _Fault("empty generator list", tokens[i][2])
        gens = [_expect_kind(tokens, i, "ident")]
        i += 1
        while tokens[i][1] == ",":
            gens.append(_expect_kind(tokens, i + 1, "ident"))
            i += 2
        if len(set(gens)) != len(gens):
            raise _Fault(f"duplicate generator name in group {name!r}", tokens[i][2])
        _expect(tokens, i, ";")
        _expect(tokens, i + 1, "relators")
        _expect(tokens, i + 2, ":")
        i += 3
        index = {g: n for n, g in enumerate(gens)}
        relators = []
        if tokens[i][1] != ";":
            runs, i = word(i, index, 0)
            relators.append(Word(tuple(runs)))
            while tokens[i][1] == ",":
                runs, i = word(i + 1, index, 0)
                relators.append(Word(tuple(runs)))
        _expect(tokens, i, ";")
        _expect(tokens, i + 1, "}")
        pres = Presentation(name=name, generator_names=tuple(gens), relators=tuple(relators))
        return pres, i + 2

    groups = []
    i = 0
    while not groups or tokens[i][0] != "eof":
        pres, i = group(i)
        groups.append(pres)
    return groups


def _error(text: str, offset: int, message: str) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def parse_file(text: str) -> list[Presentation]:
    """Parse a file of one or more group blocks."""
    tokens = tokenize(text)
    try:
        return _parse_groups(tokens)
    except (_Fault, ValueError) as err:
        # an unexpected character anywhere comes first, as if the whole file
        # were tokenized before parsing
        bad = next((t for t in tokens if t[0] == "bad"), None)
        if bad is not None:
            raise _error(text, bad[2], f"unexpected character {bad[1]!r}") from None
        if isinstance(err, _Fault):
            raise _error(text, err.offset, err.message) from None
        raise
