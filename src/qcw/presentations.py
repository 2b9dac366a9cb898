"""Group presentation DSL: parsing, words, free reduction, class-2 images, Magnus terms.

The textual format, bit-exact:

    file      := group+
    group     := "group" IDENT "{" "generators:" identlist ";" "relators:" wordlist? ";" "}"
    identlist := IDENT ("," IDENT)*
    wordlist  := word ("," word)*
    word      := factor+
    factor    := IDENT ("^" INT)? | "[" word "," word "]" ("^" INT)? | "(" word ")" ("^" INT)?
    INT       := "-"? [0-9]+

Whitespace is insignificant, "#" starts a line comment, and identifiers are
ASCII letters followed by ASCII alphanumerics.

Loading a file is one regex scan and one descent over the token texts.  The
scan is a ``findall`` over the text with every comment replaced by spaces of
the same length, so neither comments nor whitespace become tokens, and a
token's kind is read off its first character.  Offsets are computed only
when a ParseError is raised, by a ``finditer`` of the same regex over the
same text, and give its line and column.  An unexpected character anywhere
in the file is reported before any syntax error, as if the whole file were
tokenized first.

Words are stored as runs (generator index, exponent), so x^16 is a single
letter.  Each word is built as one list of runs and kept freely reduced as
it grows: its factors arrive reduced, so only their junctions can cancel.
Powers are compact: with w = c core c^-1 and core cyclically reduced,
w^k = c core^k c^-1, so (x y x^-1)^k is the three runs x y^k x^-1 for every
k.  A core of two or more runs is repeated, and that is bounded: the powers
and commutators of one file may build at most ``MAX_RUNS`` runs in all,
counted before anything is allocated, and the one that would pass the bound
raises ParseError at its "^" or "[".  Brackets and parentheses nest at most
``MAX_DEPTH`` deep.

The commutator bracket is left-normed and means

    [a, b] = a^-1 b^-1 a b

which is used consistently by every module downstream (in particular by the
collection rule of the class-2 normal form).

A presentation contributes to its level-3 quotient, its H^1 and its cup
tensor only through the image (a, c) of each relator in the free class-2
group F/gamma_3.  One walk computes it (``_class2_image``, O(n) a run), and
a ``Presentation`` keeps the images of its relators
(``Presentation.class2_images``), each relator walked once, at the first
read, whatever q is.  A ``Presentation`` refuses a relator whose generator
index lies outside [0, rank).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParseError

__all__ = [
    "Word",
    "Presentation",
    "parse_presentation",
    "parse_file",
    "serialize_presentation",
    "free_reduce",
    "is_trivial_in_free",
    "concat",
    "inverse",
    "power",
    "commutator",
    "magnus_terms",
    "free_presentation",
]


@dataclass(frozen=True)
class Word:
    """A word over generator indices, as runs of (index, exponent)."""

    letters: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        """Letter count with multiplicity (sum of |exponents|)."""
        return sum(abs(e) for _, e in self.letters)

    def runs(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class Presentation:
    name: str
    generator_names: tuple[str, ...]
    relators: tuple[Word, ...]

    @property
    def rank(self) -> int:
        return len(self.generator_names)

    @cached_property
    def class2_images(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """The image (a, c) over Z of each relator in F/gamma_3 (``_class2_image``),
        each relator walked once, at the first read."""
        return tuple(_class2_image(w, self.rank) for w in self.relators)

    def __post_init__(self):
        if len(set(self.generator_names)) != len(self.generator_names):
            raise ValueError("generator names must be distinct")
        for w in self.relators:
            # one pass over the runs, into the set of indices they use
            if {g for g, _ in w.letters}.difference(range(self.rank)):
                raise ValueError("relator references an undeclared generator")


def free_presentation(rank: int, name: str = "F") -> Presentation:
    names = tuple(f"x{i+1}" for i in range(rank))
    return Presentation(name=name, generator_names=names, relators=())


def _reduce(runs) -> list[tuple[int, int]]:
    """Free reduction of a run list: equal-generator neighbours merged, zeros dropped."""
    stack: list[tuple[int, int]] = []
    for run in runs:
        g, e = run
        if e == 0:
            continue
        if stack and stack[-1][0] == g:
            e += stack.pop()[1]
            if e != 0:
                stack.append((g, e))
        else:
            stack.append(run)
    return stack


def _extend(stack: list, runs: list) -> None:
    """stack := reduced stack . runs, for a reduced run list ``runs``.

    Only the junction can cancel: once a run of ``runs`` stays, the rest
    follows it unchanged.
    """
    for n, (g, e) in enumerate(runs):
        if not stack or stack[-1][0] != g:
            stack.extend(runs[n:])
            return
        e += stack.pop()[1]
        if e != 0:
            stack.append((g, e))
            stack.extend(runs[n + 1 :])
            return


def _inverse(runs) -> list[tuple[int, int]]:
    return [(g, -e) for g, e in reversed(runs)]


def _commutator(a: list, b: list) -> list[tuple[int, int]]:
    return _reduce(_inverse(a) + _inverse(b) + a + b)


def _power(runs: list, k: int, check=None) -> list[tuple[int, int]]:
    """The reduced run list of w^k, for w a reduced run list, built in one piece.

    Peeling mutually inverse end runs writes w = c core c^-1 with
    c = runs[:i] and core = runs[i:j+1].  A one-run core gives c x^(ak) c^-1.
    When the end runs of a longer core share their generator, w = c x^a M
    x^b c^-1 with a + b != 0, the cyclically reduced core is M x^(a+b), and
    w^k = c x^a (M x^(a+b))^(k-1) M x^b c^-1.  ``check`` is called with the
    run count of w^k before the list is built.
    """
    if k < 0:
        runs, k = _inverse(runs), -k
    if k == 0 or not runs:
        return []
    i, j = 0, len(runs) - 1
    while i < j and runs[i][0] == runs[j][0] and runs[i][1] == -runs[j][1]:
        i += 1
        j -= 1
    (g, a), (h, b) = runs[i], runs[j]
    if i == j:
        size = 1
    elif g != h:
        size = (j - i + 1) * k
    else:
        size = (j - i) * k + 1
    if check is not None:
        check(2 * i + size)
    if i == j:
        body = [(g, a * k)]
    elif g != h:
        body = runs[i : j + 1] * k
    else:
        middle = runs[i + 1 : j]
        body = [runs[i]] + (middle + [(g, a + b)]) * (k - 1) + middle + [runs[j]]
    return runs[:i] + body + runs[j + 1 :]


def free_reduce(w: Word) -> Word:
    """Unique reduced form: adjacent equal-generator runs merged, zeros dropped."""
    return Word(tuple(_reduce(w.letters)))


def is_trivial_in_free(w: Word) -> bool:
    return len(free_reduce(w).letters) == 0


def concat(*words: Word) -> Word:
    return Word(tuple(_reduce([run for w in words for run in w.letters])))


def inverse(w: Word) -> Word:
    return Word(tuple((g, -e) for g, e in reversed(w.letters)))


def power(w: Word, k: int) -> Word:
    """w^k, freely reduced, as c core^|k| c^-1: a single run when the core is one."""
    return Word(tuple(_power(_reduce(w.letters), k)))


def commutator(a: Word, b: Word) -> Word:
    """[a, b] = a^-1 b^-1 a b, freely reduced."""
    return concat(inverse(a), inverse(b), a, b)


# ---------------------------------------------------------------------------
# the class-2 image and the truncated Magnus expansion
#
# x_i -> 1 + X_i embeds the free group in the units of the power series
# ring Z<<X_1, ..., X_n>>, and w lies in gamma_k exactly when its terms of
# degree 1 .. k-1 vanish (Magnus, Karrass and Solitar, *Combinatorial Group
# Theory*, 5.5-5.7).  The terms of degree <= 2 are the class-2 image (a, c)
# of w (``_class2_image``): d1 = a, d2[j, i] = c_ij for i < j, and the
# rest follows from the identities d1_i d1_j = d2[i, j] + d2[j, i] (i != j)
# and d1_i^2 = 2 d2[i, i] + d1_i of the Magnus terms of a word (Chen, Fox
# and Lyndon, Ann. Math. 1958): d2[i, j] = a_i a_j - c_ij and
# d2[i, i] = C(a_i, 2).  So the class-2 image is the one walk that every
# degree <= 2 question reads, and ``magnus_terms`` is needed only for the
# degree-3 term of a word in gamma_3.


def _class2_image(w: Word, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The image (a, c) of w in the free class-2 group F/gamma_3, over Z.

    It is the normal form x_1^(a_1) ... x_n^(a_n) prod_{i<j} u_ij^(c_ij),
    u_ij = [x_j, x_i], with c in the pair order (0, 1), (0, 2), ..., (1, 2),
    ....  Collecting a run x_g^e onto a prefix (a, c) moves x_g^e left past
    x_j^(a_j) for each j > g, and the swap x_j^A x_g^B = x_g^B x_j^A u_gj^(A B)
    adds e a_j to c_gj: O(n) Python-integer operations a run, exact for
    every exponent.
    """
    a = [0] * n
    c = [[0] * n for _ in range(n)]
    for g, e in w.letters:
        row = c[g]
        for j in range(g + 1, n):
            row[j] += e * a[j]
        a[g] += e
    return tuple(a), tuple(c[i][j] for i in range(n) for j in range(i + 1, n))


def magnus_terms(w: Word, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Terms of degree 1, 2 and 3 of the Magnus expansion of a word, over Z.

    Returns object arrays of Python integers d1 (n), d2 (n x n) and
    d3 (n x n x n) with w = 1 + d1[i] X_i + d2[i, j] X_i X_j
    + d3[i, j, k] X_i X_j X_k + (degree >= 4), summed over the indices.  A
    run x_g^e is the factor (1 + X_g)^e = 1 + e X_g + C(e, 2) X_g^2
    + C(e, 3) X_g^3 for every integer e, and right multiplication by it
    only adds to entries whose last index is g.  The terms are kept in
    nested lists of Python integers, exact for every exponent, and turned
    into arrays once, at the end.
    """
    d1 = [0] * n
    d2 = [[0] * n for _ in range(n)]
    d3 = [[[0] * n for _ in range(n)] for _ in range(n)]
    for g, e in w.letters:
        g, e = int(g), int(e)
        b2, b3 = e * (e - 1) // 2, e * (e - 1) * (e - 2) // 6
        # degree 3 reads the degree-1 and degree-2 terms before this run
        for i in range(n):
            row, plane = d2[i], d3[i]
            for j in range(n):
                plane[j][g] += e * row[j]
            plane[g][g] += b2 * d1[i]
            row[g] += e * d1[i]
        d3[g][g][g] += b3
        d2[g][g] += b2
        d1[g] += e
    return (
        np.array(d1, dtype=object).reshape(n),
        np.array(d2, dtype=object).reshape(n, n),
        np.array(d3, dtype=object).reshape(n, n, n),
    )


# ---------------------------------------------------------------------------
# tokenizer / recursive-descent parser

# The powers and commutators of one file may build at most this many runs in
# all; the power or bracket that would pass it is refused with a ParseError.
# (x y)^(2^22), at the bound, parses in about a second into 64 MB of run list,
# and its level-3 quotient then takes about a minute.
MAX_RUNS = 1 << 23

# Brackets and parentheses may nest this deep.  Each level is one frame of the
# parser, so deeper input fails with a ParseError, not a RecursionError.
MAX_DEPTH = 500

# one match per token, group 1, with the whitespace before it; comments are
# blanked out before the scan
_TOKEN = re.compile(r"[ \t\r\n]*([{}\[\](),;:^]|[A-Za-z][A-Za-z0-9]*|-?[0-9]+|[^ \t\r\n])")
_COMMENT = re.compile(r"#[^\n]*")
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_DIGITS = frozenset("0123456789")
_PUNCT = frozenset("{}[](),;:^")


def _blank_comments(text: str) -> str:
    """The text with every comment replaced by as many spaces."""
    return _COMMENT.sub(lambda m: " " * len(m[0]), text)


def _token_texts(text: str) -> list[str]:
    """The token texts of a file, ending in "" for the end of the file."""
    texts = _TOKEN.findall(_blank_comments(text))
    texts.append("")
    return texts


def _kind(text: str) -> str:
    """"ident", "int", "punct", "bad" (an unexpected character) or "eof",
    read off the first character of a token text."""
    head = text[:1]
    if head in _LETTERS:
        return "ident"
    if head in _DIGITS or (head == "-" and len(text) > 1):
        return "int"
    if head in _PUNCT:
        return "punct"
    return "bad" if text else "eof"


class _Fault(Exception):
    """A parse error at a token index; parse_file adds line and column."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.message = message
        self.index = index


def _expect(texts, i: int, want: str) -> None:
    if texts[i] != want:
        raise _Fault(f"expected {want!r}, got {texts[i]!r}", i)


def _expect_kind(texts, i: int, kind: str) -> str:
    if _kind(texts[i]) != kind:
        raise _Fault(f"expected {kind!r}, got {texts[i]!r}", i)
    return texts[i]


def _parse_groups(texts: list) -> list[Presentation]:
    budget = MAX_RUNS

    def spend(runs: int, what: str, i: int) -> None:
        nonlocal budget
        if runs > budget:
            raise _Fault(
                f"{what} too long: the powers and commutators of this file "
                f"would build more than {MAX_RUNS} runs",
                i,
            )
        budget -= runs

    def word(i: int, index: dict, depth: int) -> tuple[list, int]:
        runs: list[tuple[int, int]] = []
        start = i
        while True:
            text = texts[i]
            g = index.get(text)
            if g is not None:
                if texts[i + 1] == "^":
                    e = int(_expect_kind(texts, i + 2, "int"))
                    i += 3
                else:
                    e = 1
                    i += 1
                if runs and runs[-1][0] == g:
                    e += runs.pop()[1]
                if e != 0:
                    runs.append((g, e))
                continue
            if depth == MAX_DEPTH and text in ("[", "("):
                raise _Fault(f"brackets nested more than {MAX_DEPTH} deep", i)
            if text == "[":
                opening = i
                left, i = word(i + 1, index, depth + 1)
                _expect(texts, i, ",")
                right, i = word(i + 1, index, depth + 1)
                _expect(texts, i, "]")
                spend(2 * (len(left) + len(right)), "commutator", opening)
                base = _commutator(left, right)
            elif text == "(":
                base, i = word(i + 1, index, depth + 1)
                _expect(texts, i, ")")
            elif _kind(text) == "ident":
                raise _Fault(f"undeclared generator {text!r}", i)
            elif i == start:
                raise _Fault(f"expected a generator, '[' or '(', got {text!r}", i)
            else:
                return runs, i
            i += 1
            if texts[i] == "^":
                k = int(_expect_kind(texts, i + 1, "int"))
                caret = i
                base = _power(base, k, lambda size: spend(size, "power", caret))
                i += 2
            _extend(runs, base)

    def group(i: int) -> tuple[Presentation, int]:
        _expect(texts, i, "group")
        name = _expect_kind(texts, i + 1, "ident")
        _expect(texts, i + 2, "{")
        _expect(texts, i + 3, "generators")
        _expect(texts, i + 4, ":")
        i += 5
        if texts[i] == ";":
            raise _Fault("empty generator list", i)
        gens = [_expect_kind(texts, i, "ident")]
        i += 1
        while texts[i] == ",":
            gens.append(_expect_kind(texts, i + 1, "ident"))
            i += 2
        if len(set(gens)) != len(gens):
            raise _Fault(f"duplicate generator name in group {name!r}", i)
        _expect(texts, i, ";")
        _expect(texts, i + 1, "relators")
        _expect(texts, i + 2, ":")
        i += 3
        index = {g: n for n, g in enumerate(gens)}
        relators = []
        if texts[i] != ";":
            runs, i = word(i, index, 0)
            relators.append(Word(tuple(runs)))
            while texts[i] == ",":
                runs, i = word(i + 1, index, 0)
                relators.append(Word(tuple(runs)))
        _expect(texts, i, ";")
        _expect(texts, i + 1, "}")
        pres = Presentation(name=name, generator_names=tuple(gens), relators=tuple(relators))
        return pres, i + 2

    groups = []
    i = 0
    while not groups or texts[i] != "":
        pres, i = group(i)
        groups.append(pres)
    return groups


def _error(text: str, index: int, message: str) -> ParseError:
    """The ParseError at token ``index`` (the end of the file past the last
    token): its offset comes from the same scan that gave the token texts."""
    offsets = [m.start(1) for m in _TOKEN.finditer(_blank_comments(text))]
    offset = offsets[index] if index < len(offsets) else len(text)
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def parse_file(text: str) -> list[Presentation]:
    """Parse a file of one or more group blocks."""
    texts = _token_texts(text)
    try:
        return _parse_groups(texts)
    except (_Fault, ValueError) as err:
        # an unexpected character anywhere comes first, as if the whole file
        # were tokenized before parsing
        bad = next((i for i, t in enumerate(texts) if _kind(t) == "bad"), None)
        if bad is not None:
            raise _error(text, bad, f"unexpected character {texts[bad]!r}") from None
        if isinstance(err, _Fault):
            raise _error(text, err.index, err.message) from None
        raise


def parse_presentation(text: str) -> Presentation:
    """Parse text containing exactly one group block."""
    groups = parse_file(text)
    if len(groups) != 1:
        raise ParseError(f"expected exactly one group, found {len(groups)}", 1, 1)
    return groups[0]


def serialize_word(w: Word, names: tuple[str, ...]) -> str:
    if not w.letters:
        # the grammar has no empty word; x x^-1 is the canonical spelling
        return f"{names[0]} {names[0]}^-1" if names else "()"
    parts = []
    for g, e in w.letters:
        parts.append(names[g] if e == 1 else f"{names[g]}^{e}")
    return " ".join(parts)


def serialize_presentation(pres: Presentation) -> str:
    """Emit the DSL text; parse(serialize(p)) == p on the abstract syntax."""
    gens = ", ".join(pres.generator_names)
    rels = ", ".join(serialize_word(w, pres.generator_names) for w in pres.relators)
    return f"group {pres.name} {{ generators: {gens}; relators: {rels}; }}"
