"""Front-end oracle: the former run-by-run routes of relator images,
commutators, kernel pruning and tokens.

qcw computes a word's image in E(n, q), a commutator and the token texts of
a file by closed forms (``qcw.qcentral`` and ``qcw.presentations`` module
docstrings).  The helpers here are the routes those replaced, kept as they
were: a word multiplied run by run with ``mul`` and ``power``, a commutator
as the product (v u)^-1 (u v), the pruning loop of ``third_quotient`` with
a fresh trial group per element, and the tokenizer of (kind, text, offset)
tuples with the descent that read it.  The file is a helper module, not a
test file: pytest does not collect it.
"""

import re

from qcw import presentations
from qcw.errors import DimensionMismatchError, ParseError
from qcw.presentations import MAX_DEPTH, Presentation, Word, _commutator, _extend, _power
from qcw.qcentral import ClassTwoElement, ClassTwoGroup, universal_class2

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
