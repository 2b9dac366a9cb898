import os
import random
import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcw.presentations
from qcw.errors import ParseError
from qcw.presentations import (
    MAX_DEPTH,
    MAX_RUNS,
    Presentation,
    Word,
    commutator,
    concat,
    free_reduce,
    inverse,
    is_trivial_in_free,
    parse_file,
    parse_presentation,
    power,
    serialize_presentation,
)
import front_oracle


def w(*letters):
    return Word(tuple(letters))


def test_parse_free_rank_one():
    p = parse_presentation("group T { generators: x; relators: ; }")
    assert p.name == "T"
    assert p.generator_names == ("x",)
    assert p.relators == ()


def test_parse_class2_relators():
    p = parse_presentation("group G { generators: x,y; relators: [x,[x,y]], [y,[x,y]]; }")
    assert len(p.relators) == 2
    # hand expansion with [a,b] = a^-1 b^-1 a b:
    # [x,[x,y]] -> x^-1 y^-1 x^-1 y x y^-1 x y          (8 letters, one cancellation)
    # [y,[x,y]] -> y^-2 x^-1 y x y x^-1 y^-1 x y        (10 letters)
    assert p.relators[0] == w((0, -1), (1, -1), (0, -1), (1, 1), (0, 1), (1, -1), (0, 1), (1, 1))
    assert p.relators[1] == w((1, -2), (0, -1), (1, 1), (0, 1), (1, 1), (0, -1), (1, -1), (0, 1), (1, 1))
    assert sorted(len(r) for r in p.relators) == [8, 10]
    for r in p.relators:
        assert free_reduce(r) == r


def test_parse_undeclared_generator():
    with pytest.raises(ParseError, match="undeclared generator 'z'"):
        parse_presentation("group B { generators: x; relators: [x,z]; }")


def test_parse_empty_generator_list():
    with pytest.raises(ParseError, match="empty generator list"):
        parse_presentation("group B { generators: ; relators: ; }")


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_presentation("group B {\n generators: x\n relators: ; }")
    assert err.value.line == 3


def test_parse_powers_and_parens():
    p = parse_presentation("group P { generators: x,y; relators: x^16, (x y)^2, [x,y]^-1; }")
    assert p.relators[0] == w((0, 16))
    assert p.relators[1] == w((0, 1), (1, 1), (0, 1), (1, 1))
    assert p.relators[2] == inverse(commutator(w((0, 1)), w((1, 1))))


def test_parse_comments_and_multigroup():
    text = """
    # two groups in one file
    group A { generators: x; relators: x^4; }
    group B { generators: s, t; # tame relator
              relators: s t s^-1 t^-3; }
    """
    groups = parse_file(text)
    assert [g.name for g in groups] == ["A", "B"]
    assert groups[1].relators[0] == w((0, 1), (1, 1), (0, -1), (1, -3))


def test_free_reduce_examples():
    assert free_reduce(w((0, 1), (0, -1))) == w()
    assert free_reduce(w((0, 2), (0, 3), (1, 0))) == w((0, 5))
    c = commutator(w((0, 1)), w((1, 1)))
    assert c == w((0, -1), (1, -1), (0, 1), (1, 1))
    assert free_reduce(c) == c


def test_is_trivial_in_free():
    assert is_trivial_in_free(w((0, 1), (1, 1), (1, -1), (0, -1)))
    assert not is_trivial_in_free(commutator(w((0, 1)), commutator(w((0, 1)), w((1, 1)))))
    assert is_trivial_in_free(w())


def random_word(rng, ngens=3, maxruns=6):
    return Word(
        tuple(
            (rng.randrange(ngens), rng.choice([-3, -2, -1, 1, 2, 3]))
            for _ in range(rng.randint(0, maxruns))
        )
    )


def test_free_reduce_idempotent_and_nonincreasing():
    rng = random.Random(0)
    for _ in range(200):
        word = random_word(rng)
        red = free_reduce(word)
        assert free_reduce(red) == red
        assert len(red) <= len(word)


def test_commutator_length_bound():
    rng = random.Random(1)
    for _ in range(200):
        a, b = free_reduce(random_word(rng)), free_reduce(random_word(rng))
        assert len(commutator(a, b)) <= 4 * (len(a) + len(b))


def test_power_of_run_is_single_letter():
    assert power(w((0, 1)), 16) == w((0, 16))
    assert power(w((0, 2)), -3) == w((0, -6))
    assert power(w((0, 1), (1, 1)), 0) == w()


def test_concat_reduces():
    a = w((0, 1), (1, 1))
    assert concat(a, inverse(a)) == w()


def test_serialize_roundtrip():
    texts = [
        "group T { generators: x; relators: ; }",
        "group G { generators: x,y; relators: [x,[x,y]], [y,[x,y]]; }",
        "group D { generators: s,t; relators: s t s^-1 t^-3; }",
        "group P { generators: a,b,c; relators: a^4, (a b)^2 c, [a,b]^2; }",
        "group E { generators: x; relators: x x^-1; }",
    ]
    for text in texts:
        p1 = parse_presentation(text)
        p2 = parse_presentation(serialize_presentation(p1))
        assert p1 == p2


def test_power_of_a_conjugate_is_compact():
    # (x y x^-1)^k = x y^k x^-1 and (x^2 y x^3)^k = x^2 (y x^5)^(k-1) y x^3
    assert power(w((0, 1), (1, 1), (0, -1)), 300000000) == w((0, 1), (1, 300000000), (0, -1))
    assert power(w((0, 2), (1, 1), (0, 3)), 3) == w((0, 2), (1, 1), (0, 5), (1, 1), (0, 5), (1, 1), (0, 3))
    assert power(w((0, 2), (1, 1), (0, 3)), -1) == w((0, -3), (1, -1), (0, -2))


RUNS = st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 3)), max_size=6).map(lambda r: Word(tuple(r)))


@settings(max_examples=400, deadline=None)
@given(c=RUNS, core=RUNS, k=st.integers(-6, 6), conjugate=st.booleans())
def test_power_is_repeated_concatenation(c, core, k, conjugate):
    # words of the form c core c^-1 exercise the conjugator split of power
    word = concat(c, core, inverse(c)) if conjugate else core
    base = word if k >= 0 else inverse(word)
    assert power(word, k) == free_reduce(concat(*[base] * abs(k))) == _ref_power(word, k)


# ---------------------------------------------------------------------------
# the former tokenizer and parser, kept as an oracle for parse_file

_REF_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<comment>\#[^\n]*)
      | (?P<ident>[A-Za-z][A-Za-z0-9]*)
      | (?P<int>-?[0-9]+)
      | (?P<punct>[{}\[\](),;:^])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _RefToken:
    kind: str
    text: str
    line: int
    col: int


def _ref_tokenize(text):
    tokens = []
    pos, line, linestart = 0, 1, 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - linestart + 1)
        kind = m.lastgroup
        value = m.group()
        if kind in ("ws", "comment"):
            nl = value.count("\n")
            if nl:
                line += nl
                linestart = m.start() + value.rindex("\n") + 1
        else:
            tokens.append(_RefToken(kind, value, line, m.start() - linestart + 1))
        pos = m.end()
    tokens.append(_RefToken("eof", "", line, len(text) - linestart + 1))
    return tokens


def _ref_reduce(letters):
    stack = []
    for g, e in letters:
        if e == 0:
            continue
        if stack and stack[-1][0] == g:
            merged = stack[-1][1] + e
            stack.pop()
            if merged != 0:
                stack.append((g, merged))
        else:
            stack.append((g, e))
    return Word(tuple(stack))


def _ref_concat(*words):
    return _ref_reduce([letter for word in words for letter in word.letters])


def _ref_inverse(word):
    return Word(tuple((g, -e) for g, e in reversed(word.letters)))


def _ref_power(word, k):
    if k == 0:
        return Word(())
    base = word if k > 0 else _ref_inverse(word)
    return _ref_concat(*([base] * abs(k)))


class _RefParser:
    def __init__(self, text):
        self.tokens = _ref_tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind, text=None):
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            self.fail(f"expected {want!r}, got {tok.text!r}")
        return self.next()

    def parse_file(self):
        groups = [self.parse_group()]
        while self.peek().kind != "eof":
            groups.append(self.parse_group())
        return groups

    def parse_group(self):
        self.expect("ident", "group")
        name = self.expect("ident").text
        self.expect("punct", "{")
        self.expect("ident", "generators")
        self.expect("punct", ":")
        if self.peek().kind == "punct" and self.peek().text == ";":
            self.fail("empty generator list")
        gens = [self.expect("ident").text]
        while self.peek().text == ",":
            self.next()
            gens.append(self.expect("ident").text)
        if len(set(gens)) != len(gens):
            self.fail(f"duplicate generator name in group {name!r}")
        self.expect("punct", ";")
        index = {g: i for i, g in enumerate(gens)}
        self.expect("ident", "relators")
        self.expect("punct", ":")
        relators = []
        if not (self.peek().kind == "punct" and self.peek().text == ";"):
            relators.append(self.parse_word(index))
            while self.peek().text == ",":
                self.next()
                relators.append(self.parse_word(index))
        self.expect("punct", ";")
        self.expect("punct", "}")
        return Presentation(name=name, generator_names=tuple(gens), relators=tuple(relators))

    def parse_word(self, index):
        factors = [self.parse_factor(index)]
        while True:
            tok = self.peek()
            if tok.kind == "ident" or (tok.kind == "punct" and tok.text in "[("):
                factors.append(self.parse_factor(index))
            else:
                break
        return _ref_concat(*factors)

    def parse_factor(self, index):
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            if tok.text not in index:
                raise ParseError(f"undeclared generator {tok.text!r}", tok.line, tok.col)
            base = Word(((index[tok.text], 1),))
        elif tok.kind == "punct" and tok.text == "[":
            self.next()
            left = self.parse_word(index)
            self.expect("punct", ",")
            right = self.parse_word(index)
            self.expect("punct", "]")
            base = _ref_concat(_ref_inverse(left), _ref_inverse(right), left, right)
        elif tok.kind == "punct" and tok.text == "(":
            self.next()
            base = self.parse_word(index)
            self.expect("punct", ")")
        else:
            self.fail(f"expected a generator, '[' or '(', got {tok.text!r}")
        if self.peek().kind == "punct" and self.peek().text == "^":
            self.next()
            exp = int(self.expect("int").text)
            return _ref_power(base, exp)
        return base


def reference_parse_file(text):
    return _RefParser(text).parse_file()


def outcome(parse, text):
    """The parse result, or the error's type, message, line and column."""
    try:
        return parse(text)
    except (ParseError, ValueError) as err:
        return type(err).__name__, str(err), getattr(err, "line", None), getattr(err, "col", None)


# whitespace between tokens; a comment runs to the end of its line
SPACES = ["", "", " ", "\t", "\n", "\r\n", "\r", " # [x, (y)^-2 \n", "#\n"]
EXPONENTS = [None, None, None, -3, -2, -1, 0, 1, 2, 3]


@st.composite
def presentation_files(draw):
    """One to three group blocks with nested words and random spacing.

    The text is built from one drawn seed: drawing every token and space
    separately made generation about ten times slower.
    """
    rng = draw(st.randoms(use_true_random=False))

    def sep():
        return rng.choice(SPACES)

    def gap():  # where tokens would run together without it
        return rng.choice(SPACES[2:])

    def power():
        e = rng.choice(EXPONENTS)
        return "" if e is None else f"{sep()}^{sep()}{e}"

    def word(names, depth):
        return gap().join(factor(names, depth) for _ in range(rng.randint(1, 3)))

    def factor(names, depth):
        shape = rng.choice(["gen", "gen", "comm", "paren"]) if depth else "gen"
        if shape == "gen":
            return rng.choice(names) + power()
        if shape == "comm":
            left, right = word(names, depth - 1), word(names, depth - 1)
            return f"[{sep()}{left}{sep()},{sep()}{right}{sep()}]" + power()
        return f"({sep()}{word(names, depth - 1)}{sep()})" + power()

    blocks = []
    for n in range(rng.randint(1, 3)):
        names = rng.sample(["x", "y", "z", "a1", "Tt"], rng.randint(1, 3))
        relators = [word(names, rng.randint(0, 3)) for _ in range(rng.randint(0, 3))]
        blocks.append(
            f"{sep()}group{gap()}G{n}{sep()}{{{sep()}generators{sep()}:{sep()}"
            + f"{sep()},{sep()}".join(names)
            + f"{sep()};{sep()}relators{sep()}:{sep()}"
            + f"{sep()},{sep()}".join(relators)
            + f"{sep()};{sep()}}}{sep()}"
        )
    return gap().join(blocks)


@settings(max_examples=300, deadline=None)
@given(text=presentation_files())
def test_parse_file_matches_the_reference_parser(text):
    assert parse_file(text) == reference_parse_file(text)


JUNCTIONS = [
    # factors whose junctions cancel in a cascade, several runs deep
    "x y (y^-1 x^-1 z)",
    "x y z [z, y] (z^-1 y^-1 x^-1)^1 x",
    "(x y)^3 (y^-1 x^-1)^2 y^-1",
    "x^2 y (y^-1 x^-2)^2 x^2",
    "[x, y] [y, x] z",
    "x y x^-1 (x y^-1 x^-1)^2 x y",
]


@pytest.mark.parametrize("word", JUNCTIONS)
def test_parse_file_cancels_across_factor_junctions(word):
    text = f"group G {{ generators: x, y, z; relators: {word}; }}"
    assert parse_file(text) == reference_parse_file(text)


MALFORMED = [
    "group A {\n generators: x;\n relators: x é; }",  # unexpected non-ASCII character, line 3
    "group A { generators: x; relators: x - 1; }",  # '-' without digits
    "group { generators: x; }\n\n  $",  # a bad character beats an earlier syntax error
    "group B { generators: x; relators: [x,z]; }",  # undeclared generator
    "group B { generators: ; relators: ; }",  # empty generator list
    "group B { generators: x, y, x; relators: ; }",  # duplicate generator
    "group B {\n generators: x\n relators: ; }",  # missing ';'
    "group B {\ngenerators: x\nrelators: ; }",  # ... at the start of a line
    "group A { generators: x; relators: x; }\n$",
    "group B { generators: x; relators: x,; }",
    "group B { generators: x; relators: x;",  # missing '}'
    "group B { generators: x; relators: x^y; }",  # '^' without an int
    "group B { generators: x; relators: (x x)^; }",
    "group B { generators: x,y; relators: [x, y; }",  # unterminated '['
    "group B { generators: x,y; relators: [x y]; }",
    "group B { generators: x,y; relators: (x y; }",
    "",  # empty text
    "  # only a comment\n\t",
    "group A { generators: x; relators: ; }\ngroup",  # junk after the last group
    "group A { generators: x; relators: ; } junk",
    "group A { generators: x; relators: ; } }",
    "group A { generators: x; relators: x^" + "9" * 5000 + "; }",  # int() refuses 5000 digits
    "group A { generators: x; relators: x^" + "9" * 5000 + "; } é",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_input_fails_as_the_reference_parser_does(text):
    expected = outcome(reference_parse_file, text)
    assert isinstance(expected, tuple)  # the reference refuses every entry
    assert outcome(parse_file, text) == expected


def test_huge_power_is_refused_at_its_caret():
    text = "group G { generators: x, y;\n  relators: (x y)^300000000; }"
    with pytest.raises(ParseError) as err:
        parse_file(text)
    assert (err.value.line, err.value.col) == (2, 18)
    assert f"more than {MAX_RUNS} runs" in str(err.value)
    # the conjugate of a single run stays three runs, whatever the exponent
    (pres,) = parse_file("group G { generators: x, y; relators: (x y x^-1)^300000000; }")
    assert pres.relators == (w((0, 1), (1, 300000000), (0, -1)),)


def test_run_limit_counts_every_power_and_commutator_of_a_file(monkeypatch):
    monkeypatch.setattr(qcw.presentations, "MAX_RUNS", 10)

    def refused_at(text):
        with pytest.raises(ParseError) as err:
            parse_file("group G { generators: x, y; relators: " + text + "; }")
        return err.value.col - len("group G { generators: x, y; relators: ")

    assert parse_file("group G { generators: x, y; relators: (x y)^5; }")[0].relators[0].runs() == 10
    assert refused_at("(x y)^6") == 6  # the '^'
    assert refused_at("(x y)^3, (x y)^3") == 15  # 6 runs, then 6 more
    assert refused_at("[[x, y], [x, y]]") == 1  # 4 + 4 runs, then 16 for the outer bracket


def test_nesting_is_bounded_before_the_interpreter_stack():
    # 501 parentheses used to end in a RecursionError traceback
    def nested(depth):
        return "group G { generators: x, y; relators: " + "(y " * depth + "[x, y]" + ")" * depth + "; }"

    # MAX_DEPTH levels: MAX_DEPTH - 1 parentheses around one bracket
    assert parse_file(nested(MAX_DEPTH - 1))[0].relators == (w((1, MAX_DEPTH - 1), (0, -1), (1, -1), (0, 1), (1, 1)),)
    with pytest.raises(ParseError, match=f"brackets nested more than {MAX_DEPTH} deep") as err:
        parse_file(nested(MAX_DEPTH))
    assert err.value.col == len("group G { generators: x, y; relators: ") + 3 * MAX_DEPTH + 1


# ---------------------------------------------------------------------------
# the token texts against the former (kind, text, offset) tokenizer

with open(os.path.join(os.path.dirname(__file__), "data", "groups.grp"), encoding="utf-8") as _fh:
    GROUPS_TEXT = _fh.read()

# files of the shapes the benchmark's quotient-check workload writes
WORKLOAD_FILES = [
    GROUPS_TEXT,
    "group seeded1 { generators: x; relators: x^-1 (x^3 x^-2 x)^8 x; }\n"
    "group seeded2 { generators: x, y; relators: y x (x y^-1 x^2)^3 x^-1 y^-1, [[x, y^-1], x y]; }\n"
    "group seeded3 { generators: x, y, z; relators: z^-1 (x z y^-1 x)^2 z, [[y, x z], z^-1]; }\n",
    "group seededclass2 { generators: x, y, z; relators: [[x y, z], x^-1], [[y, z], z], "
    "x^-2 [[x, y], x] x^2, [[y, z x], y]; }\n# trailing comment\ngroup free3 { generators: x, y, z; relators: ; }\n",
    "group long { generators: x, y; relators: (x y)^400000, [x, y]; }\n",
]
MUTATION_ALPHABET = list("#\f\vé-^ \t\r\n[](){},;:xyz019") + ["group", "x^-"]


@st.composite
def mutated_files(draw):
    """A workload file with one to four characters inserted, replaced or deleted."""
    text = draw(st.sampled_from(WORKLOAD_FILES))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "replace", "delete"]))
        piece = "" if op == "delete" else draw(st.sampled_from(MUTATION_ALPHABET))
        text = text[:at] + piece + text[at + (op != "insert") :]
    return text


FRONT_EXAMPLES = [
    "group A { generators: x; relators: x # é \f \v - ^\n; }",  # bad characters inside a comment
    "group A { generators: x; relators: x\f; }",
    "group A {\n generators: x;\n relators: x\v; }",
    "group A { generators: x; relators: x-1, x^-; }",
    "group A { generators: x; relators: --1; }",
    "#\n#\n   # only comments",
    "group A { generators: x; relators: ; }#",
]


def assert_same_front_end(text):
    texts = qcw.presentations._token_texts(text)
    former = front_oracle.tokenize(text)
    assert texts == [t[1] for t in former]
    assert [qcw.presentations._kind(t) for t in texts] == [t[0] for t in former]
    assert outcome(parse_file, text) == outcome(front_oracle.parse_file, text)


@pytest.mark.parametrize("text", FRONT_EXAMPLES + MALFORMED)
def test_token_texts_and_errors_match_the_former_tokenizer(text):
    assert_same_front_end(text)


@settings(max_examples=1500, deadline=None)
@given(text=mutated_files())
def test_mutated_files_parse_as_with_the_former_tokenizer(text):
    assert_same_front_end(text)


# -- relator indices and the class-2 image ----------------------------------------


@pytest.mark.parametrize("letters", [((-1, 2),), ((0, 1), (2, 1)), ((1, 3), (-2, 1), (0, 1))])
def test_presentation_refuses_an_index_outside_the_rank(letters):
    # a negative index was once accepted and read as generator rank - 1:
    # the level-3 quotient of <x, y | x_{-1}^2> came out as order 16
    with pytest.raises(ValueError, match="undeclared generator"):
        Presentation("bad", ("x", "y"), (Word(letters),))


IMAGE_QS = (2, 3, 4, 5, 8, 9)
HUGE = 10**9 + 7


@st.composite
def _words_and_moduli(draw):
    n = draw(st.integers(1, 4))
    q = draw(st.sampled_from(IMAGE_QS))
    exponent = st.integers(-9, 9) | st.sampled_from([q, -q, q * q, HUGE, -HUGE]) | st.integers(-(2**70), 2**70)
    runs = st.lists(st.tuples(st.integers(0, n - 1), exponent), max_size=10)
    return Word(tuple(draw(runs))), n, q


@settings(max_examples=400, deadline=None)
@given(_words_and_moduli())
def test_class2_image_is_the_run_by_run_image_and_the_degree2_magnus_term(case):
    from qcw.qcentral import ClassTwoGroup, SeriesParams

    w, n, q = case
    a, c = qcw.presentations._class2_image(w, n)
    E = ClassTwoGroup(SeriesParams.from_q(q), n)  # never enumerated
    assert E.element(a, c) == front_oracle.evaluate_word(w, E.generators(), E)
    # over Z: d1 = a, d2[j, i] = c_ij, d2[i, j] = a_i a_j - c_ij, d2[i, i] = C(a_i, 2)
    d1, d2, _ = front_oracle.magnus_terms(w, n)
    assert list(a) == d1.tolist()
    want = [[a[i] * (a[i] - 1) // 2 if i == j else None for j in range(n)] for i in range(n)]
    for (i, j), cij in zip(E.pairs, c):
        want[j][i], want[i][j] = cij, a[i] * a[j] - cij
    assert want == d2.tolist()


def test_class2_images_are_walked_once_per_presentation(monkeypatch):
    pres = parse_presentation("group G { generators: x, y, z; relators: [x, y]^3 z^4, (x z)^5, y; }")
    walked = []
    walk = qcw.presentations._class2_image

    def spy(w, n):
        walked.append(w)
        return walk(w, n)

    monkeypatch.setattr(qcw.presentations, "_class2_image", spy)
    first = pres.class2_images
    assert pres.class2_images is first
    assert walked == list(pres.relators)
    # [x, y] = [y, x]^-1 = u_01^-1, and (x z)^5 = x^5 z^5 u_02^C(5, 2)
    assert first == (((0, 0, 4), (-3, 0, 0)), ((5, 0, 5), (0, 10, 0)), ((0, 1, 0), (0, 0, 0)))
