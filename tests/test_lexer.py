"""Token stream behavior: kinds, positions, literals, and failure modes."""

import importlib.util
import random
import re
import sys
from typing import NamedTuple

import pytest

from codesum import lexer
from codesum.diagnostics import Severity
from codesum.lexer import TokenKind, token_kind, tokenize

from conftest import FIXTURES, in_mode


class _Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int


def _view(tokens) -> list[_Token]:
    """Every token with its kind and position."""
    return [
        _Token(token_kind(text), text, *tokens.positions.position(index)) for index, text in enumerate(tokens.texts)
    ]


def _tokenize(source: str, file: str = "<source>", strict: bool = True):
    """The viewed tokens, or None where the mode drops them, and the diagnostics."""
    tokens, found = tokenize(source, file)
    diagnostics, kept = in_mode(found, strict)
    return _view(tokens) if kept else None, diagnostics


def _clean(source: str):
    tokens, diagnostics = _tokenize(source)
    assert diagnostics == []
    return tokens


def test_simple_class_header():
    tokens = _clean("public class A {}")
    assert [t.text for t in tokens] == ["public", "class", "A", "{", "}"]
    assert [t.kind for t in tokens] == [
        TokenKind.KEYWORD,
        TokenKind.KEYWORD,
        TokenKind.IDENTIFIER,
        TokenKind.PUNCTUATION,
        TokenKind.PUNCTUATION,
    ]


def test_comments_and_whitespace_are_discarded():
    tokens = _clean("int a; // trailing\n/* block\n comment */ int b;")
    assert [t.text for t in tokens] == ["int", "a", ";", "int", "b", ";"]


def test_positions_are_one_based():
    tokens = _clean("a\n  b")
    assert (tokens[0].line, tokens[0].column) == (1, 1)
    assert (tokens[1].line, tokens[1].column) == (2, 3)


def test_offsets_asked_for_out_of_order_equal_the_full_scan():
    source = "package p;\r\nclass Größe {\r\n  int naïve = 1; // ü\r\n  void m() { naïve += 2; }\r\n}\r\n"
    tokens, diagnostics = tokenize(source, "Größe.java")
    assert diagnostics == []
    starts = list(lexer._token_starts(source))
    end = len(tokens)
    assert tokens.positions.offset(end // 2) == starts[end // 2]
    assert len(tokens.positions._starts) == end // 2 + 1  # found only as far as asked
    for index in (0, end - 1, end, 1):
        assert tokens.positions.offset(index) == starts[index], index
    assert source[starts[end - 1]] == "}" and starts[end] == len(source)


def test_keywords_versus_identifiers():
    tokens = _clean("classy class")
    assert tokens[0].kind is TokenKind.IDENTIFIER
    assert tokens[1].kind is TokenKind.KEYWORD


def test_string_literal_with_escaped_quote():
    tokens = _clean('String s = "say \\"hi\\"";')
    literals = [t for t in tokens if t.kind is TokenKind.LITERAL]
    assert [t.text for t in literals] == ['"say \\"hi\\""']


def test_character_literals():
    tokens = _clean("char a = 'x'; char b = '\\n';")
    literals = [t.text for t in tokens if t.kind is TokenKind.LITERAL]
    assert literals == ["'x'", "'\\n'"]


def test_number_literals_lex_as_single_tokens():
    source = "0x1F 3.14 1e10 2.5e-3 10L 1.5f 7"
    tokens = _clean(source)
    assert [t.kind for t in tokens] == [TokenKind.LITERAL] * 7
    assert [t.text for t in tokens] == source.split()


def test_operators_longest_match_first():
    assert [t.text for t in _clean("a >>>= b")] == ["a", ">>>=", "b"]
    assert [t.text for t in _clean("x<=y")] == ["x", "<=", "y"]
    assert [t.text for t in _clean("i++")] == ["i", "++"]
    assert [t.text for t in _clean("a->b")] == ["a", "->", "b"]
    assert [t.text for t in _clean("@Anno")] == ["@", "Anno"]


def test_strict_unterminated_string_is_error_and_stops():
    tokens, diagnostics = _tokenize('String s = "oops\nint x;', strict=True)
    assert [d.severity for d in diagnostics] == [Severity.ERROR]
    assert "unterminated string" in diagnostics[0].message
    assert tokens is None


def test_lenient_unterminated_string_is_warning_and_continues():
    tokens, diagnostics = _tokenize('String s = "oops\nint x;', strict=False)
    assert [d.severity for d in diagnostics] == [Severity.WARNING]
    assert [t.text for t in tokens] == ["String", "s", "=", "int", "x", ";"]


def test_illegal_character_strict_versus_lenient():
    tokens, diagnostics = _tokenize("int #x;", strict=True)
    assert [d.severity for d in diagnostics] == [Severity.ERROR]
    assert tokens is None

    tokens, diagnostics = _tokenize("int #x;", strict=False)
    assert [d.severity for d in diagnostics] == [Severity.WARNING]
    assert [t.text for t in tokens] == ["int", "x", ";"]


def test_unterminated_block_comment():
    _, strict_diagnostics = _tokenize("/* oops", strict=True)
    assert [d.severity for d in strict_diagnostics] == [Severity.ERROR]
    _, lenient_diagnostics = _tokenize("/* oops", strict=False)
    assert [d.severity for d in lenient_diagnostics] == [Severity.WARNING]


def test_diagnostics_carry_file_and_position():
    _, diagnostics = _tokenize("  #", file="Bad.java", strict=True)
    assert diagnostics[0].file == "Bad.java"
    assert (diagnostics[0].line, diagnostics[0].column) == (1, 3)


def test_sample_file_identifier_counts():
    source = (FIXTURES / "drawing-shapes" / "coreElements" / "MyOval.java").read_text(encoding="utf-8")
    tokens = _clean(source)
    names = [t.text for t in tokens if t.kind is TokenKind.IDENTIFIER]
    for name, count in {"MyOval": 2, "MyShape": 1, "draw": 1, "example": 2}.items():
        assert names.count(name) == count, name


# ----------------------------------------------------------------------
# Exact behaviour, pinned in both modes: (kind, text, line, column) tuples,
# or None where strict mode abandons the file, and rendered diagnostics.

I, P, L = TokenKind.IDENTIFIER, TokenKind.PUNCTUATION, TokenKind.LITERAL


def _lex(source: str, strict: bool):
    tokens, diagnostics = _tokenize(source, "F.java", strict)
    viewed = None if tokens is None else [(t.kind, t.text, t.line, t.column) for t in tokens]
    return viewed, [str(d) for d in diagnostics]


@pytest.mark.parametrize(
    "source, tokens",
    [
        # A backslash-newline inside a literal moves the next token down a line.
        ('"a\\\nb" c', [(L, '"a\\\nb"', 1, 1), (I, "c", 2, 4)]),
        ("'\\\nx' y", [(L, "'\\\nx'", 1, 1), (I, "y", 2, 4)]),
        # CRLF ends a line once; a tab is one column.
        ("a\r\n\tb\tc\r\nd", [(I, "a", 1, 1), (I, "b", 2, 2), (I, "c", 2, 4), (I, "d", 3, 1)]),
        ("x // note\r\n/* a\r\nb */ y", [(I, "x", 1, 1), (I, "y", 3, 6)]),
        ("0x 1e 1.x", [
            (L, "0x", 1, 1), (L, "1", 1, 4), (I, "e", 1, 5),
            (L, "1", 1, 7), (P, ".", 1, 8), (I, "x", 1, 9),
        ]),
        ("a>>>=b->c@d", [
            (I, "a", 1, 1), (P, ">>>=", 1, 2), (I, "b", 1, 6), (P, "->", 1, 7),
            (I, "c", 1, 9), (P, "@", 1, 10), (I, "d", 1, 11),
        ]),
        # Unicode: isalpha starts a name, isalnum continues it, isdigit drives numbers.
        ("café x² ² 1² 0x٣ 1.² 1e²", [
            (I, "café", 1, 1), (I, "x²", 1, 6), (L, "²", 1, 9), (L, "1²", 1, 11),
            (L, "0x٣", 1, 14), (L, "1.²", 1, 18), (L, "1e²", 1, 22),
        ]),
    ],
)
def test_clean_sources_lex_identically_in_both_modes(source, tokens):
    assert _lex(source, True) == (tokens, [])
    assert _lex(source, False) == (tokens, [])


def test_unterminated_string_stops_at_end_of_line_and_lenient_resumes_on_the_next():
    source = 's = "ab\nc;'
    head = [(I, "s", 1, 1), (P, "=", 1, 3)]
    assert _lex(source, True) == (None, ["F.java:1:5: error: unterminated string literal"])
    assert _lex(source, False) == (
        head + [(I, "c", 2, 1), (P, ";", 2, 2)],
        ["F.java:1:5: warning: unterminated string literal"],
    )


def test_unterminated_character_literal_resumes_on_the_next_line():
    assert _lex("'x\nc", False) == ([(I, "c", 2, 1)], ["F.java:1:1: warning: unterminated character literal"])
    assert _lex("'x\nc", True) == (None, ["F.java:1:1: error: unterminated character literal"])


def test_escaped_carriage_return_does_not_escape_the_newline():
    source = '"a\\\r\nb" c'
    assert _lex(source, True) == (None, ["F.java:1:1: error: unterminated string literal"])
    assert _lex(source, False) == (
        [(I, "b", 2, 1)],
        ["F.java:1:1: warning: unterminated string literal", "F.java:2:2: warning: unterminated string literal"],
    )


def test_unterminated_block_comment_is_reported_at_its_opener():
    assert _lex("x /* y\nz", True) == (None, ["F.java:1:3: error: unterminated block comment"])
    assert _lex("x /* y\nz", False) == ([(I, "x", 1, 1)], ["F.java:1:3: warning: unterminated block comment"])
    assert _lex("/*/ x", False) == ([], ["F.java:1:1: warning: unterminated block comment"])


def test_illegal_character_then_name():
    assert _lex("#a", True) == (None, ["F.java:1:1: error: illegal character '#'"])
    assert _lex("#a", False) == ([(I, "a", 1, 2)], ["F.java:1:1: warning: illegal character '#'"])


def test_lone_backslash_as_the_last_character():
    assert _lex("a\\", True) == (None, ["F.java:1:2: error: illegal character '\\\\'"])
    assert _lex("a\\", False) == ([(I, "a", 1, 1)], ["F.java:1:2: warning: illegal character '\\\\'"])
    assert _lex('"a\\', True) == (None, ["F.java:1:1: error: unterminated string literal"])
    assert _lex('"a\\', False) == ([], ["F.java:1:1: warning: unterminated string literal"])


def test_non_digit_numeric_character_is_illegal():
    source = "x ½ y"
    assert _lex(source, True) == (None, ["F.java:1:3: error: illegal character '½'"])
    assert _lex(source, False) == (
        [(I, "x", 1, 1), (I, "y", 1, 5)],
        ["F.java:1:3: warning: illegal character '½'"],
    )


_FRAGMENTS = (
    "class", "int", "return", "this", "a", "foo", "x1", "_$", "café", "名前", "x²",
    "0", "12", "3.5", "1e9", "2.5e-3", "0xFF", "10L", "1.", "1e", "0x", "²", "1²", "½",
    ">>>=", "->", "@", "(", ")", "{", "}", ";", ".", "+", "++", "/", "*", "<", "=",
    '"', "'", '"s"', "'c'", '"\\""', "//", "/*", "*/", "\\", "\\\n", "#",
    " ", "\t", "\n", "\r\n", "\r", "\f",
)


def _offset(source: str, line: int, column: int) -> int:
    start = 0
    for _ in range(line - 1):
        start = source.index("\n", start) + 1
    return start + column - 1


def _strictly_increasing(items) -> bool:
    positions = [(item.line, item.column) for item in items]
    return all(a < b for a, b in zip(positions, positions[1:]))


def _random_sources(seed: int):
    """The seeded property corpus: 300 sources of 1 to 40 fragments."""
    rng = random.Random(seed)
    for _ in range(300):
        yield "".join(rng.choice(_FRAGMENTS) for _ in range(rng.randint(1, 40)))


@pytest.mark.parametrize("seed", range(5))
def test_random_sources_report_true_increasing_positions(seed):
    clean = 0
    for source in _random_sources(seed):
        results = {strict: _tokenize(source, "F.java", strict) for strict in (True, False)}
        for tokens, diagnostics in results.values():
            for token in tokens or ():
                assert source.startswith(token.text, _offset(source, token.line, token.column)), (source, token)
            for diagnostic in diagnostics:
                assert _offset(source, diagnostic.line, diagnostic.column) < len(source), (source, diagnostic)
            assert _strictly_increasing(tokens or ()), source
            assert _strictly_increasing(diagnostics), source
        if not results[False][1]:
            clean += 1
            assert results[True] == results[False], source
    assert clean >= 30


# Where each code point is put: alone, at a token start, after a name
# character, after each number prefix, inside a string and a character, in
# both comments, and after a lone illegal character.
_PLACEMENTS = (
    "{}", "{}a0 b", "a{}", "1{}", "1.{}", "1e{}", "1e-{}", "0x{}", '"{}"', "'{}'", "//{0}\n/*{0}*/", "#{}$",
)
# The placements where a code point that ``str.isalpha`` accepts is read as a
# name or inside a literal, follows no number, and so takes the fast path.
_NAME_PLACEMENTS = ("{}", "{}a0 b", "a{}", "1.{}", "1e-{}", '"{}"', "'{}'", "//{0}\n/*{0}*/")


def _disagreeing_code_points() -> list[str]:
    """Every non-ASCII character where ``str.isalpha`` and ``[^\\W\\d]``, or
    ``str.isdigit`` and ``\\d``, disagree, and every non-ASCII space, which
    neither path skips."""
    chars = "".join(map(chr, range(128, sys.maxunicode + 1)))
    names, digits = set(re.findall(r"[^\W\d]", chars)), set(re.findall(r"\d", chars))
    disagreeing = names.symmetric_difference(filter(str.isalpha, chars))
    disagreeing |= digits.symmetric_difference(filter(str.isdigit, chars))
    return sorted(disagreeing.union(filter(str.isspace, chars)))


def test_fast_and_exact_paths_agree(monkeypatch):
    """``tokenize`` against the exact scanner alone: texts, kinds, every
    ``line:col`` and every diagnostic."""
    fixtures = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.rglob("*.java"))]
    corpus = [source for seed in range(5) for source in _random_sources(seed)]
    disagreeing = _disagreeing_code_points()
    sampled = [chr(code) for code in random.Random(10).sample(range(128, sys.maxunicode + 1), 600)]
    characters = [*map(chr, range(128)), *disagreeing, *sampled]
    code_points = [placement.format(character) for character in characters for placement in _PLACEMENTS]
    exact_scan = lexer._scan
    exact_scans = []

    def counted_scan(source, *rest):
        exact_scans.append(source)
        return exact_scan(source, *rest)

    monkeypatch.setattr(lexer, "_scan", counted_scan)
    for source in fixtures + corpus + code_points:
        tokens, diagnostics = tokenize(source, "F.java")
        exact_tokens, exact_diagnostics = exact_scan(source, "F.java")
        assert _view(tokens) == _view(exact_tokens), source
        assert [str(d) for d in diagnostics] == [str(d) for d in exact_diagnostics], source
    # Every fixture file took the fast path, and so did many other sources.
    fast = set(fixtures + corpus + code_points).difference(exact_scans)
    assert set(fixtures) <= fast
    assert len(fast.intersection(corpus)) > 100 and len(fast.intersection(code_points)) > 900
    # So did a non-ASCII letter wherever it reads as a name or in a literal.
    letters = [character for character in disagreeing + sampled if character.isalpha()]
    assert len(letters) > 50
    assert fast.issuperset(placement.format(letter) for letter in letters for placement in _NAME_PLACEMENTS)


def _load_generator(monkeypatch):
    """``perfbench/gen.py``, the benchmark's input generator."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", FIXTURES.parent / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks its module up
    spec.loader.exec_module(module)
    return module


def test_lenient_dense_files_take_the_fast_path(monkeypatch, tmp_path):
    """The benchmark's lenient-dense files hold non-ASCII names and lone
    illegal characters; all lex as on the exact path, and none is scanned
    twice."""
    _load_generator(monkeypatch).generate_lenient_dense(tmp_path, 0)
    sources = [path.read_text(encoding="utf-8") for path in sorted(tmp_path.rglob("*.java"))]
    assert len(sources) == 40 and not any(map(str.isascii, sources))
    exact_scan = lexer._scan
    exact_scans = []

    def counted_scan(source, *rest):
        exact_scans.append(source)
        return exact_scan(source, *rest)

    monkeypatch.setattr(lexer, "_scan", counted_scan)
    for source in sources:
        tokens, diagnostics = tokenize(source, "F.java")
        exact_tokens, exact_diagnostics = exact_scan(source, "F.java")
        assert tokens.texts == exact_tokens.texts
        # Equal offsets into one source are equal ``line:col``s.
        assert list(map(tokens.positions.offset, range(len(tokens)))) == list(
            map(exact_tokens.positions.offset, range(len(exact_tokens)))
        )
        assert [str(d) for d in diagnostics] == [str(d) for d in exact_diagnostics]
    assert exact_scans == []
