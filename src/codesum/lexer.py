"""Two-path scanner for the supported source grammar.

``tokenize`` returns ``Tokens``: the token texts in source order; a token's
kind is derived from its text, and its position is a token index that
``Positions`` turns into a 1-based line and column only when asked, from
token offsets and line starts built on first use (as ``File.Position`` does
in Go's ``go/token``). A line ends at ``\\n``; a column counts characters.

Exact path: ``_MASTER`` is matched at the current position. Each match
consumes whitespace and comments, then one token, unterminated construct or
illegal character; the group that matched names what was found. Names and
numbers keep the ``str`` predicates' Unicode semantics: ``str.isalpha`` or
``_$`` starts a name, ``str.isalnum`` or ``_$`` continues one (exactly
``[\\w$]``), and ``str.isdigit`` drives numbers. No regex class equals
``isalpha`` or ``isdigit``, so tokens starting with a non-ASCII character,
and numbers followed closely by one, take a per-character path.

Fast path: the whole source is split by one ``findall`` over ``_TEXTS``,
whose name starts with ``[A-Za-z_$]`` or a non-ASCII ``[^\\W\\d]``. Its texts
are exactly the exact path's unless one of these holds, and then the file is
scanned again on the exact path:

* a text is in ``_PROBLEMS`` but not in ``_LONE``: ``/*`` of an unclosed
  comment, or a lone quote. A lone illegal character other than a quote is
  no reason: it is reported where it stands and dropped, as the exact path
  does;
* a text starts with a non-ASCII character that ``str.isalpha`` rejects,
  such as ``²`` (a digit to ``_number_end``) or ``→``;
* a text holding a non-ASCII character follows a number, which
  ``_number_end`` may extend (``1e٣``).

The token offsets of a file come from one ``finditer`` over ``_TEXTS``, and
only when a position is asked for: by a lone character's error, or later by
the parser's or the model builder's diagnostics, which take them only as far
as the furthest token asked for.

Each lexical problem is an error, and scanning resumes past the offending
text; ``extractor.parse_project`` applies the mode to the diagnostics.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from enum import Enum
from functools import lru_cache
from itertools import accumulate, compress, islice, repeat
from operator import not_
from typing import Iterator, Sequence

from .diagnostics import Diagnostic, error


class TokenKind(Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    PUNCTUATION = "punctuation"
    LITERAL = "literal"


KEYWORDS = frozenset(
    """
    abstract boolean break byte case catch char class continue default do
    double else enum extends final finally float for if implements import
    instanceof int interface long native new null package private protected
    public return short static strictfp super switch synchronized this throw
    throws transient true false try void volatile while
    """.split()
)

PRIMITIVE_TYPES = frozenset(
    ["boolean", "byte", "char", "double", "float", "int", "long", "short"]
)

# Longest match first.
_OPERATORS = (
    ">>>=", "<<=", ">>=", ">>>", "==", "!=", "<=", ">=", "&&", "||", "++",
    "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "->",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~", "?",
    ":", ";", ",", ".", "(", ")", "{", "}", "[", "]", "@",
)

_KINDS = {
    **dict.fromkeys(_OPERATORS, TokenKind.PUNCTUATION),
    **dict.fromkeys(KEYWORDS, TokenKind.KEYWORD),
}


@lru_cache(maxsize=4096)  # the parser asks again and again about the same names
def token_kind(text: str) -> TokenKind | None:
    """The kind of a token with this text; None for the empty text past the end."""
    if text in _KINDS or not text:
        return _KINDS.get(text)
    return TokenKind.LITERAL if text[0] in "\"'" or text[0].isdigit() else TokenKind.IDENTIFIER


def _literal(quote: str) -> str:
    """A quoted literal's body: a backslash escapes any next character, even a newline."""
    return rf"{quote}[^{quote}\\\n]*(?:\\[\s\S][^{quote}\\\n]*)*"


def _longest(operators: Sequence[str]) -> str:
    """A pattern for the longest of ``operators`` at a position, branching on
    one character at a time. Every prefix of an operator is itself one, so
    greedy branches find the longest match."""
    branches = []
    for head in dict.fromkeys(operator[0] for operator in operators):
        tails = _longest([operator[1:] for operator in operators if operator[0] == head and len(operator) > 1])
        branches.append(re.escape(head) + (f"(?:{tails})?" if tails else ""))
    return "|".join(branches)


_SKIP = r"(?:[ \t\r\n\f]+|//[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)*"
_WORD = r"[A-Za-z_$][\w$]*"
_OPERATOR = _longest(_OPERATORS)
_NUMBER = r"0[xX][0-9a-fA-F]*[lLfFdD]?|[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?[lLfFdD]?"
_LITERAL = rf"""{_literal('"')}"|{_literal("'")}'"""

# These patterns are strings: ``re`` compiles each on first use and caches
# it, so importing the lexer compiles none of them.
#
# Group 1 is the whitespace and comments before the token. Every other
# group is named, and exactly one of them matches. ``other`` takes any
# character no earlier group starts with, and ``end`` matches only after
# trailing whitespace, so a match never fails or backtracks into group 1.
_MASTER = rf"""(?x)({_SKIP})
    (?:(?P<word>{_WORD})
    |(?P<open_comment>/\*)
    |(?P<operator>{_OPERATOR})
    |(?P<number>{_NUMBER})
    |(?P<literal>{_LITERAL})
    |(?P<open_string>{_literal('"')}\\?)
    |(?P<open_character>{_literal("'")}\\?)
    |(?P<other>[\s\S])
    |(?P<end>\Z))"""

# The fast path's token: the clean tokens (operators first, which is the
# fastest order, and ``/*`` before ``/``), then any other non-blank
# character, then the end (which keeps a match from backtracking into the
# skipped text, as ``end`` does above). Its name may start with a non-ASCII
# character, which ``_MASTER``'s may not.
_TOKEN = rf"/\*|{_OPERATOR}|(?:[A-Za-z_$]|[^\W\d\x00-\x7f])[\w$]*|{_NUMBER}|{_LITERAL}|[^ \t\r\n\f]|\Z"
_TEXTS = rf"{_SKIP}({_TOKEN})"
_PROBLEMS = frozenset(["/*", *(c for c in map(chr, range(128)) if not (c.isalnum() or c in "_$" or c in _OPERATORS))])
# The problems the fast path reports and drops.
_LONE = _PROBLEMS.difference(["/*", '"', "'"])

_NAME_PART = re.compile(r"[\w$]*")

_UNTERMINATED = {
    "open_string": "unterminated string literal",
    "open_character": "unterminated character literal",
    "open_comment": "unterminated block comment",
}


class Positions:
    """1-based ``(line, column)`` of a token index or a source offset."""

    __slots__ = ("source", "_starts", "_rest", "_lines")

    def __init__(self, source: str, starts: Sequence[int] | None = None):
        self.source, self._starts, self._rest, self._lines = source, starts, None, None

    def offset(self, index: int) -> int:
        if self._starts is None:  # offsets are found as far as they are asked for
            self._starts, self._rest = array("q"), _token_starts(self.source)
        if index >= len(self._starts) and self._rest is not None:
            self._starts.extend(islice(self._rest, index + 1 - len(self._starts)))
        return self._starts[index]

    def position(self, index: int) -> tuple[int, int]:
        return self.locate(self.offset(index))

    def locate(self, offset: int) -> tuple[int, int]:
        if self._lines is None:
            self._lines = _line_starts(self.source)
        line = bisect_right(self._lines, offset)
        return line, offset - self._lines[line - 1] + 1


def _token_starts(source: str) -> Iterator[int]:
    """The offset of each ``_TEXTS`` match's token, lone illegal characters
    and the end included: the fast path's token offsets, in order."""
    return map(re.Match.start, re.finditer(_TEXTS, source), repeat(1))


def _line_starts(source: str) -> list[int]:
    """The offset of each line's first character, then one past the end."""
    return list(accumulate(map(len, source.split("\n")), lambda start, length: start + length + 1, initial=0))


class Tokens:
    """One file's token ``texts`` and their ``positions``; a token's kind is
    ``token_kind`` of its text."""

    __slots__ = ("texts", "positions")

    def __init__(self, texts: list[str], positions: Positions):
        self.texts, self.positions = texts, positions

    def __len__(self) -> int:
        return len(self.texts)


def _number_end(source: str, pos: int) -> int:
    """End of the number literal at ``pos``, with ``str.isdigit`` as the digit test."""
    length = len(source)
    if source.startswith(("0x", "0X"), pos):
        pos += 2
        while pos < length and (source[pos].isdigit() or source[pos] in "abcdefABCDEF"):
            pos += 1
    else:
        while pos < length and source[pos].isdigit():
            pos += 1
        if source[pos : pos + 1] == "." and source[pos + 1 : pos + 2].isdigit():
            pos += 1
            while pos < length and source[pos].isdigit():
                pos += 1
        if source[pos : pos + 1] in ("e", "E"):
            lookahead = pos + 1
            if source[lookahead : lookahead + 1] in ("+", "-"):
                lookahead += 1
            if source[lookahead : lookahead + 1].isdigit():
                pos = lookahead + 1
                while pos < length and source[pos].isdigit():
                    pos += 1
    if source[pos : pos + 1] in ("l", "L", "f", "F", "d", "D"):
        pos += 1
    return pos


def tokenize(source: str, file: str = "<source>") -> tuple[Tokens, list[Diagnostic]]:
    """Split ``source`` into tokens; each lexical problem is an error, and scanning resumes past it."""
    texts = re.findall(_TEXTS, source)
    lone = _PROBLEMS.intersection(texts)
    if not (lone <= _LONE and (source.isascii() or _exact_as_fast(texts))):
        return _scan(source, file)
    texts.pop()  # the end of the input
    if texts and not texts[-1]:
        texts.pop()  # matched once more after trailing whitespace
    if not lone:
        return Tokens(texts, Positions(source)), []
    # Lone characters: each is an error, and neither a token nor an offset.
    starts = array("q", _token_starts(source))
    dropped = list(map(lone.__contains__, texts))
    kept = list(map(not_, dropped))
    positions = Positions(source, array("q", compress(starts, kept)))
    diagnostics = [
        error(f"illegal character {text!r}", file, *positions.locate(start))
        for text, start in zip(compress(texts, dropped), compress(starts, dropped))
    ]
    return Tokens(list(compress(texts, kept)), positions), diagnostics


def _exact_as_fast(texts: list[str]) -> bool:
    """Whether the exact path reads each text holding a non-ASCII character
    as the fast path did: it starts with ASCII or a ``str.isalpha`` character,
    and follows no number that ``_number_end`` could extend into it."""
    plain = bytes(map(str.isascii, texts))
    index = plain.find(0)
    while index >= 0:
        text = texts[index]
        if not (text[0].isascii() or text[0].isalpha()) or index and texts[index - 1][0].isdigit():
            return False
        index = plain.find(0, index + 1)
    return True


def _scan(source: str, file: str) -> tuple[Tokens, list[Diagnostic]]:
    """The exact path: one ``_MASTER`` match per token, problem or end."""
    texts: list[str] = []
    starts = array("q")  # a unit keeps its offsets: 8 bytes each, not an int object
    positions = Positions(source, starts)
    diagnostics: list[Diagnostic] = []
    add_text, add_start = texts.append, starts.append
    match = re.compile(_MASTER).match
    pos = 0
    while True:
        found = match(source, pos)
        start = found.end(1)
        pos = found.end()
        group = found.lastgroup
        if group == "number" and not source[pos : pos + 3].isascii():
            pos = _number_end(source, start)  # a non-ASCII digit in reach may extend it
        elif group == "other" and source[start].isalpha():
            pos = _NAME_PART.match(source, pos).end()
        elif group == "other" and source[start].isdigit():
            pos = _number_end(source, start)
        elif group == "end":
            break
        elif group == "other" or group in _UNTERMINATED:
            message = _UNTERMINATED.get(group) or f"illegal character {source[start]!r}"
            diagnostics.append(error(message, file, *positions.locate(start)))
            if group == "open_comment":
                break  # an unclosed comment runs to the end of the file
            continue
        add_text(source[start:pos])
        add_start(start)
    return Tokens(texts, positions), diagnostics
