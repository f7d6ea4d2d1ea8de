"""Master-regex scanner for the supported source grammar.

One compiled alternation of named groups is matched at the current
position. Each match consumes any whitespace and comments, then exactly one
token, unterminated construct or illegal character; the group that matched
names what was found. Comments and whitespace are discarded; every surviving
token carries its 1-based line and column so later stages can report
positions and restore source order. Lines are counted only inside the
whitespace, comment and literal spans a match consumed; a column counts
characters, so a tab is one column.

Names and numbers keep the ``str`` predicates' Unicode semantics:
``str.isalpha`` or ``_$`` starts a name, ``str.isalnum`` or ``_$`` continues
one (exactly ``[\\w$]``), and ``str.isdigit`` drives numbers. No regex class
equals ``isalpha`` or ``isdigit``, so tokens starting with a non-ASCII
character, and numbers followed closely by one, take a per-character path.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from .diagnostics import Diagnostic, error, warning


class TokenKind(Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    PUNCTUATION = "punctuation"
    LITERAL = "literal"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int


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


def _literal(quote: str) -> str:
    """A quoted literal's body: a backslash escapes any next character, even a newline."""
    return rf"{quote}[^{quote}\\\n]*(?:\\[\s\S][^{quote}\\\n]*)*"


# Group 1 is the whitespace and comments before the token. Every other
# group is named, and exactly one of them matches. ``other`` takes any
# character no earlier group starts with, and ``end`` matches only after
# trailing whitespace, so a match never fails or backtracks into group 1.
_MASTER = re.compile(
    rf"""
    ((?:[ \t\r\n\f]+|//[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)*)
    (?:(?P<word>[A-Za-z_$][\w$]*)
    |(?P<open_comment>/\*)
    |(?P<operator>{"|".join(re.escape(op) for op in _OPERATORS)})
    |(?P<number>0[xX][0-9a-fA-F]*[lLfFdD]?|[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?[lLfFdD]?)
    |(?P<literal>{_literal('"')}"|{_literal("'")}')
    |(?P<open_string>{_literal('"')}\\?)
    |(?P<open_character>{_literal("'")}\\?)
    |(?P<other>[\s\S])
    |(?P<end>\Z))
    """,
    re.VERBOSE,
)

_NAME_PART = re.compile(r"[\w$]*")

_UNTERMINATED = {
    "open_string": "unterminated string literal",
    "open_character": "unterminated character literal",
    "open_comment": "unterminated block comment",
}


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


def tokenize(
    source: str, file: str = "<source>", strict: bool = True
) -> tuple[list[Token], list[Diagnostic]]:
    """Split ``source`` into tokens.

    In strict mode the first lexical problem is reported as an error and
    scanning stops; in lenient mode it is reported as a warning and scanning
    resumes past the offending text.
    """
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    append = tokens.append
    new = tuple.__new__  # builds a Token without the Python frame of Token.__new__
    match = _MASTER.match
    identifier, keyword, punctuation, literal = (
        TokenKind.IDENTIFIER, TokenKind.KEYWORD, TokenKind.PUNCTUATION, TokenKind.LITERAL
    )
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of ``line``
    counted = 0  # newlines before this offset are in ``line``

    while True:
        found = match(source, pos)
        start = found.end(1)
        # Only skipped text and the previous token, if a literal, hold newlines.
        newline = source.rfind("\n", counted, start)
        if newline >= 0:
            line += source.count("\n", counted, start)
            line_start = newline + 1
        counted = start
        column = start - line_start + 1
        pos = found.end()
        group = found.lastgroup

        if group == "word":
            text = source[start:pos]
            append(new(Token, (keyword if text in KEYWORDS else identifier, text, line, column)))
        elif group == "operator":
            append(new(Token, (punctuation, source[start:pos], line, column)))
        elif group == "number":
            if not source[pos : pos + 3].isascii():  # a non-ASCII digit in reach may extend it
                pos = _number_end(source, start)
            append(new(Token, (literal, source[start:pos], line, column)))
        elif group == "literal":
            append(new(Token, (literal, source[start:pos], line, column)))
        elif group == "end":
            break
        elif group == "other" and source[start].isalpha():
            pos = _NAME_PART.match(source, pos).end()
            append(new(Token, (identifier, source[start:pos], line, column)))
        elif group == "other" and source[start].isdigit():
            pos = _number_end(source, start)
            append(new(Token, (literal, source[start:pos], line, column)))
        else:
            message = _UNTERMINATED.get(group) or f"illegal character {source[start]!r}"
            if strict:
                diagnostics.append(error(message, file, line, column))
                break
            diagnostics.append(warning(message, file, line, column))
            if group == "open_comment":
                break  # an unclosed comment runs to the end of the file

    return tokens, diagnostics
