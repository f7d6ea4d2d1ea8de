"""Recursive-descent parser for the supported source grammar.

Recognized shapes: one package declaration, imports, top-level classes with a
single extends clause, fields, methods, and constructors with statement
bodies. Interfaces, enums, annotations, nested classes, lambdas, and
initializer blocks are outside the subset and are skipped with a warning.

A unit keeps declarations only. Parameters and fields are the model's own
``ParameterDecl`` and ``AttributeDecl`` records, which ``build_model`` keeps
as they are; each field comes paired with its name's token index, for the
duplicate-field error. A method body becomes a flat list of dependency
events, appended as the body is parsed (syntax-directed translation);
``build_model`` resolves them. Each event is a plain tuple:

* ``("local", name, type)``: a local variable enters scope, after its own
  initializer; a for-each variable after its iterable;
* ``("field", token, name, on_this)``: a field is selected, ``on_this`` when
  the receiver is an unparenthesized ``this``;
* ``("call", token, name, receiver)``: a method is called;
* ``("name", token, name)``: an unparenthesized simple name is the receiver
  of a call, a field selection or ``.class``.

A call's ``receiver`` is None (no receiver), ``"this"``, ``"super"``,
``"new T"``, a simple name, or ``""`` for anything else; parentheses around
it are dropped. ``token`` is the index of the name's token. Events come in
source order. A field initializer is parsed and checked like any expression,
but its events are dropped.

``_STATEMENT_HANDLERS`` maps each token that opens a statement to its reader;
any other keyword is an unsupported statement, and any other token opens a
local declaration or an expression statement. An expression is read by one
loop, which keeps its binary operators on an explicit stack (shunting-yard
over ``_BINARY_PRECEDENCE``). Chains are read in loops, so their length costs
no stack: prefix operators and casts, postfix selections and calls, binary
operators, assignments, the false branches of ``?:`` and ``else if`` arms.
Each statement, expression, array initializer and stacked operator opens a
level with ``_nest`` and closes it once read; nesting past ``_MAX_NESTING``
is a syntax problem, so no input can exhaust the interpreter's stack.

Tokens are read by index from the file's ``Tokens.texts``. For the length
of a parse that list runs two entries past the last token, as ``""``, so any
lookahead reads past the end without a bounds check and finds "no token"
there. A token's kind is derived from its text where a rule needs it.
Declarations, events and failures carry token indexes; an index becomes a
line and column only when a diagnostic is made.

Each syntax problem is an error, and parsing resumes at the next top-level
declaration; ``extractor.parse_project`` applies the mode to the diagnostics.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, error, warning
from .lexer import KEYWORDS, PRIMITIVE_TYPES, Positions, Tokens, TokenKind, token_kind
from .model import AccessLevel, AttributeDecl, ParameterDecl

_ACCESS_KEYWORDS = {
    "public": AccessLevel.PUBLIC,
    "private": AccessLevel.PRIVATE,
    "protected": AccessLevel.PROTECTED,
}

_MODIFIERS = frozenset(
    [*_ACCESS_KEYWORDS, "static", "final", "abstract", "native", "synchronized", "transient", "volatile", "strictfp"]
)

# Tokens that can open a top-level declaration; recovery after a problem resumes at one.
_TOP_LEVEL_START = frozenset(
    ["class", "interface", "enum", "public", "private", "protected", "abstract", "strictfp", "import", "package"]
)

# Ends the message of a syntax problem that lenient mode reports as a warning.
RECOVERY_NOTE = " (skipping to next top-level declaration)"

_LITERAL_KEYWORDS = frozenset(["true", "false", "null"])

_ASSIGN_OPERATORS = frozenset(
    ["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="]
)

_PREFIX_OPERATORS = frozenset(["+", "-", "!", "~", "++", "--"])

# Binary operators and their precedence, loosest first; all are left-associative.
# A type operand (after ``instanceof``) is followed by no operator binding
# tighter than its own level.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7, "instanceof": 7,
    "<<": 8, ">>": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

# Tokens at which a type lookahead's scan of generic arguments gives up. The
# declaration and cast lookaheads stop at different sets; which trees come out
# depends on both, so they are kept as they are.
_DECLARATION_TYPE_STOPS = frozenset([";", ")", "{", "}"])
_CAST_TYPE_STOPS = frozenset([";", "{", "}"])

# Deepest nesting the parser accepts (see the module docstring). It sits well
# above hand-written code and the generated benchmark sources (50 nested
# parentheses), and low enough that the deepest accepted input uses about
# 300 interpreter frames: at most three per level, for a constructor argument.
_MAX_NESTING = 100

_IDENTIFIER = TokenKind.IDENTIFIER

# Tokens after a parenthesized name that make it a cast, besides names and literals.
_CAST_OPERAND_STARTS = frozenset(["this", "super", "new", *_LITERAL_KEYWORDS, "(", "!", "~"])


class _ParseFailure(Exception):
    """A syntax problem at token index ``token``; -1 when the file has no tokens."""

    def __init__(self, message: str, token: int):
        super().__init__(message)
        self.message = message
        self.token = token


class MethodSyntax:
    """A method or constructor; constructors carry the class name as return
    type. ``events`` are its body's dependency events (module docstring)."""

    __slots__ = ("name", "token", "access_level", "return_type", "parameters", "events")

    def __init__(self, name: str, token: int, access_level: AccessLevel, return_type: str) -> None:
        self.name, self.token, self.access_level, self.return_type = name, token, access_level, return_type
        self.parameters: list[ParameterDecl] = []
        self.events: list[tuple] = []


class ClassSyntax:
    __slots__ = ("name", "token", "access_level", "superclass", "fields", "methods")

    def __init__(self, name: str, token: int, access_level: AccessLevel) -> None:
        self.name, self.token, self.access_level = name, token, access_level
        self.superclass: str | None = None
        # The model's own records, which build_model keeps; each with its name's token index.
        self.fields: list[tuple[int, AttributeDecl]] = []
        self.methods: list[MethodSyntax] = []


class CompilationUnit:
    """One file's declarations, and the positions of its tokens."""

    __slots__ = ("file", "positions", "package", "imports", "classes")

    def __init__(self, file: str, positions: Positions) -> None:
        self.file, self.positions = file, positions
        self.package: str | None = None
        self.imports: list[str] = []
        self.classes: list[ClassSyntax] = []


def _append_type_text(buffer: str, text: str) -> str:
    if text == ",":
        return buffer + ", "
    if buffer and buffer[-1] not in "<.( " and token_kind(text) is not TokenKind.PUNCTUATION:
        return buffer + " " + text
    return buffer + text


class _Parser:
    def __init__(self, texts: list[str], end: int, positions: Positions, file: str):
        self.texts = texts  # padded past ``end`` by parse_compilation_unit
        self.end = end
        self.positions = positions
        self.file = file
        self.pos = 0
        self.depth = 0
        # Where events go: the body's list while a method body is parsed.
        self.events: list[tuple] = []
        self.diagnostics: list[Diagnostic] = []

    # ------------------------------------------------------------------
    # token plumbing

    def _at_end(self) -> bool:
        return self.pos >= self.end

    def _advance(self) -> int:
        self.pos += 1
        return self.pos - 1

    def _check(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def _match(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def _failure_token(self) -> int:
        """The current token, or past the end the last one (-1 when there are none)."""
        return self.pos if self.pos < self.end else self.end - 1

    def _fail(self, message: str) -> _ParseFailure:
        found = self.texts[self.pos]
        detail = f"{message}, found {found!r}" if found else f"{message}, found end of file"
        return _ParseFailure(detail, self._failure_token())

    def _expect_text(self, text: str, context: str) -> int:
        if self.texts[self.pos] != text:
            raise self._fail(f"expected {text!r} {context}")
        return self._advance()

    def _expect_identifier(self, context: str) -> int:
        if token_kind(self.texts[self.pos]) is not _IDENTIFIER:
            raise self._fail(f"expected identifier {context}")
        return self._advance()

    def _add(self, make, message: str, token: int) -> None:
        """Add ``make`` (``error`` or ``warning``) at token index ``token``; -1 means 1:1."""
        line, column = self.positions.position(token) if token >= 0 else (1, 1)
        self.diagnostics.append(make(message, self.file, line, column))

    def _nest(self) -> None:
        """Open one nesting level, which its reader closes with ``self.depth -= 1``;
        the level past ``_MAX_NESTING`` fails at the current token."""
        if self.depth == _MAX_NESTING:
            raise _ParseFailure("nesting too deep", self._failure_token())
        self.depth += 1

    # ------------------------------------------------------------------
    # compilation unit

    def parse_unit(self) -> tuple[CompilationUnit, list[Diagnostic]]:
        unit = CompilationUnit(self.file, self.positions)
        try:
            self._skip_annotations()
            if self._check("package"):
                self._advance()
                unit.package = self._parse_qualified_name("after 'package'")
                self._expect_text(";", "after package name")
            while True:
                self._skip_annotations()
                if not self._check("import"):
                    break
                self._advance()
                self._match("static")
                name = self._parse_qualified_name("after 'import'")
                if self._match("."):
                    self._expect_text("*", "in import")
                    name += ".*"
                self._expect_text(";", "after import")
                unit.imports.append(name)
        except _ParseFailure as failure:
            self._report(failure)
            self._synchronize_top_level()

        while not self._at_end():
            start_pos = self.pos
            try:
                self._skip_annotations()
                if self._at_end():
                    break
                if self._match(";"):
                    continue
                access = self._parse_modifiers()
                text = self.texts[self.pos]
                if not text:
                    break
                if text == "class":
                    self._advance()
                    unit.classes.append(self._parse_class(access))
                elif text in ("interface", "enum"):
                    self._add(warning, f"unsupported construct: {text} declaration (skipped)", self._advance())
                    self._skip_declaration_with_body()
                else:
                    raise self._fail("expected class declaration")
            except _ParseFailure as failure:
                self._report(failure)
                if self.pos == start_pos:
                    self.pos += 1
                self._synchronize_top_level()

        return unit, self.diagnostics

    def _report(self, failure: _ParseFailure) -> None:
        """Record a syntax problem as an error."""
        self.depth = 0  # no reader closes its level as a failure unwinds it
        self._add(error, failure.message, failure.token)

    def _synchronize_top_level(self) -> None:
        depth = 0
        while not self._at_end():
            text = self.texts[self.pos]
            if text == "{":
                depth += 1
            elif text == "}":
                if depth > 0:
                    depth -= 1
            elif depth == 0 and (text in _TOP_LEVEL_START or text == "@"):
                return
            self.pos += 1

    # ------------------------------------------------------------------
    # shared pieces

    def _skip_annotations(self) -> None:
        while self._check("@"):
            self._add(warning, "unsupported construct: annotation (skipped)", self._advance())
            self._expect_identifier("after '@'")
            while self._match("."):
                self._expect_identifier("in annotation name")
            if self._check("("):
                self._skip_balanced("(", ")")

    def _parse_modifiers(self) -> AccessLevel:
        access: AccessLevel | None = None
        while self.texts[self.pos] in _MODIFIERS:
            if access is None:
                access = _ACCESS_KEYWORDS.get(self.texts[self.pos])
            self.pos += 1
        return access if access is not None else AccessLevel.PACKAGE_PRIVATE

    def _parse_qualified_name(self, context: str) -> str:
        texts = self.texts
        parts = [texts[self._expect_identifier(context)]]
        while texts[self.pos] == "." and token_kind(texts[self.pos + 1]) is _IDENTIFIER:
            parts.append(texts[self.pos + 1])
            self.pos += 2
        return ".".join(parts)

    def _parse_type(self, context: str) -> str:
        text = self.texts[self.pos]
        if text in PRIMITIVE_TYPES or text == "void":
            self.pos += 1
        elif token_kind(text) is _IDENTIFIER:
            text = self._parse_qualified_name(context)
        else:
            raise self._fail(f"expected type {context}")
        if self._check("<"):
            text = self._consume_generic_arguments(text)
        return text + self._parse_dims()

    def _parse_dims(self) -> str:
        """Consume ``[]`` pairs; returns one ``[]`` per pair."""
        dims = ""
        while self.texts[self.pos] == "[" and self.texts[self.pos + 1] == "]":
            self.pos += 2
            dims += "[]"
        return dims

    def _consume_generic_arguments(self, text: str) -> str:
        end, closed = self._scan_generic_arguments(self.pos, frozenset())
        if not closed:
            self.pos = end
            problem = "expected '>' closing" if self._at_end() else "unbalanced '>' in"
            raise self._fail(f"{problem} generic arguments")
        for token_text in self.texts[self.pos:end]:
            text = _append_type_text(text, token_text)
        self.pos = end
        return text

    def _scan_generic_arguments(self, index: int, stops: frozenset[str]) -> tuple[int, bool]:
        """Look ahead over generic arguments opening at ``index``.

        Returns the index just past them and True, or the index where they
        break off (end of file, a token in ``stops``, an unbalanced ``>``)
        and False.
        """
        depth = 0
        while index < self.end:
            text = self.texts[index]
            if text in stops:
                break
            if text == "<":
                depth += 1
            elif text in (">", ">>", ">>>"):
                depth -= len(text)
                if depth < 0:
                    break
            index += 1
            if depth == 0:
                return index, True
        return index, False

    def _skip_balanced(self, opener: str, closer: str) -> None:
        open_token = self._expect_text(opener, "")
        depth = 1
        while depth > 0:
            if self._at_end():
                raise _ParseFailure(f"unexpected end of file, unclosed {opener!r}", open_token)
            text = self.texts[self._advance()]
            if text == opener:
                depth += 1
            elif text == closer:
                depth -= 1

    def _skip_declaration_with_body(self) -> None:
        """Consume the rest of a skipped declaration, including its brace block."""
        while not self._at_end():
            if self._check("{"):
                self._skip_balanced("{", "}")
                return
            if self._match(";"):
                return
            self._advance()
        raise self._fail("unexpected end of file in skipped declaration")

    # ------------------------------------------------------------------
    # class members

    def _parse_class(self, access: AccessLevel) -> ClassSyntax:
        name = self._expect_identifier("after 'class'")
        cls = ClassSyntax(self.texts[name], name, access)
        if self._check("<"):
            self._add(warning, "unsupported construct: generic type parameters (skipped)", self.pos)
            self._consume_generic_arguments("")
        if self._match("extends"):
            cls.superclass = self._parse_type("after 'extends'")
        if self._match("implements"):
            self._parse_type("after 'implements'")
            while self._match(","):
                self._parse_type("in implements clause")
        self._expect_text("{", "to open class body")
        while not self._check("}"):
            if self._at_end():
                raise _ParseFailure(f"unexpected end of file in class {cls.name!r}", name)
            self._parse_member(cls)
        self._expect_text("}", "to close class body")
        return cls

    def _parse_member(self, cls: ClassSyntax) -> None:
        self._skip_annotations()
        if self._match(";"):
            return
        access = self._parse_modifiers()
        text = self.texts[self.pos]
        if not text:
            raise self._fail("unexpected end of file in class body")
        if text == "{":
            self._add(warning, "unsupported construct: initializer block (skipped)", self.pos)
            self._skip_balanced("{", "}")
            return
        if text in ("class", "interface", "enum"):
            self._add(warning, f"unsupported construct: nested {text} (skipped)", self._advance())
            self._skip_declaration_with_body()
            return
        # The class name is an identifier, so a token with its text is one too.
        if text == cls.name and self.texts[self.pos + 1] == "(":
            cls.methods.append(self._parse_method(self._advance(), access, cls.name))
            return
        type_text = self._parse_type("for member declaration")
        name = self._expect_identifier("for member name")
        if self._check("("):
            cls.methods.append(self._parse_method(name, access, type_text))
            return
        # Nothing reads a field initializer's events.
        self.events = []
        for token, declared_type in self._parse_declarators(type_text, name, "field declaration"):
            cls.fields.append((token, AttributeDecl(self.texts[token], access, declared_type)))
        self._expect_text(";", "after field declaration")

    def _parse_method(self, name: int, access: AccessLevel, return_type: str) -> MethodSyntax:
        method = MethodSyntax(self.texts[name], name, access, return_type)
        self._expect_text("(", "to open parameter list")
        if not self._check(")"):
            while True:
                self._match("final")
                param_type = self._parse_type("for parameter")
                param_name = self._expect_identifier("for parameter name")
                method.parameters.append(ParameterDecl(self.texts[param_name], param_type + self._parse_dims()))
                if not self._match(","):
                    break
        self._expect_text(")", "to close parameter list")
        if self._match("throws"):
            self._parse_qualified_name("after 'throws'")
            while self._match(","):
                self._parse_qualified_name("in throws clause")
        if not self._match(";"):
            self.events = method.events
            self._parse_block()
        return method

    # ------------------------------------------------------------------
    # statements

    def _parse_block(self) -> None:
        self._expect_text("{", "to open block")
        while not self._check("}"):
            if self._at_end():
                raise self._fail("unexpected end of file in block")
            self._parse_statement()
        self._expect_text("}", "to close block")

    def _parse_statement(self) -> None:
        text = self.texts[self.pos]
        if not text:
            raise self._fail("expected statement")
        self._nest()
        handler = _STATEMENT_HANDLERS.get(text)
        if handler is not None:
            handler(self)
        elif text in KEYWORDS:
            raise self._fail(f"unsupported statement {text!r}")
        elif self._looks_like_local_declaration(self.pos):
            self._parse_local_declaration()
        else:
            self._parse_expression_statement()
        self.depth -= 1

    def _parse_jump(self) -> None:
        """``break`` or ``continue``."""
        keyword = self.texts[self._advance()]
        self._expect_text(";", f"after {keyword!r}")

    def _parse_final_declaration(self) -> None:
        self._advance()
        if not self._looks_like_local_declaration(self.pos):
            raise self._fail("expected declaration after 'final'")
        self._parse_local_declaration()

    def _parse_expression_statement(self) -> None:
        self._parse_expression()
        self._expect_text(";", "after expression")

    def _parse_return(self) -> None:
        self._advance()
        if not self._check(";"):
            self._parse_expression()
        self._expect_text(";", "after return value")

    def _parse_throw(self) -> None:
        self._advance()
        self._parse_expression()
        self._expect_text(";", "after thrown value")

    def _parse_if(self) -> None:
        """An ``if`` and its ``else if`` arms, read in a loop."""
        while True:
            self._advance()
            self._expect_text("(", "after 'if'")
            self._parse_expression()
            self._expect_text(")", "after if condition")
            self._parse_statement()
            if not self._match("else"):
                return
            if not self._check("if"):
                self._parse_statement()
                return

    def _parse_while(self) -> None:
        self._advance()
        self._expect_text("(", "after 'while'")
        self._parse_expression()
        self._expect_text(")", "after while condition")
        self._parse_statement()

    def _parse_do_while(self) -> None:
        self._advance()
        self._parse_statement()
        self._expect_text("while", "after do body")
        self._expect_text("(", "after 'while'")
        self._parse_expression()
        self._expect_text(")", "after do-while condition")
        self._expect_text(";", "after do-while")

    def _parse_for(self) -> None:
        self._advance()
        self._expect_text("(", "after 'for'")

        if not self._match(";"):
            final = self._match("final")
            is_declaration = self._looks_like_local_declaration(self.pos)
            if final and not is_declaration:
                raise self._fail("expected declaration after 'final'")
            if is_declaration:
                type_text = self._parse_type("in for initializer")
                name = self._expect_identifier("in for initializer")
                after_name = self.pos
                dims = self._parse_dims()
                if self._match(":"):
                    self._parse_expression()
                    self._expect_text(")", "after for-each iterable")
                    # The variable enters scope after the iterable.
                    self.events.append(("local", self.texts[name], type_text + dims))
                    self._parse_statement()
                    return
                self.pos = after_name  # the declarators read each name's dims
                self._parse_declarators(type_text, name)
            else:
                self._parse_expression_list()
            self._expect_text(";", "after for initializer")

        if not self._match(";"):
            self._parse_expression()
            self._expect_text(";", "after for condition")

        if not self._check(")"):
            self._parse_expression_list()
        self._expect_text(")", "after for clauses")
        self._parse_statement()

    def _parse_expression_list(self) -> None:
        self._parse_expression()
        while self._match(","):
            self._parse_expression()

    def _scan_type(self, index: int, stops: frozenset[str]) -> tuple[int, bool] | None:
        """Look ahead for a type starting at ``index`` without consuming it.

        Returns the index just past the type and whether its shape (primitive,
        generic arguments or ``[]``) rules out an expression, or None when no
        type starts there or its generic arguments hold a token from ``stops``.
        """
        texts = self.texts
        text = texts[index]
        if text in PRIMITIVE_TYPES:
            definite = True
            index += 1
        elif token_kind(text) is _IDENTIFIER:
            definite = False
            index += 1
            while texts[index] == "." and token_kind(texts[index + 1]) is _IDENTIFIER:
                index += 2
            if self.texts[index] == "<":
                definite = True
                index, closed = self._scan_generic_arguments(index, stops)
                if not closed:
                    return None
        else:
            return None
        while self.texts[index] == "[" and self.texts[index + 1] == "]":
            index += 2
            definite = True
        return index, definite

    def _looks_like_local_declaration(self, index: int) -> bool:
        scanned = self._scan_type(index, _DECLARATION_TYPE_STOPS)
        if scanned is None:
            return False
        return token_kind(self.texts[scanned[0]]) is _IDENTIFIER

    def _parse_local_declaration(self) -> None:
        type_text = self._parse_type("in declaration")
        name = self._expect_identifier("in declaration")
        self._parse_declarators(type_text, name)
        self._expect_text(";", "after declaration")

    def _parse_declarators(self, type_text: str, name: int, context: str = "declaration") -> list[tuple[int, str]]:
        """Each variable's name token and type; a ``[]`` suffix after a name
        widens just that variable. Each enters scope after its initializer."""
        declared = []
        while True:
            declared_type = type_text + self._parse_dims()
            if self._match("="):
                self._parse_variable_initializer()
            self.events.append(("local", self.texts[name], declared_type))
            declared.append((name, declared_type))
            if not self._match(","):
                return declared
            name = self._expect_identifier(f"after ',' in {context}")

    def _parse_variable_initializer(self) -> None:
        if self._check("{"):
            self._parse_array_initializer()
        else:
            self._parse_expression()

    def _parse_array_initializer(self) -> None:
        self._expect_text("{", "to open array initializer")
        self._nest()
        while not self._check("}"):
            if self._at_end():
                raise self._fail("unexpected end of file in array initializer")
            self._parse_variable_initializer()
            if not self._match(","):
                break
        self._expect_text("}", "to close array initializer")
        self.depth -= 1

    # ------------------------------------------------------------------
    # expressions
    #
    # Each returns the expression's receiver, as a call's event records it
    # (module docstring): ``""`` unless the expression is a name, ``this``,
    # ``super`` or ``new T(...)``, in any number of parentheses.

    def _parse_expression(self) -> str:
        """A whole expression, read in one loop (module docstring): each pass
        reads one operand, prefixes and postfixes included, and the operator
        after it. ``pending`` holds one entry per nesting level: 0 for the
        expression's own, then each open binary operator's precedence; an
        operator first pops every entry binding at least as tightly, as all
        are left-associative. A false branch of ``?:`` takes no assignment:
        ``a ? b : c = d`` assigns to the whole conditional."""
        texts = self.texts
        self._nest()
        pending = [0]
        # False once anything but one unprefixed operand has been read.
        plain = True
        while True:
            text = texts[self.pos]
            while text in _PREFIX_OPERATORS or (text == "(" and self._looks_like_cast()):
                self.pos += 1
                plain = False
                if text == "(":
                    self._parse_type("in cast")
                    self._expect_text(")", "after cast type")
                text = texts[self.pos]
            # The primary and its postfix selections, calls, indexes and ``++``/``--``.
            start = self.pos
            kind = token_kind(text)
            if kind is _IDENTIFIER or text == "this" or text == "super":
                self.pos += 1
                receiver = text
            elif kind is TokenKind.LITERAL or text in _LITERAL_KEYWORDS:
                self.pos += 1
                receiver = ""
            elif text == "new":
                receiver = self._parse_creator()
            elif text in PRIMITIVE_TYPES or text == "void":
                self.pos += 1
                self._expect_text(".", "after primitive type in expression")
                self._expect_text("class", "after '.'")
                receiver = ""
            elif text == "(":
                self.pos += 1
                receiver = self._parse_expression()
                self._expect_text(")", "after parenthesized expression")
            else:
                raise self._fail("expected expression")
            # Only the first postfix finds the operand still one token: a
            # simple name, ``this`` or ``super`` that no parentheses enclose.
            while True:
                text = texts[self.pos]
                if text == ".":
                    one_token = self.pos == start + 1
                    if one_token and kind is _IDENTIFIER:
                        self.events.append(("name", start, receiver))
                    if texts[self.pos + 1] == "class":
                        self.pos += 2
                    else:
                        self.pos += 1
                        name = self._expect_identifier("after '.'")
                        if texts[self.pos] == "(":
                            self.events.append(("call", name, texts[name], receiver))
                            self._parse_arguments()
                        else:
                            self.events.append(("field", name, texts[name], one_token and receiver == "this"))
                elif text == "(":
                    if self.pos != start + 1 or not receiver:
                        raise self._fail("expression is not callable")
                    if kind is _IDENTIFIER:
                        self.events.append(("call", start, receiver, None))
                    # Otherwise ``this(...)`` or ``super(...)``: a constructor
                    # delegation, which calls no method.
                    self._parse_arguments()
                elif text == "[":
                    self.pos += 1
                    self._parse_expression()
                    self._expect_text("]", "after array index")
                elif text in ("++", "--"):
                    self.pos += 1
                else:
                    break
                receiver = ""

            operator = texts[self.pos]
            while operator in _BINARY_PRECEDENCE:
                precedence = _BINARY_PRECEDENCE[operator]
                self.pos += 1
                plain = False
                while pending[-1] >= precedence:
                    pending.pop()
                    self.depth -= 1
                if operator != "instanceof":
                    self._nest()
                    pending.append(precedence)
                    break  # to its right operand
                self._parse_type("after 'instanceof'")
                operator = texts[self.pos]
                if _BINARY_PRECEDENCE.get(operator, 0) > precedence:
                    operator = ""  # a type operand takes no tighter operator
            else:
                # The binary expression ends: release its operator levels.
                if pending[-1]:
                    self.depth -= len(pending) - 1
                    del pending[1:]
                text = texts[self.pos]
                if text != "?" and text not in _ASSIGN_OPERATORS:
                    self.depth -= 1
                    return receiver if plain else ""
                self.pos += 1
                plain = False
                if text == "?":
                    self._parse_expression()
                    self._expect_text(":", "in conditional expression")

    def _looks_like_cast(self) -> bool:
        scanned = self._scan_type(self.pos + 1, _CAST_TYPE_STOPS)
        if scanned is None:
            return False
        index, definite = scanned
        operand = self.texts[index + 1]
        if self.texts[index] != ")" or not operand:
            return False
        if definite or operand in _CAST_OPERAND_STARTS:
            return True
        kind = token_kind(operand)
        return kind is _IDENTIFIER or kind is TokenKind.LITERAL

    def _parse_creator(self) -> str:
        """``new T(...)``, whose receiver is ``"new T"``, or an array creation."""
        self.pos += 1
        type_text = self._parse_type("after 'new'")
        if self._check("("):
            self._parse_arguments()
            if self._check("{"):
                self._add(warning, "unsupported construct: anonymous class body (skipped)", self.pos)
                self._skip_balanced("{", "}")
            return "new " + type_text
        if self._check("[") or self._check("{"):
            while self._match("["):
                if not self._check("]"):
                    self._parse_expression()
                self._expect_text("]", "in array creation")
            if self._check("{"):
                self._parse_array_initializer()
            return ""
        raise self._fail("expected constructor arguments or array dimensions after 'new'")

    def _parse_arguments(self) -> None:
        self._expect_text("(", "to open arguments")
        if not self._check(")"):
            self._parse_expression()
            while self._match(","):
                self._parse_expression()
        self._expect_text(")", "to close arguments")


# The reader of each statement, by its first token (module docstring).
_STATEMENT_HANDLERS = {
    "{": _Parser._parse_block,
    ";": _Parser._advance,
    "break": _Parser._parse_jump,
    "continue": _Parser._parse_jump,
    "final": _Parser._parse_final_declaration,
    **dict.fromkeys(PRIMITIVE_TYPES, _Parser._parse_local_declaration),
    **dict.fromkeys(["this", "super", "new", *_LITERAL_KEYWORDS], _Parser._parse_expression_statement),
    "return": _Parser._parse_return,
    "throw": _Parser._parse_throw,
    "if": _Parser._parse_if,
    "while": _Parser._parse_while,
    "do": _Parser._parse_do_while,
    "for": _Parser._parse_for,
}


def parse_compilation_unit(tokens: Tokens, file: str = "<source>") -> tuple[CompilationUnit, list[Diagnostic]]:
    """Parse one file's tokens.

    Returns the unit, which holds every declaration that survived recovery,
    plus diagnostics: an error for each syntax problem and a warning for each
    unsupported construct skipped.
    """
    texts = tokens.texts
    end = len(texts)
    # Two pads, taken off again below, so the parse needs no copy of the
    # texts: a cast lookahead reads the token after a type ending the file.
    texts += ("", "")
    try:
        return _Parser(texts, end, tokens.positions, file).parse_unit()
    finally:
        del texts[end:]
