"""Recursive-descent parser for the supported source grammar.

Recognized shapes: one package declaration, imports, top-level classes with a
single extends clause, fields, methods, and constructors with statement
bodies. Interfaces, enums, annotations, nested classes, lambdas, and
initializer blocks are outside the subset and are skipped with a warning.

Expressions are parsed by precedence climbing over ``_BINARY_PRECEDENCE``:
one loop per operand, recursing only for a tighter-binding right operand.
Chains are read in loops and folded afterwards, so their length costs no
stack: prefix operators and casts, assignments, the false branches of ``?:``
and ``else if`` arms. Every construct that nests (statements within
statements, expressions within expressions, binary right operands, array
initializers) counts towards ``_MAX_NESTING``; input nested deeper is a syntax
problem, so no input can exhaust the interpreter's stack.

Tokens are read by index from the file's ``Tokens.texts``. For the length
of a parse that list runs two entries past the last token, as ``""``, so any
lookahead reads past the end without a bounds check and finds "no token"
there. A token's kind is derived from its text where a rule needs it. Nodes
and failures carry token indexes; an index becomes a line and column only
when a diagnostic is made.

Strict mode stops at the first syntax problem in a file; lenient mode records
it as a warning and resumes at the next top-level declaration.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, error, warning
from .lexer import KEYWORDS, PRIMITIVE_TYPES, Positions, Tokens, TokenKind, token_kind
from .model import AccessLevel
from . import syntax as syn

_ACCESS_KEYWORDS = {
    "public": AccessLevel.PUBLIC,
    "private": AccessLevel.PRIVATE,
    "protected": AccessLevel.PROTECTED,
}

_MODIFIERS = frozenset(
    [*_ACCESS_KEYWORDS, "static", "final", "abstract", "native", "synchronized", "transient", "volatile", "strictfp"]
)

# Tokens that can open a top-level declaration; used for lenient-mode recovery.
_TOP_LEVEL_START = frozenset(
    ["class", "interface", "enum", "public", "private", "protected", "abstract", "strictfp", "import", "package"]
)

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
# 600 interpreter frames: at most six per level, for a constructor argument.
_MAX_NESTING = 100
_INSTANCEOF_PRECEDENCE = _BINARY_PRECEDENCE["instanceof"]

_IDENTIFIER = TokenKind.IDENTIFIER

# Tokens after a parenthesized name that make it a cast, besides names and literals.
_CAST_OPERAND_STARTS = frozenset(["this", "super", "new", *_LITERAL_KEYWORDS, "(", "!", "~"])


class _ParseFailure(Exception):
    """A syntax problem at token index ``token``; -1 when the file has no tokens."""

    def __init__(self, message: str, token: int):
        super().__init__(message)
        self.message = message
        self.token = token


def _append_type_text(buffer: str, text: str) -> str:
    if text == ",":
        return buffer + ", "
    if buffer and buffer[-1] not in "<.( " and token_kind(text) is not TokenKind.PUNCTUATION:
        return buffer + " " + text
    return buffer + text


class _Parser:
    def __init__(self, texts: list[str], end: int, positions: Positions, file: str, strict: bool):
        self.texts = texts  # padded past ``end`` by parse_compilation_unit
        self.end = end
        self.positions = positions
        self.file = file
        self.strict = strict
        self.pos = 0
        self.depth = 0
        # Token index just past the type operand of the latest ``instanceof``.
        self.type_operand_end = -1
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

    def _diagnostic(self, make, message: str, token: int) -> Diagnostic:
        """``make`` (``error`` or ``warning``) at token index ``token``; -1 means 1:1."""
        line, column = self.positions.position(token) if token >= 0 else (1, 1)
        return make(message, self.file, line, column)

    def _warn_at(self, message: str, token: int) -> None:
        self.diagnostics.append(self._diagnostic(warning, message, token))

    def __enter__(self) -> None:
        """``with self:`` spans one nesting level; the level past ``_MAX_NESTING``
        fails at the current token."""
        if self.depth == _MAX_NESTING:
            raise _ParseFailure("nesting too deep", self._failure_token())
        self.depth += 1

    def __exit__(self, *exc_info: object) -> None:
        self.depth -= 1

    # ------------------------------------------------------------------
    # compilation unit

    def parse_unit(self) -> tuple[syn.CompilationUnit | None, list[Diagnostic]]:
        unit = syn.CompilationUnit(self.file, self.positions)
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
            if not self._handle_failure(failure):
                return None, self.diagnostics
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
                    self._warn_at(f"unsupported construct: {text} declaration (skipped)", self._advance())
                    self._skip_declaration_with_body()
                else:
                    raise self._fail("expected class declaration")
            except _ParseFailure as failure:
                if not self._handle_failure(failure):
                    return None, self.diagnostics
                if self.pos == start_pos:
                    self.pos += 1
                self._synchronize_top_level()

        return unit, self.diagnostics

    def _handle_failure(self, failure: _ParseFailure) -> bool:
        """Record a syntax problem; True means parsing may continue."""
        if self.strict:
            self.diagnostics.append(self._diagnostic(error, failure.message, failure.token))
        else:
            message = f"{failure.message} (skipping to next top-level declaration)"
            self.diagnostics.append(self._diagnostic(warning, message, failure.token))
        return not self.strict

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
            self._warn_at("unsupported construct: annotation (skipped)", self._advance())
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

    def _parse_class(self, access: AccessLevel) -> syn.ClassSyntax:
        name = self._expect_identifier("after 'class'")
        cls = syn.ClassSyntax(self.texts[name], name, access)
        if self._check("<"):
            self._warn_at("unsupported construct: generic type parameters (skipped)", self.pos)
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

    def _parse_member(self, cls: syn.ClassSyntax) -> None:
        self._skip_annotations()
        if self._match(";"):
            return
        access = self._parse_modifiers()
        text = self.texts[self.pos]
        if not text:
            raise self._fail("unexpected end of file in class body")
        if text == "{":
            self._warn_at("unsupported construct: initializer block (skipped)", self.pos)
            self._skip_balanced("{", "}")
            return
        if text in ("class", "interface", "enum"):
            self._warn_at(f"unsupported construct: nested {text} (skipped)", self._advance())
            self._skip_declaration_with_body()
            return
        # The class name is an identifier, so a token with its text is one too.
        if text == cls.name and self.texts[self.pos + 1] == "(":
            name = self._advance()
            cls.methods.append(self._parse_method(name, access, cls.name, is_constructor=True))
            return
        type_text = self._parse_type("for member declaration")
        name = self._expect_identifier("for member name")
        if self._check("("):
            cls.methods.append(self._parse_method(name, access, type_text, is_constructor=False))
        else:
            declaration = self._parse_declarator_list(type_text, name, "field declaration")
            self._expect_text(";", "after field declaration")
            for declarator in declaration.declarators:
                cls.fields.append(
                    syn.FieldSyntax(
                        declarator.name, declarator.token, access, type_text + declarator.extra_dims, declarator.initializer
                    )
                )

    def _parse_method(
        self, name: int, access: AccessLevel, return_type: str, is_constructor: bool
    ) -> syn.MethodSyntax:
        method = syn.MethodSyntax(self.texts[name], name, access, return_type, is_constructor)
        self._expect_text("(", "to open parameter list")
        if not self._check(")"):
            while True:
                self._match("final")
                param_type = self._parse_type("for parameter")
                param_name = self._expect_identifier("for parameter name")
                method.parameters.append(
                    syn.ParamSyntax(self.texts[param_name], param_name, param_type + self._parse_dims())
                )
                if not self._match(","):
                    break
        self._expect_text(")", "to close parameter list")
        if self._match("throws"):
            self._parse_qualified_name("after 'throws'")
            while self._match(","):
                self._parse_qualified_name("in throws clause")
        if not self._match(";"):
            method.body = self._parse_block()
        return method

    # ------------------------------------------------------------------
    # statements

    def _parse_block(self) -> syn.BlockStmt:
        self._expect_text("{", "to open block")
        block = syn.BlockStmt()
        while not self._check("}"):
            if self._at_end():
                raise self._fail("unexpected end of file in block")
            block.statements.append(self._parse_statement())
        self._expect_text("}", "to close block")
        return block

    def _parse_statement(self) -> syn.Stmt:
        text = self.texts[self.pos]
        if not text:
            raise self._fail("expected statement")
        with self:
            if text == "{":
                return self._parse_block()
            if text == ";":
                self._advance()
                return syn.EmptyStmt()
            if text in KEYWORDS:
                handler = _STATEMENT_HANDLERS.get(text)
                if handler is not None:
                    return handler(self)
                if text in ("break", "continue"):
                    self._advance()
                    self._expect_text(";", f"after {text!r}")
                    return syn.BreakStmt() if text == "break" else syn.ContinueStmt()
                if text == "final":
                    if self._looks_like_local_declaration(self.pos + 1):
                        self._advance()
                        return self._parse_local_declaration()
                    raise self._fail("expected declaration after 'final'")
                if text in PRIMITIVE_TYPES:
                    return self._parse_local_declaration()
                if text in ("this", "super", "new") or text in _LITERAL_KEYWORDS:
                    return self._parse_expression_statement()
                raise self._fail(f"unsupported statement {text!r}")
            if self._looks_like_local_declaration(self.pos):
                return self._parse_local_declaration()
            return self._parse_expression_statement()

    def _parse_expression_statement(self) -> syn.ExprStmt:
        expression = self._parse_expression()
        self._expect_text(";", "after expression")
        return syn.ExprStmt(expression)

    def _parse_return(self) -> syn.ReturnStmt:
        self._advance()
        value = None if self._check(";") else self._parse_expression()
        self._expect_text(";", "after return value")
        return syn.ReturnStmt(value)

    def _parse_throw(self) -> syn.ThrowStmt:
        self._advance()
        value = self._parse_expression()
        self._expect_text(";", "after thrown value")
        return syn.ThrowStmt(value)

    def _parse_if(self) -> syn.IfStmt:
        """An ``if`` and its ``else if`` arms, read in a loop and nested from the last."""
        arms: list[tuple[syn.Expr, syn.Stmt]] = []
        statement = None
        while True:
            self._advance()
            self._expect_text("(", "after 'if'")
            condition = self._parse_expression()
            self._expect_text(")", "after if condition")
            arms.append((condition, self._parse_statement()))
            if not self._match("else"):
                break
            if not self._check("if"):
                statement = self._parse_statement()
                break
        while arms:
            condition, then_branch = arms.pop()
            statement = syn.IfStmt(condition, then_branch, statement)
        return statement

    def _parse_while(self) -> syn.WhileStmt:
        self._advance()
        self._expect_text("(", "after 'while'")
        condition = self._parse_expression()
        self._expect_text(")", "after while condition")
        return syn.WhileStmt(condition, self._parse_statement())

    def _parse_do_while(self) -> syn.DoWhileStmt:
        self._advance()
        body = self._parse_statement()
        self._expect_text("while", "after do body")
        self._expect_text("(", "after 'while'")
        condition = self._parse_expression()
        self._expect_text(")", "after do-while condition")
        self._expect_text(";", "after do-while")
        return syn.DoWhileStmt(body, condition)

    def _parse_for(self) -> syn.Stmt:
        self._advance()
        self._expect_text("(", "after 'for'")

        init: syn.LocalDeclStmt | list[syn.Expr] | None = None
        if not self._match(";"):
            is_declaration = self._looks_like_local_declaration(self.pos)
            if self._check("final") and self._looks_like_local_declaration(self.pos + 1):
                self._advance()
                is_declaration = True
            if is_declaration:
                type_text = self._parse_type("in for initializer")
                name = self._expect_identifier("in for initializer")
                if self._match(":"):
                    iterable = self._parse_expression()
                    self._expect_text(")", "after for-each iterable")
                    return syn.ForEachStmt(type_text, self.texts[name], name, iterable, self._parse_statement())
                init = self._parse_declarator_list(type_text, name)
                self._expect_text(";", "after for initializer")
            else:
                init = [self._parse_expression()]
                while self._match(","):
                    init.append(self._parse_expression())
                self._expect_text(";", "after for initializer")

        condition = None
        if not self._match(";"):
            condition = self._parse_expression()
            self._expect_text(";", "after for condition")

        update: list[syn.Expr] = []
        if not self._check(")"):
            update.append(self._parse_expression())
            while self._match(","):
                update.append(self._parse_expression())
        self._expect_text(")", "after for clauses")
        return syn.ForStmt(init, condition, update, self._parse_statement())

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

    def _parse_local_declaration(self) -> syn.LocalDeclStmt:
        type_text = self._parse_type("in declaration")
        name = self._expect_identifier("in declaration")
        declaration = self._parse_declarator_list(type_text, name)
        self._expect_text(";", "after declaration")
        return declaration

    def _parse_declarator_list(
        self, type_text: str, first_name: int, context: str = "declaration"
    ) -> syn.LocalDeclStmt:
        declaration = syn.LocalDeclStmt(type_text=type_text, declarators=[])
        name = first_name
        while True:
            dims = self._parse_dims()
            initializer = None
            if self._match("="):
                initializer = self._parse_variable_initializer()
            declaration.declarators.append(syn.Declarator(self.texts[name], name, initializer, dims))
            if self._match(","):
                name = self._expect_identifier(f"after ',' in {context}")
                continue
            return declaration

    def _parse_variable_initializer(self) -> syn.Expr:
        if self._check("{"):
            return self._parse_array_initializer()
        return self._parse_expression()

    def _parse_array_initializer(self) -> syn.ArrayInitExpr:
        self._expect_text("{", "to open array initializer")
        with self:
            values: list[syn.Expr] = []
            while not self._check("}"):
                if self._at_end():
                    raise self._fail("unexpected end of file in array initializer")
                values.append(self._parse_variable_initializer())
                if not self._match(","):
                    break
            self._expect_text("}", "to close array initializer")
            return syn.ArrayInitExpr(values)

    # ------------------------------------------------------------------
    # expressions

    def _parse_expression(self) -> syn.Expr:
        """Assignments (right-associative) to conditional expressions.

        Both chains are read in loops and nested from the right afterwards.
        A false branch of ``?:`` takes no assignment, so ``a ? b : c = d``
        assigns to the whole conditional.
        """
        with self:
            targets: list[tuple[syn.Expr, str]] = []
            while True:
                branches: list[tuple[syn.Expr, syn.Expr]] = []
                expression = self._parse_binary(1)
                while self._match("?"):
                    branches.append((expression, self._parse_expression()))
                    self._expect_text(":", "in conditional expression")
                    expression = self._parse_binary(1)
                while branches:
                    condition, if_true = branches.pop()
                    expression = syn.ConditionalExpr(condition, if_true, expression)
                operator = self.texts[self.pos]
                if operator not in _ASSIGN_OPERATORS:
                    break
                self.pos += 1
                targets.append((expression, operator))
            while targets:
                target, operator = targets.pop()
                expression = syn.AssignExpr(target, operator, expression)
            return expression

    def _parse_binary(self, min_precedence: int) -> syn.Expr:
        """Precedence climbing over operators binding at least ``min_precedence``."""
        left = self._parse_unary()
        while True:
            operator = self.texts[self.pos]
            precedence = _BINARY_PRECEDENCE.get(operator, 0)
            if precedence < min_precedence:
                return left
            if precedence > _INSTANCEOF_PRECEDENCE and self.pos == self.type_operand_end:
                return left
            self.pos += 1
            if operator == "instanceof":
                left = syn.InstanceofExpr(left, self._parse_type("after 'instanceof'"))
                self.type_operand_end = self.pos
                continue
            with self:
                left = syn.BinaryExpr(operator, left, self._parse_binary(precedence + 1))

    def _parse_unary(self) -> syn.Expr:
        """Prefix operators and casts, read in a loop and applied from the innermost."""
        prefixes: list[tuple[str, str | None]] = []
        operator = self.texts[self.pos]
        while operator in _PREFIX_OPERATORS or (operator == "(" and self._looks_like_cast()):
            self.pos += 1
            cast_type = None
            if operator == "(":
                cast_type = self._parse_type("in cast")
                self._expect_text(")", "after cast type")
            prefixes.append((operator, cast_type))
            operator = self.texts[self.pos]
        operand = self._parse_postfix(self._parse_primary())
        while prefixes:
            operator, cast_type = prefixes.pop()
            operand = syn.UnaryExpr(operator, operand) if cast_type is None else syn.CastExpr(cast_type, operand)
        return operand

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

    def _parse_primary(self) -> syn.Expr:
        text = self.texts[self.pos]
        kind = token_kind(text)
        if kind is _IDENTIFIER:
            return syn.NameExpr(text, self._advance())
        if kind is TokenKind.LITERAL or text in _LITERAL_KEYWORDS:
            return syn.LiteralExpr(self._advance())
        if kind is TokenKind.KEYWORD:
            if text == "this":
                return syn.ThisExpr(self._advance())
            if text == "super":
                return syn.SuperExpr(self._advance())
            if text == "new":
                return self._parse_creator()
            if text in PRIMITIVE_TYPES or text == "void":
                keyword = self._advance()
                self._expect_text(".", "after primitive type in expression")
                self._expect_text("class", "after '.'")
                return syn.ClassLiteralExpr(None, keyword)
        if text == "(":
            self._advance()
            inner = self._parse_expression()
            self._expect_text(")", "after parenthesized expression")
            return syn.ParenExpr(inner)
        raise self._fail("expected expression")

    def _parse_creator(self) -> syn.Expr:
        new_token = self._advance()
        type_text = self._parse_type("after 'new'")
        if self._check("("):
            arguments = self._parse_arguments()
            if self._check("{"):
                self._warn_at("unsupported construct: anonymous class body (skipped)", self.pos)
                self._skip_balanced("{", "}")
            return syn.NewExpr(type_text, arguments, new_token)
        if self._check("[") or self._check("{"):
            dimensions: list[syn.Expr] = []
            while self._match("["):
                if not self._check("]"):
                    dimensions.append(self._parse_expression())
                self._expect_text("]", "in array creation")
            initializer = None
            if self._check("{"):
                initializer = self._parse_array_initializer()
            return syn.ArrayCreationExpr(type_text, dimensions, initializer, new_token)
        raise self._fail("expected constructor arguments or array dimensions after 'new'")

    def _parse_arguments(self) -> list[syn.Expr]:
        self._expect_text("(", "to open arguments")
        arguments: list[syn.Expr] = []
        if not self._check(")"):
            arguments.append(self._parse_expression())
            while self._match(","):
                arguments.append(self._parse_expression())
        self._expect_text(")", "to close arguments")
        return arguments

    def _parse_postfix(self, expression: syn.Expr) -> syn.Expr:
        while True:
            text = self.texts[self.pos]
            if text == ".":
                if self.texts[self.pos + 1] == "class":
                    expression = syn.ClassLiteralExpr(expression, self.pos + 1)
                    self.pos += 2
                    continue
                self.pos += 1
                name = self._expect_identifier("after '.'")
                if self._check("("):
                    expression = syn.CallExpr(expression, self.texts[name], name, self._parse_arguments())
                else:
                    expression = syn.FieldSelectExpr(expression, self.texts[name], name)
                continue
            if text == "(":
                if isinstance(expression, syn.NameExpr):
                    expression = syn.CallExpr(None, expression.name, expression.token, self._parse_arguments())
                    continue
                if isinstance(expression, (syn.ThisExpr, syn.SuperExpr)):
                    expression = syn.ConstructorDelegationExpr(expression.token, self._parse_arguments())
                    continue
                raise self._fail("expression is not callable")
            if text == "[":
                self.pos += 1
                index = self._parse_expression()
                self._expect_text("]", "after array index")
                expression = syn.IndexExpr(expression, index)
                continue
            if text in ("++", "--"):
                self.pos += 1
                expression = syn.UnaryExpr(text, expression, prefix=False)
                continue
            return expression


# Statements that open with one of these keywords, read by the handler.
_STATEMENT_HANDLERS = {
    "return": _Parser._parse_return,
    "throw": _Parser._parse_throw,
    "if": _Parser._parse_if,
    "while": _Parser._parse_while,
    "do": _Parser._parse_do_while,
    "for": _Parser._parse_for,
}


def parse_compilation_unit(
    tokens: Tokens, file: str = "<source>", strict: bool = True
) -> tuple[syn.CompilationUnit | None, list[Diagnostic]]:
    """Parse one file's tokens.

    Returns the unit plus diagnostics; in strict mode a syntax problem yields
    ``(None, diagnostics)`` with a single error, in lenient mode problems are
    warnings and the unit holds every declaration that survived recovery.
    """
    texts = tokens.texts
    end = len(texts)
    # Two pads, taken off again below, so the parse needs no copy of the
    # texts: a cast lookahead reads the token after a type ending the file.
    texts += ("", "")
    try:
        return _Parser(texts, end, tokens.positions, file, strict).parse_unit()
    finally:
        del texts[end:]
