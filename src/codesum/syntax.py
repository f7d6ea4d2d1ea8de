"""Syntax tree produced by the parser.

Bodies keep just enough structure for dependency extraction: declarations,
expressions, member-access chains, calls, returns, and control-flow blocks.
A node's ``token`` is the index of its token in the file's ``Tokens``, and a
named node keeps the ``name`` text too. Index order is source order; the
unit's ``positions`` turns an index into a line and column for a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lexer import Positions
from .model import AccessLevel


class Expr:
    pass


class Stmt:
    pass


@dataclass
class NameExpr(Expr):
    name: str
    token: int


@dataclass
class ThisExpr(Expr):
    token: int


@dataclass
class SuperExpr(Expr):
    token: int


@dataclass
class LiteralExpr(Expr):
    token: int


@dataclass
class ClassLiteralExpr(Expr):
    """``Foo.class``; ``operand`` is None for primitive forms like ``int.class``."""

    operand: "Expr | None"
    token: int


@dataclass
class FieldSelectExpr(Expr):
    receiver: Expr
    name: str
    token: int


@dataclass
class CallExpr(Expr):
    """A method call; ``receiver`` is None for a bare call on the current object."""

    receiver: Expr | None
    name: str
    token: int
    arguments: list[Expr]


@dataclass
class ConstructorDelegationExpr(Expr):
    """``this(...)`` or ``super(...)`` inside a constructor body."""

    token: int
    arguments: list[Expr]


@dataclass
class NewExpr(Expr):
    type_text: str
    arguments: list[Expr]
    token: int


@dataclass
class ArrayCreationExpr(Expr):
    type_text: str
    dimensions: list[Expr]
    initializer: "ArrayInitExpr | None"
    token: int


@dataclass
class ArrayInitExpr(Expr):
    values: list[Expr]


@dataclass
class IndexExpr(Expr):
    array: Expr
    index: Expr


@dataclass
class UnaryExpr(Expr):
    operator: str
    operand: Expr
    prefix: bool = True


@dataclass
class BinaryExpr(Expr):
    operator: str
    left: Expr
    right: Expr


@dataclass
class AssignExpr(Expr):
    target: Expr
    operator: str
    value: Expr


@dataclass
class ConditionalExpr(Expr):
    condition: Expr
    if_true: Expr
    if_false: Expr


@dataclass
class CastExpr(Expr):
    type_text: str
    operand: Expr


@dataclass
class ParenExpr(Expr):
    inner: Expr


@dataclass
class InstanceofExpr(Expr):
    operand: Expr
    type_text: str


@dataclass
class Declarator:
    name: str
    token: int
    initializer: Expr | None
    # C-style suffix ("[]" per bracket pair) widening just this declarator.
    extra_dims: str = ""


@dataclass
class BlockStmt(Stmt):
    statements: list[Stmt] = field(default_factory=list)


@dataclass
class LocalDeclStmt(Stmt):
    type_text: str
    declarators: list[Declarator]


@dataclass
class ExprStmt(Stmt):
    expression: Expr


@dataclass
class ReturnStmt(Stmt):
    value: Expr | None


@dataclass
class ThrowStmt(Stmt):
    value: Expr


@dataclass
class IfStmt(Stmt):
    condition: Expr
    then_branch: Stmt
    else_branch: Stmt | None


@dataclass
class WhileStmt(Stmt):
    condition: Expr
    body: Stmt


@dataclass
class DoWhileStmt(Stmt):
    body: Stmt
    condition: Expr


@dataclass
class ForStmt(Stmt):
    init: "LocalDeclStmt | list[Expr] | None"
    condition: Expr | None
    update: list[Expr]
    body: Stmt


@dataclass
class ForEachStmt(Stmt):
    type_text: str
    name: str
    token: int
    iterable: Expr
    body: Stmt


@dataclass
class BreakStmt(Stmt):
    pass


@dataclass
class ContinueStmt(Stmt):
    pass


@dataclass
class EmptyStmt(Stmt):
    pass


@dataclass
class ParamSyntax:
    name: str
    token: int
    type_text: str


@dataclass
class FieldSyntax:
    name: str
    token: int
    access_level: AccessLevel
    type_text: str
    initializer: Expr | None = None


@dataclass
class MethodSyntax:
    """A method or constructor; constructors carry the class name as return type."""

    name: str
    token: int
    access_level: AccessLevel
    return_type: str
    is_constructor: bool
    parameters: list[ParamSyntax] = field(default_factory=list)
    body: BlockStmt | None = None


@dataclass
class ClassSyntax:
    name: str
    token: int
    access_level: AccessLevel
    superclass: str | None = None
    fields: list[FieldSyntax] = field(default_factory=list)
    methods: list[MethodSyntax] = field(default_factory=list)


@dataclass
class CompilationUnit:
    file: str
    positions: Positions = field(repr=False, compare=False)
    package: str | None = None
    imports: list[str] = field(default_factory=list)
    classes: list[ClassSyntax] = field(default_factory=list)
