"""Builds the project model from parse trees.

Dependency extraction walks each method body and records, in source order:

* attribute accesses: every simple name used as the receiver of a call or
  field selection (unless it is ``this`` or names a known type), and every
  selected field name outside call position; deduplicated by name, first
  occurrence wins;
* method invocations: every called method name, duplicates preserved.

Receivers resolve against locals, then parameters, then fields; unresolvable
names degrade to the ``unknown``/``external`` sentinels rather than failing.

Statements are walked recursively and in order, because a local is in scope
only after its declaration; an ``else if`` chain is walked in a loop.
Expressions are walked with an explicit stack in any order, driven by the
``_OPERANDS`` table; their events carry token indexes and are sorted by them
afterwards, since index order is source order, so no chain of calls or
operators costs a stack frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable

from . import syntax as syn
from .diagnostics import Diagnostic, Severity, error, warning
from .lexer import tokenize
from .model import (
    EXTERNAL_RECEIVER,
    UNKNOWN_TYPE,
    AttributeAccess,
    AttributeDecl,
    ClassDecl,
    CodeModel,
    LocalVariableDecl,
    MethodDecl,
    MethodInvocation,
    PackageDecl,
    ParameterDecl,
    validate_model,
)
from .parser import parse_compilation_unit

# Package used for classes whose file has no package declaration; the name is
# a reserved word in the grammar, so it cannot collide with a declared one.
DEFAULT_PACKAGE = "default"


@dataclass
class ResolutionContext:
    """Name-resolution scope for one method body."""

    enclosing_class: str
    superclass: str | None
    fields: dict[str, str]
    parameters: dict[str, str]
    known_types: set[str]
    locals: dict[str, str] = field(default_factory=dict)

    def resolve_variable(self, name: str) -> str | None:
        """Declared type of ``name``; locals shadow parameters shadow fields."""
        for scope in (self.locals, self.parameters, self.fields):
            if name in scope:
                return scope[name]
        return None


@dataclass
class _Analysis:
    locals: list[LocalVariableDecl] = field(default_factory=list)
    # (token index, payload) events; sorted by index afterwards so that tree
    # walk order never leaks into the output.
    accesses: list[tuple[int, AttributeAccess]] = field(default_factory=list)
    invocations: list[tuple[int, MethodInvocation]] = field(default_factory=list)


def analyze_method_body(
    body: syn.BlockStmt | None, ctx: ResolutionContext
) -> tuple[list[LocalVariableDecl], list[AttributeAccess], list[MethodInvocation]]:
    """Collect locals, attribute accesses, and invocations from one body."""
    analysis = _Analysis()
    if body is not None:
        _walk_statement(body, ctx, analysis)

    first_accesses: dict[str, AttributeAccess] = {}
    for _, access in sorted(analysis.accesses, key=itemgetter(0)):
        first_accesses.setdefault(access.name, access)
    invocations = [invocation for _, invocation in sorted(analysis.invocations, key=itemgetter(0))]
    return analysis.locals, list(first_accesses.values()), invocations


def _walk_statement(stmt: syn.Stmt, ctx: ResolutionContext, out: _Analysis) -> None:
    if isinstance(stmt, syn.BlockStmt):
        for inner in stmt.statements:
            _walk_statement(inner, ctx, out)
    elif isinstance(stmt, syn.LocalDeclStmt):
        for declarator in stmt.declarators:
            if declarator.initializer is not None:
                _walk_expression(declarator.initializer, ctx, out)
            declared_type = stmt.type_text + declarator.extra_dims
            # The variable is in scope only after its own initializer.
            ctx.locals[declarator.name] = declared_type
            out.locals.append(LocalVariableDecl(declarator.name, declared_type))
    elif isinstance(stmt, syn.ExprStmt):
        _walk_expression(stmt.expression, ctx, out)
    elif isinstance(stmt, syn.ReturnStmt):
        if stmt.value is not None:
            _walk_expression(stmt.value, ctx, out)
    elif isinstance(stmt, syn.ThrowStmt):
        _walk_expression(stmt.value, ctx, out)
    elif isinstance(stmt, syn.IfStmt):
        # An else-if chain is walked in a loop, so its length costs no stack.
        while isinstance(stmt, syn.IfStmt):
            _walk_expression(stmt.condition, ctx, out)
            _walk_statement(stmt.then_branch, ctx, out)
            stmt = stmt.else_branch
        if stmt is not None:
            _walk_statement(stmt, ctx, out)
    elif isinstance(stmt, syn.WhileStmt):
        _walk_expression(stmt.condition, ctx, out)
        _walk_statement(stmt.body, ctx, out)
    elif isinstance(stmt, syn.DoWhileStmt):
        _walk_statement(stmt.body, ctx, out)
        _walk_expression(stmt.condition, ctx, out)
    elif isinstance(stmt, syn.ForStmt):
        if isinstance(stmt.init, syn.LocalDeclStmt):
            _walk_statement(stmt.init, ctx, out)
        elif isinstance(stmt.init, list):
            for expression in stmt.init:
                _walk_expression(expression, ctx, out)
        if stmt.condition is not None:
            _walk_expression(stmt.condition, ctx, out)
        for expression in stmt.update:
            _walk_expression(expression, ctx, out)
        _walk_statement(stmt.body, ctx, out)
    elif isinstance(stmt, syn.ForEachStmt):
        _walk_expression(stmt.iterable, ctx, out)
        ctx.locals[stmt.name] = stmt.type_text
        out.locals.append(LocalVariableDecl(stmt.name, stmt.type_text))
        _walk_statement(stmt.body, ctx, out)
    # Break/Continue/Empty carry nothing.


def _record_receiver_name(receiver: syn.NameExpr, ctx: ResolutionContext, out: _Analysis) -> None:
    name = receiver.name
    resolved = ctx.resolve_variable(name)
    if resolved is None and name in ctx.known_types:
        return
    out.accesses.append((receiver.token, AttributeAccess(name, resolved if resolved is not None else UNKNOWN_TYPE)))


def _receiver_type(receiver: syn.Expr | None, ctx: ResolutionContext) -> str:
    if receiver is None or isinstance(receiver, syn.ThisExpr):
        return ctx.enclosing_class
    if isinstance(receiver, syn.SuperExpr):
        return ctx.superclass if ctx.superclass else EXTERNAL_RECEIVER
    if isinstance(receiver, syn.ParenExpr):
        return _receiver_type(receiver.inner, ctx)
    if isinstance(receiver, syn.NewExpr):
        return receiver.type_text
    if isinstance(receiver, syn.NameExpr):
        resolved = ctx.resolve_variable(receiver.name)
        if resolved is not None:
            return resolved
        if receiver.name in ctx.known_types:
            return receiver.name
    return EXTERNAL_RECEIVER


# Sub-expressions of each node kind that records nothing itself; kinds not
# listed (names, literals, ``this``, ``super``) have none. A bare name that is
# neither a receiver nor a selected field is not an attribute access.
_OPERANDS: dict[type, Callable[[Any], Iterable[syn.Expr | None]]] = {
    syn.ConstructorDelegationExpr: lambda expr: expr.arguments,
    syn.NewExpr: lambda expr: expr.arguments,
    syn.ArrayCreationExpr: lambda expr: (*expr.dimensions, expr.initializer),
    syn.ArrayInitExpr: lambda expr: expr.values,
    syn.IndexExpr: lambda expr: (expr.array, expr.index),
    syn.UnaryExpr: lambda expr: (expr.operand,),
    syn.BinaryExpr: lambda expr: (expr.left, expr.right),
    syn.AssignExpr: lambda expr: (expr.target, expr.value),
    syn.ConditionalExpr: lambda expr: (expr.condition, expr.if_true, expr.if_false),
    syn.CastExpr: lambda expr: (expr.operand,),
    syn.ParenExpr: lambda expr: (expr.inner,),
    syn.InstanceofExpr: lambda expr: (expr.operand,),
}


def _walk_expression(expr: syn.Expr, ctx: ResolutionContext, out: _Analysis) -> None:
    """Record the accesses and invocations in one expression."""
    stack: list[syn.Expr | None] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, syn.FieldSelectExpr):
            receiver = node.receiver
            resolved = UNKNOWN_TYPE
            if isinstance(receiver, syn.ThisExpr):
                resolved = ctx.fields.get(node.name, UNKNOWN_TYPE)
            out.accesses.append((node.token, AttributeAccess(node.name, resolved)))
        elif isinstance(node, syn.CallExpr):
            receiver = node.receiver
            out.invocations.append((node.token, MethodInvocation(node.name, _receiver_type(receiver, ctx))))
            stack.extend(node.arguments)
        elif isinstance(node, syn.ClassLiteralExpr):
            receiver = node.operand
        else:
            operands = _OPERANDS.get(type(node))
            if operands is not None:
                stack.extend(operands(node))
            continue
        # A receiver that is a simple name is an access; None (no receiver)
        # walks to nothing.
        if isinstance(receiver, syn.NameExpr):
            _record_receiver_name(receiver, ctx, out)
        else:
            stack.append(receiver)


def _import_simple_names(imports: list[str]) -> set[str]:
    names: set[str] = set()
    for imported in imports:
        tail = imported.rsplit(".", 1)[-1]
        if tail != "*":
            names.add(tail)
    return names


def build_model(
    units: list[syn.CompilationUnit], project_name: str
) -> tuple[CodeModel, list[Diagnostic]]:
    """Assemble one model from parsed units, grouping classes by package.

    Later duplicates (class within package, field within class) are dropped
    with an error diagnostic so the result always satisfies validate_model.
    """
    diagnostics: list[Diagnostic] = []
    model_class_names = {cls.name for unit in units for cls in unit.classes}

    package_classes: dict[str, list[ClassDecl]] = {}
    seen_classes: set[tuple[str, str]] = set()

    for unit in units:
        package_name = unit.package if unit.package is not None else DEFAULT_PACKAGE
        known_types = model_class_names | _import_simple_names(unit.imports)
        for cls in unit.classes:
            key = (package_name, cls.name)
            if key in seen_classes:
                diagnostics.append(
                    error(
                        f"duplicate class {cls.name!r} in package {package_name!r} (dropped)",
                        unit.file,
                        *unit.positions.position(cls.token),
                    )
                )
                continue
            seen_classes.add(key)
            declared = _build_class(cls, package_name, known_types, unit, diagnostics)
            package_classes.setdefault(package_name, []).append(declared)

    model = CodeModel(
        project_name=project_name,
        packages=tuple(PackageDecl(name, tuple(classes)) for name, classes in package_classes.items()),
    )
    diagnostics.extend(validate_model(model))
    return model, diagnostics


def _build_class(
    cls: syn.ClassSyntax,
    package_name: str,
    known_types: set[str],
    unit: syn.CompilationUnit,
    diagnostics: list[Diagnostic],
) -> ClassDecl:
    attributes: list[AttributeDecl] = []
    field_types: dict[str, str] = {}
    for field_syntax in cls.fields:
        if field_syntax.name in field_types:
            diagnostics.append(
                error(
                    f"duplicate field {field_syntax.name!r} in class {cls.name!r} (dropped)",
                    unit.file,
                    *unit.positions.position(field_syntax.token),
                )
            )
            continue
        field_types[field_syntax.name] = field_syntax.type_text
        attributes.append(AttributeDecl(field_syntax.name, field_syntax.access_level, field_syntax.type_text))

    methods: list[MethodDecl] = []
    for method_syntax in cls.methods:
        ctx = ResolutionContext(
            enclosing_class=cls.name,
            superclass=cls.superclass,
            fields=dict(field_types),
            parameters={param.name: param.type_text for param in method_syntax.parameters},
            known_types=known_types,
        )
        locals_, accesses, invocations = analyze_method_body(method_syntax.body, ctx)
        methods.append(
            MethodDecl(
                name=method_syntax.name,
                access_level=method_syntax.access_level,
                return_type=method_syntax.return_type,
                declared_class=cls.name,
                parameters=tuple(ParameterDecl(param.name, param.type_text) for param in method_syntax.parameters),
                local_variables=tuple(locals_),
                attribute_accesses=tuple(accesses),
                method_invocations=tuple(invocations),
            )
        )

    return ClassDecl(
        name=cls.name,
        access_level=cls.access_level,
        declared_package=package_name,
        superclass=cls.superclass,
        attributes=tuple(attributes),
        methods=tuple(methods),
    )


def discover_source_files(root: Path, extension: str = ".java") -> list[Path]:
    """All files under ``root`` with the given extension, sorted by path."""
    return sorted(
        (path for path in root.rglob(f"*{extension}") if path.is_file()),
        key=lambda path: path.as_posix(),
    )


def parse_project(
    root: Path,
    extension: str = ".java",
    strict: bool = True,
    project_name: str | None = None,
) -> tuple[CodeModel, list[Diagnostic], int]:
    """Read, tokenize, parse, and assemble every source file under ``root``.

    Returns the model, all diagnostics, and the total source size in
    characters (used for the summary-to-source length report).
    """
    name = project_name if project_name is not None else root.name
    diagnostics: list[Diagnostic] = []
    units: list[syn.CompilationUnit] = []
    source_length = 0

    files = discover_source_files(root, extension)
    if not files:
        diagnostics.append(warning(f"no {extension} files found under {root.as_posix()}"))

    for path in files:
        display = path.as_posix()
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            diagnostics.append(error(f"cannot read source file: {exc}", display))
            continue
        source_length += len(text)
        tokens, lex_diagnostics = tokenize(text, display, strict)
        diagnostics.extend(lex_diagnostics)
        if strict and any(d.severity is Severity.ERROR for d in lex_diagnostics):
            continue
        unit, parse_diagnostics = parse_compilation_unit(tokens, display, strict)
        diagnostics.extend(parse_diagnostics)
        if unit is not None:
            units.append(unit)

    model, build_diagnostics = build_model(units, name)
    diagnostics.extend(build_diagnostics)
    return model, diagnostics, source_length
