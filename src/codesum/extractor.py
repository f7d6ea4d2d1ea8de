"""Builds the project model from parsed units.

Each method's dependency events (see ``parser``) are resolved in one loop, in
the order the parser emitted them, which is source order. The model records:

* local variables, in declaration order;
* attribute accesses: every simple name used as the receiver of a call, a
  field selection or ``.class`` (unless it names a known type and no
  variable), and every selected field name outside call position;
  deduplicated by name, first occurrence wins;
* method invocations: every called method name, duplicates preserved.

Names resolve against locals, then parameters, then fields, then known types
(classes of the model and imported simple names); unresolvable names degrade
to the ``unknown``/``external`` sentinels rather than failing. A local is in
scope from its event to the end of the method: it is not dropped at the end
of its block.
"""

from __future__ import annotations

from pathlib import Path

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
    validate_model,
)
from .parser import RECOVERY_NOTE, ClassSyntax, CompilationUnit, MethodSyntax, parse_compilation_unit

# Package used for classes whose file has no package declaration; the name is
# a reserved word in the grammar, so it cannot collide with a declared one.
DEFAULT_PACKAGE = "default"


def _import_simple_names(imports: list[str]) -> set[str]:
    names: set[str] = set()
    for imported in imports:
        tail = imported.rsplit(".", 1)[-1]
        if tail != "*":
            names.add(tail)
    return names


def build_model(
    units: list[CompilationUnit], project_name: str
) -> tuple[CodeModel, list[Diagnostic]]:
    """Assemble one model from parsed units, grouping classes by package.

    Later duplicates (class within package, field within class) are dropped
    with an error diagnostic so the result always satisfies validate_model.
    """
    diagnostics: list[Diagnostic] = []
    model_class_names = {cls.name for unit in units for cls in unit.classes}

    # Each package's classes by name; a package enters with its first class.
    packages: dict[str, dict[str, ClassDecl]] = {}

    for unit in units:
        package_name = unit.package if unit.package is not None else DEFAULT_PACKAGE
        known_types = model_class_names | _import_simple_names(unit.imports)
        for cls in unit.classes:
            classes = packages.setdefault(package_name, {})
            if cls.name in classes:
                diagnostics.append(
                    error(
                        f"duplicate class {cls.name!r} in package {package_name!r} (dropped)",
                        unit.file,
                        *unit.positions.position(cls.token),
                    )
                )
                continue
            classes[cls.name] = _build_class(cls, package_name, known_types, unit, diagnostics)

    model = CodeModel(project_name, [PackageDecl(name, classes.values()) for name, classes in packages.items()])
    diagnostics.extend(validate_model(model))
    return model, diagnostics


def _build_class(
    cls: ClassSyntax,
    package_name: str,
    known_types: set[str],
    unit: CompilationUnit,
    diagnostics: list[Diagnostic],
) -> ClassDecl:
    attributes: list[AttributeDecl] = []
    field_types: dict[str, str] = {}
    for token, attribute in cls.fields:
        if attribute.name in field_types:
            diagnostics.append(
                error(
                    f"duplicate field {attribute.name!r} in class {cls.name!r} (dropped)",
                    unit.file,
                    *unit.positions.position(token),
                )
            )
            continue
        field_types[attribute.name] = attribute.declared_type
        attributes.append(attribute)

    methods = [_build_method(method, cls, field_types, known_types) for method in cls.methods]

    return ClassDecl(cls.name, cls.access_level, package_name, cls.superclass, attributes, methods)


def _build_method(
    method: MethodSyntax, cls: ClassSyntax, field_types: dict[str, str], known_types: set[str]
) -> MethodDecl:
    """Resolve the method's events against its locals, parameters and
    fields; a local shadows a parameter, which shadows a field."""
    variables = {**field_types, **dict(method.parameters)}
    local_variables = []
    accesses: dict[str, AttributeAccess] = {}
    invocations = []
    for event in method.events:
        kind = event[0]
        if kind == "call":
            receiver = event[3]
            if receiver is None or receiver == "this":
                accessed_in = cls.name
            elif receiver == "super":
                accessed_in = cls.superclass or EXTERNAL_RECEIVER
            elif receiver.startswith("new "):
                accessed_in = receiver[4:]
            else:
                # A simple name, or "" for any other receiver.
                accessed_in = variables.get(receiver) or (receiver if receiver in known_types else EXTERNAL_RECEIVER)
            invocations.append(MethodInvocation(event[2], accessed_in))
        elif kind == "local":
            _, name, declared_type = event
            variables[name] = declared_type
            local_variables.append(LocalVariableDecl(name, declared_type))
        else:
            name = event[2]
            if name in accesses:
                continue
            if kind == "field":
                resolved = field_types.get(name, UNKNOWN_TYPE) if event[3] else UNKNOWN_TYPE
            else:
                resolved = variables.get(name)
                if resolved is None:
                    if name in known_types:
                        continue
                    resolved = UNKNOWN_TYPE
            accesses[name] = AttributeAccess(name, resolved)
    return MethodDecl(
        method.name, method.access_level, method.return_type, cls.name,
        method.parameters, local_variables, accesses.values(), invocations,
    )


def discover_source_files(root: Path, extension: str = ".java") -> list[Path]:
    """All files under ``root`` with the given extension, sorted by path."""
    return sorted(
        (path for path in root.rglob(f"*{extension}") if path.is_file()),
        key=lambda path: path.as_posix(),
    )


def report_in_mode(found: list[Diagnostic], diagnostics: list[Diagnostic], strict: bool, note: str = "") -> bool:
    """Add one stage's ``found`` diagnostics for one file to ``diagnostics``
    as the mode has them; False when strict mode abandons the file at an
    error. Lenient mode turns each error into a warning ended with ``note``."""
    for diagnostic in found:
        if diagnostic.severity is Severity.ERROR:
            if strict:
                diagnostics.append(diagnostic)
                return False
            diagnostic = diagnostic._replace(severity=Severity.WARNING, message=diagnostic.message + note)
        diagnostics.append(diagnostic)
    return True


def parse_project(
    root: Path,
    extension: str = ".java",
    strict: bool = True,
    project_name: str | None = None,
) -> tuple[CodeModel, list[Diagnostic], int]:
    """Read, tokenize, parse, and assemble every source file under ``root``;
    ``report_in_mode`` applies ``strict`` to the lexer's and the parser's errors.

    Returns the model, all diagnostics, and the total source size in
    characters (used for the summary-to-source length report).
    """
    name = project_name if project_name is not None else root.name
    diagnostics: list[Diagnostic] = []
    units: list[CompilationUnit] = []
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
        tokens, found = tokenize(text, display)
        if found and not report_in_mode(found, diagnostics, strict):
            continue
        unit, found = parse_compilation_unit(tokens, display)
        if found and not report_in_mode(found, diagnostics, strict, RECOVERY_NOTE):
            continue
        units.append(unit)

    model, build_diagnostics = build_model(units, name)
    diagnostics.extend(build_diagnostics)
    return model, diagnostics, source_length
