"""In-memory model of an analyzed object-oriented project.

The model is a plain tree: project -> packages -> classes -> members. Every
node is a named tuple, immutable once built, and every collection is a
tuple in insertion order; a list passed in is kept as a tuple.

Equality is tuple equality: records are equal when their fields are, and
it holds across an export/import cycle. It ignores the record's type, so
``ParameterDecl("a", "int") == LocalVariableDecl("a", "int")`` and a record
equals a plain tuple of its fields. For equality that includes the type,
compare ``repr``s, which name every record's type.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .diagnostics import Diagnostic, error

# Sentinel type for an attribute access whose declared type cannot be resolved.
UNKNOWN_TYPE = "unknown"

# Sentinel receiver for an invocation whose receiver type cannot be resolved.
EXTERNAL_RECEIVER = "external"


class AccessLevel(Enum):
    PUBLIC = "public"
    PRIVATE = "private"
    PROTECTED = "protected"
    PACKAGE_PRIVATE = "package-private"


class ParameterDecl(NamedTuple):
    name: str
    declared_type: str


class LocalVariableDecl(NamedTuple):
    name: str
    declared_type: str


class AttributeAccess(NamedTuple):
    """A field read or write observed in a method body.

    ``resolved_type`` falls back to ``UNKNOWN_TYPE`` when the name cannot be
    resolved against the enclosing scope.
    """

    name: str
    resolved_type: str = UNKNOWN_TYPE


class MethodInvocation(NamedTuple):
    """A call observed in a method body.

    ``accessed_in`` names the receiver's declared type and falls back to
    ``EXTERNAL_RECEIVER`` when the receiver cannot be resolved.
    """

    name: str
    accessed_in: str = EXTERNAL_RECEIVER


class AttributeDecl(NamedTuple):
    name: str
    access_level: AccessLevel
    declared_type: str


# A record with collections subclasses the named tuple of its fields. Its
# ``__new__`` takes the same arguments and keeps each collection as a tuple;
# its ``_make``, which ``_replace`` calls, builds through ``__new__``.
_make_through_new = classmethod(lambda cls, fields: cls(*fields))


class _MethodFields(NamedTuple):
    name: str
    access_level: AccessLevel
    return_type: str
    declared_class: str
    parameters: tuple[ParameterDecl, ...] = ()
    local_variables: tuple[LocalVariableDecl, ...] = ()
    attribute_accesses: tuple[AttributeAccess, ...] = ()
    method_invocations: tuple[MethodInvocation, ...] = ()


class MethodDecl(_MethodFields):
    """A method or constructor.

    Constructors are ordinary methods whose name and return type both equal
    the enclosing class name. ``declared_class`` always names that class.
    """

    __slots__ = ()
    _make = _make_through_new

    def __new__(
        cls, name, access_level, return_type, declared_class,
        parameters=(), local_variables=(), attribute_accesses=(), method_invocations=(),
    ) -> MethodDecl:
        return tuple.__new__(cls, (
            name, access_level, return_type, declared_class,
            tuple(parameters), tuple(local_variables), tuple(attribute_accesses), tuple(method_invocations),
        ))


class _ClassFields(NamedTuple):
    name: str
    access_level: AccessLevel
    declared_package: str
    superclass: str | None = None
    attributes: tuple[AttributeDecl, ...] = ()
    methods: tuple[MethodDecl, ...] = ()


class ClassDecl(_ClassFields):
    """A top-level class. ``superclass`` is None when no extends clause exists."""

    __slots__ = ()
    _make = _make_through_new

    def __new__(cls, name, access_level, declared_package, superclass=None, attributes=(), methods=()) -> ClassDecl:
        return tuple.__new__(cls, (name, access_level, declared_package, superclass, tuple(attributes), tuple(methods)))


class _PackageFields(NamedTuple):
    name: str
    classes: tuple[ClassDecl, ...] = ()


class PackageDecl(_PackageFields):
    __slots__ = ()
    _make = _make_through_new

    def __new__(cls, name, classes=()) -> PackageDecl:
        return tuple.__new__(cls, (name, tuple(classes)))


class _ModelFields(NamedTuple):
    project_name: str
    packages: tuple[PackageDecl, ...] = ()


class CodeModel(_ModelFields):
    __slots__ = ()
    _make = _make_through_new

    def __new__(cls, project_name, packages=()) -> CodeModel:
        return tuple.__new__(cls, (project_name, tuple(packages)))


def validate_model(model: CodeModel) -> list[Diagnostic]:
    """Check structural invariants; one diagnostic per violation, empty when sound."""
    problems: list[Diagnostic] = []

    def complain(path: str, message: str) -> None:
        problems.append(error(f"{path}: {message}"))

    # Each record is unpacked once: a named tuple's attribute lookup is slower.
    seen_packages: set[str] = set()
    for package, classes in model.packages:
        if package in seen_packages:
            complain(package, "duplicate package name")
        seen_packages.add(package)

        seen_classes: set[str] = set()
        for name, _, declared_package, superclass, attributes, methods in classes:
            path = f"{package}.{name}"
            if not name:
                complain(package, "class with empty name")
            if name in seen_classes:
                complain(path, "duplicate class name within package")
            seen_classes.add(name)
            if declared_package != package:
                complain(path, f"declared package {declared_package!r} does not match enclosing package")
            if superclass is not None:
                if not superclass:
                    complain(path, "superclass name is empty")
                elif superclass == name:
                    complain(path, "class cannot inherit from itself")

            seen_attributes: set[str] = set()
            for attribute, _, declared_type in attributes:
                if not attribute:
                    complain(path, "attribute with empty name")
                if not declared_type:
                    complain(f"{path}.{attribute}", "attribute with empty type")
                if attribute in seen_attributes:
                    complain(f"{path}.{attribute}", "duplicate attribute name within class")
                seen_attributes.add(attribute)

            for method, _, return_type, declared_class, parameters, local_variables, accesses, invocations in methods:
                mpath = f"{path}.{method}"
                if not method:
                    complain(path, "method with empty name")
                if not return_type:
                    complain(mpath, "method with empty return type")
                if declared_class != name:
                    complain(mpath, f"declared class {declared_class!r} does not match enclosing class")
                for parameter, declared_type in parameters:
                    if not parameter or not declared_type:
                        complain(mpath, "parameter with empty name or type")
                for local, declared_type in local_variables:
                    if not local or not declared_type:
                        complain(mpath, "local variable with empty name or type")
                seen_accesses: set[str] = set()
                for access, _ in accesses:
                    if not access:
                        complain(mpath, "attribute access with empty name")
                    if access in seen_accesses:
                        complain(mpath, f"duplicate attribute access {access!r}")
                    seen_accesses.add(access)
                for invocation, _ in invocations:
                    if not invocation:
                        complain(mpath, "method invocation with empty name")

    return problems
