"""In-memory model of an analyzed object-oriented project.

The model is a plain tree: project -> packages -> classes -> members. Every
collection keeps insertion order, every node is immutable once built, and
structural equality works across an export/import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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


def _freeze(instance: object, **fields: object) -> None:
    # frozen dataclasses forbid plain assignment, so coerce via object.__setattr__
    for name, value in fields.items():
        object.__setattr__(instance, name, tuple(value))  # type: ignore[call-overload]


@dataclass(frozen=True)
class ParameterDecl:
    name: str
    declared_type: str


@dataclass(frozen=True)
class LocalVariableDecl:
    name: str
    declared_type: str


@dataclass(frozen=True)
class AttributeAccess:
    """A field read or write observed in a method body.

    ``resolved_type`` falls back to ``UNKNOWN_TYPE`` when the name cannot be
    resolved against the enclosing scope.
    """

    name: str
    resolved_type: str = UNKNOWN_TYPE


@dataclass(frozen=True)
class MethodInvocation:
    """A call observed in a method body.

    ``accessed_in`` names the receiver's declared type and falls back to
    ``EXTERNAL_RECEIVER`` when the receiver cannot be resolved.
    """

    name: str
    accessed_in: str = EXTERNAL_RECEIVER


@dataclass(frozen=True)
class AttributeDecl:
    name: str
    access_level: AccessLevel
    declared_type: str


@dataclass(frozen=True)
class MethodDecl:
    """A method or constructor.

    Constructors are ordinary methods whose name and return type both equal
    the enclosing class name. ``declared_class`` always names that class.
    """

    name: str
    access_level: AccessLevel
    return_type: str
    declared_class: str
    parameters: tuple[ParameterDecl, ...] = ()
    local_variables: tuple[LocalVariableDecl, ...] = ()
    attribute_accesses: tuple[AttributeAccess, ...] = ()
    method_invocations: tuple[MethodInvocation, ...] = ()

    def __post_init__(self) -> None:
        _freeze(
            self,
            parameters=self.parameters,
            local_variables=self.local_variables,
            attribute_accesses=self.attribute_accesses,
            method_invocations=self.method_invocations,
        )


@dataclass(frozen=True)
class ClassDecl:
    """A top-level class. ``superclass`` is None when no extends clause exists."""

    name: str
    access_level: AccessLevel
    declared_package: str
    superclass: str | None = None
    attributes: tuple[AttributeDecl, ...] = ()
    methods: tuple[MethodDecl, ...] = ()

    def __post_init__(self) -> None:
        _freeze(self, attributes=self.attributes, methods=self.methods)


@dataclass(frozen=True)
class PackageDecl:
    name: str
    classes: tuple[ClassDecl, ...] = ()

    def __post_init__(self) -> None:
        _freeze(self, classes=self.classes)


@dataclass(frozen=True)
class CodeModel:
    project_name: str
    packages: tuple[PackageDecl, ...] = ()

    def __post_init__(self) -> None:
        _freeze(self, packages=self.packages)


def validate_model(model: CodeModel) -> list[Diagnostic]:
    """Check structural invariants; one diagnostic per violation, empty when sound."""
    problems: list[Diagnostic] = []

    def complain(path: str, message: str) -> None:
        problems.append(error(f"{path}: {message}"))

    seen_packages: set[str] = set()
    for pkg in model.packages:
        if pkg.name in seen_packages:
            complain(pkg.name, "duplicate package name")
        seen_packages.add(pkg.name)

        seen_classes: set[str] = set()
        for cls in pkg.classes:
            path = f"{pkg.name}.{cls.name}"
            if not cls.name:
                complain(pkg.name, "class with empty name")
            if cls.name in seen_classes:
                complain(path, "duplicate class name within package")
            seen_classes.add(cls.name)
            if cls.declared_package != pkg.name:
                complain(path, f"declared package {cls.declared_package!r} does not match enclosing package")
            if cls.superclass is not None:
                if not cls.superclass:
                    complain(path, "superclass name is empty")
                elif cls.superclass == cls.name:
                    complain(path, "class cannot inherit from itself")

            seen_attributes: set[str] = set()
            for attr in cls.attributes:
                if not attr.name:
                    complain(path, "attribute with empty name")
                if not attr.declared_type:
                    complain(f"{path}.{attr.name}", "attribute with empty type")
                if attr.name in seen_attributes:
                    complain(f"{path}.{attr.name}", "duplicate attribute name within class")
                seen_attributes.add(attr.name)

            for method in cls.methods:
                mpath = f"{path}.{method.name}"
                if not method.name:
                    complain(path, "method with empty name")
                if not method.return_type:
                    complain(mpath, "method with empty return type")
                if method.declared_class != cls.name:
                    complain(mpath, f"declared class {method.declared_class!r} does not match enclosing class")
                for param in method.parameters:
                    if not param.name or not param.declared_type:
                        complain(mpath, "parameter with empty name or type")
                for local in method.local_variables:
                    if not local.name or not local.declared_type:
                        complain(mpath, "local variable with empty name or type")
                seen_accesses: set[str] = set()
                for access in method.attribute_accesses:
                    if not access.name:
                        complain(mpath, "attribute access with empty name")
                    if access.name in seen_accesses:
                        complain(mpath, f"duplicate attribute access {access.name!r}")
                    seen_accesses.add(access.name)
                for invocation in method.method_invocations:
                    if not invocation.name:
                        complain(mpath, "method invocation with empty name")

    return problems
