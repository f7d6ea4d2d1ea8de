"""XML interchange for the project model.

``_PROJECT`` and the entries it reaches are the one statement of the
document's shape: Project > Packages > Package > Classes > Class >
(Attributes, Methods), with Parameters, LocalVariables, AttributeAccesses and
MethodInvocations nested under each Method. Export writes from that table,
and import reads from it and derives from it which attributes and elements
are known. Attribute order is fixed, indentation is two spaces, container
elements are always present even when empty, and an absent superclass is
written as an empty attribute value, so exporting the same model twice
yields identical bytes.
"""

from __future__ import annotations

import dataclasses
import xml.etree.ElementTree as ElementTree

from .diagnostics import Diagnostic, error, warning
from .model import (
    AccessLevel,
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


class _Entry:
    """One record type's element: its tag, its XML attributes in document
    order as ``(attribute, field)``, and its containers in document order as
    ``(tag, field, item entry)``. A record without containers is a
    self-closing element. What import needs is derived here, once."""

    def __init__(
        self, tag: str, record: type, attributes: tuple[tuple[str, str], ...], containers: tuple = ()
    ) -> None:
        self.tag = tag
        self.attributes = attributes
        self.containers = containers
        self.known_attributes = frozenset(name for name, _ in attributes)
        self.known_children = frozenset(container for container, _, _ in containers)
        # Import passes the attributes' values, then the containers' records;
        # a record whose fields are declared in another order takes keywords.
        fields = [field for _, field in attributes] + [field for _, field, _ in containers]
        if fields == [field.name for field in dataclasses.fields(record)]:
            self.build = record
        else:
            self.build = lambda *values: record(**dict(zip(fields, values)))


_PARAMETER = _Entry("Parameter", ParameterDecl, (("ParameterName", "name"), ("ParameterType", "declared_type")))
_LOCAL_VARIABLE = _Entry(
    "LocalVariable", LocalVariableDecl, (("LocalVariableName", "name"), ("LocalVariableType", "declared_type"))
)
_ATTRIBUTE_ACCESS = _Entry("AttributeAccess", AttributeAccess, (("Name", "name"), ("Type", "resolved_type")))
_METHOD_INVOCATION = _Entry("MethodInvocation", MethodInvocation, (("Name", "name"), ("AccessedIn", "accessed_in")))
_ATTRIBUTE = _Entry(
    "Attribute", AttributeDecl, (("Name", "name"), ("AccessLevel", "access_level"), ("Type", "declared_type"))
)
_METHOD = _Entry(
    "Method",
    MethodDecl,
    (
        ("Name", "name"),
        ("AccessLevel", "access_level"),
        ("ReturnType", "return_type"),
        ("DeclaredClass", "declared_class"),
    ),
    (
        ("Parameters", "parameters", _PARAMETER),
        ("LocalVariables", "local_variables", _LOCAL_VARIABLE),
        ("AttributeAccesses", "attribute_accesses", _ATTRIBUTE_ACCESS),
        ("MethodInvocations", "method_invocations", _METHOD_INVOCATION),
    ),
)
_CLASS = _Entry(
    "Class",
    ClassDecl,
    (
        ("Name", "name"),
        ("AccessLevel", "access_level"),
        ("Superclass", "superclass"),
        ("DeclaredPackage", "declared_package"),
    ),
    (("Attributes", "attributes", _ATTRIBUTE), ("Methods", "methods", _METHOD)),
)
_PACKAGE = _Entry("Package", PackageDecl, (("PackageName", "name"),), (("Classes", "classes", _CLASS),))
_PROJECT = _Entry("Project", CodeModel, (("ProjectName", "project_name"),), (("Packages", "packages", _PACKAGE),))

# The one container that states its item count: written from its items, and
# on import checked against them.
_COUNTED_CONTAINER, _COUNT_ATTRIBUTE = "Parameters", "NumberOfParameters"
_COUNT_ATTRIBUTES, _NO_ATTRIBUTES = frozenset((_COUNT_ATTRIBUTE,)), frozenset()

_ACCESS_BY_VALUE = {level.value: level for level in AccessLevel}


def _escape(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def export_xml(model: CodeModel) -> str:
    """Serialize a model that has already been validated.

    A model enters the system through ``build_model`` or ``import_xml``,
    which both validate it, so the model is not checked again here.
    """
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    _emit(lines, _PROJECT, model, "")
    return "\n".join(lines) + "\n"


def _emit(lines: list[str], entry: _Entry, record: object, indent: str) -> None:
    attributes = []
    for name, field in entry.attributes:
        value = getattr(record, field)
        if name == "AccessLevel":
            value = value.value
        elif name == "Superclass" and value is None:
            value = ""
        attributes.append(f' {name}="{_escape(value)}"')
    if not entry.containers:
        lines.append(f"{indent}<{entry.tag}{''.join(attributes)}/>")
        return
    lines.append(f"{indent}<{entry.tag}{''.join(attributes)}>")
    inner = indent + "  "
    for tag, field, item in entry.containers:
        items = getattr(record, field)
        count = f' {_COUNT_ATTRIBUTE}="{len(items)}"' if tag == _COUNTED_CONTAINER else ""
        if not items:
            lines.append(f"{inner}<{tag}{count}/>")
            continue
        lines.append(f"{inner}<{tag}{count}>")
        for child in items:
            _emit(lines, item, child, inner + "  ")
        lines.append(f"{inner}</{tag}>")
    lines.append(f"{indent}</{entry.tag}>")


def import_xml(text: str) -> tuple[CodeModel, list[Diagnostic]]:
    """Parse a document produced by export_xml back into a model.

    A malformed document or unknown root element yields an empty model plus
    an error diagnostic; recoverable oddities (unknown attributes or
    elements, a parameter-count mismatch) yield warnings. The model read is
    validated like an extracted one: each violation is an error.
    """
    diagnostics: list[Diagnostic] = []
    empty = CodeModel(project_name="", packages=())
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        diagnostics.append(error(f"malformed XML: {exc}"))
        return empty, diagnostics
    if root.tag != _PROJECT.tag:
        diagnostics.append(error(f"unknown root element {root.tag!r}, expected {_PROJECT.tag!r}"))
        return empty, diagnostics

    reader = _Reader(diagnostics)
    reader.check_attributes(root, _PROJECT.known_attributes)
    model = reader.read(_PROJECT, root)
    diagnostics.extend(validate_model(model))
    return model, diagnostics


class _Reader:
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics

    def warn(self, message: str) -> None:
        self.diagnostics.append(warning(message))

    def check_attributes(self, element: ElementTree.Element, known: frozenset[str]) -> None:
        for name in element.attrib:
            if name not in known:
                self.warn(f"unknown attribute {name!r} on <{element.tag}> (ignored)")

    def read(self, entry: _Entry, element: ElementTree.Element) -> object:
        """The record ``element`` holds; the caller has checked its attributes.

        Containers are read before the record's own attributes, so an item's
        warnings come before its owner's. A missing container reads as empty;
        a repeated container warns and is merged into the first.
        """
        containers: dict[str, list[ElementTree.Element]] = {}
        for child in element:
            if child.tag not in entry.known_children:
                self.warn(f"unknown element <{child.tag}> under <{entry.tag}> (ignored)")
            elif child.tag in containers:
                self.warn(f"duplicate <{child.tag}> under <{entry.tag}> (merged)")
                containers[child.tag].append(child)
            else:
                containers[child.tag] = [child]
        records = []
        for tag, _, item in entry.containers:
            known = _COUNT_ATTRIBUTES if tag == _COUNTED_CONTAINER else _NO_ATTRIBUTES
            found = []
            for container in containers.get(tag, ()):
                self.check_attributes(container, known)
                for child in container:
                    if child.tag == item.tag:
                        self.check_attributes(child, item.known_attributes)
                        found.append(child)
                    else:
                        self.warn(f"unknown element <{child.tag}> under <{tag}> (ignored)")
            records.append([self.read(item, child) for child in found])
            if tag == _COUNTED_CONTAINER:
                for container in containers.get(tag, ()):
                    declared = container.get(_COUNT_ATTRIBUTE)
                    count = len(container.findall(item.tag))
                    if declared is not None and declared != str(count):
                        self.warn(
                            f"{_COUNT_ATTRIBUTE}={declared!r} disagrees with "
                            f"{count} {item.tag} elements; using the element count"
                        )
        values = []
        for name, _ in entry.attributes:
            if name == "AccessLevel":
                values.append(self.access_level(element))
            elif name == "Superclass":
                values.append(element.get(name) or None)
            else:
                values.append(element.get(name, ""))
        return entry.build(*values, *records)

    def access_level(self, element: ElementTree.Element) -> AccessLevel:
        value = element.get("AccessLevel", AccessLevel.PACKAGE_PRIVATE.value)
        level = _ACCESS_BY_VALUE.get(value)
        if level is None:
            self.warn(f"unknown access level {value!r} on <{element.tag}>, using package-private")
            return AccessLevel.PACKAGE_PRIVATE
        return level
