"""XML interchange for the project model.

The document shape is fixed: Project > Packages > Package > Classes > Class >
(Attributes, Methods), with Parameters, LocalVariables, AttributeAccesses,
and MethodInvocations nested under each Method. Attribute order is fixed,
indentation is two spaces, container elements are always present even when
empty, and an absent superclass is written as an empty attribute value, so
exporting the same model twice yields identical bytes.
"""

from __future__ import annotations

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

_ACCESS_BY_VALUE = {level.value: level for level in AccessLevel}


def _escape(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = ['<?xml version="1.0" encoding="UTF-8"?>']
        self.depth = 0

    def open(self, tag: str, attributes: tuple[tuple[str, str], ...] = ()) -> None:
        self.lines.append(f"{'  ' * self.depth}<{tag}{_render_attributes(attributes)}>")
        self.depth += 1

    def close(self, tag: str) -> None:
        self.depth -= 1
        self.lines.append(f"{'  ' * self.depth}</{tag}>")

    def leaf(self, tag: str, attributes: tuple[tuple[str, str], ...] = ()) -> None:
        self.lines.append(f"{'  ' * self.depth}<{tag}{_render_attributes(attributes)}/>")

    def container(self, tag: str, items: list, emit_item) -> None:
        if not items:
            self.leaf(tag)
            return
        self.open(tag)
        for item in items:
            emit_item(item)
        self.close(tag)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _render_attributes(attributes: tuple[tuple[str, str], ...]) -> str:
    return "".join(f' {name}="{_escape(value)}"' for name, value in attributes)


def export_xml(model: CodeModel) -> str:
    """Serialize a model that has already been validated.

    A model enters the system through ``build_model`` or ``import_xml``,
    which both validate it, so the model is not checked again here.
    """
    writer = _Writer()
    writer.open("Project", [("ProjectName", model.project_name)])
    writer.container("Packages", list(model.packages), lambda pkg: _emit_package(writer, pkg))
    writer.close("Project")
    return writer.text()


def _emit_package(writer: _Writer, package: PackageDecl) -> None:
    writer.open("Package", [("PackageName", package.name)])
    writer.container("Classes", list(package.classes), lambda cls: _emit_class(writer, cls))
    writer.close("Package")


def _emit_class(writer: _Writer, cls: ClassDecl) -> None:
    writer.open(
        "Class",
        [
            ("Name", cls.name),
            ("AccessLevel", cls.access_level.value),
            ("Superclass", cls.superclass if cls.superclass is not None else ""),
            ("DeclaredPackage", cls.declared_package),
        ],
    )
    writer.container(
        "Attributes",
        list(cls.attributes),
        lambda attr: writer.leaf(
            "Attribute",
            [("Name", attr.name), ("AccessLevel", attr.access_level.value), ("Type", attr.declared_type)],
        ),
    )
    writer.container("Methods", list(cls.methods), lambda method: _emit_method(writer, method))
    writer.close("Class")


def _emit_method(writer: _Writer, method: MethodDecl) -> None:
    writer.open(
        "Method",
        [
            ("Name", method.name),
            ("AccessLevel", method.access_level.value),
            ("ReturnType", method.return_type),
            ("DeclaredClass", method.declared_class),
        ],
    )
    count = [("NumberOfParameters", str(len(method.parameters)))]
    if not method.parameters:
        writer.leaf("Parameters", count)
    else:
        writer.open("Parameters", count)
        for param in method.parameters:
            writer.leaf("Parameter", [("ParameterName", param.name), ("ParameterType", param.declared_type)])
        writer.close("Parameters")
    writer.container(
        "LocalVariables",
        list(method.local_variables),
        lambda local: writer.leaf(
            "LocalVariable",
            [("LocalVariableName", local.name), ("LocalVariableType", local.declared_type)],
        ),
    )
    writer.container(
        "AttributeAccesses",
        list(method.attribute_accesses),
        lambda access: writer.leaf("AttributeAccess", [("Name", access.name), ("Type", access.resolved_type)]),
    )
    writer.container(
        "MethodInvocations",
        list(method.method_invocations),
        lambda invocation: writer.leaf(
            "MethodInvocation", [("Name", invocation.name), ("AccessedIn", invocation.accessed_in)]
        ),
    )
    writer.close("Method")


# ----------------------------------------------------------------------
# import

_KNOWN_ATTRIBUTES = {
    "Project": {"ProjectName"},
    "Package": {"PackageName"},
    "Class": {"Name", "AccessLevel", "Superclass", "DeclaredPackage"},
    "Attribute": {"Name", "AccessLevel", "Type"},
    "Method": {"Name", "AccessLevel", "ReturnType", "DeclaredClass"},
    "Parameters": {"NumberOfParameters"},
    "Parameter": {"ParameterName", "ParameterType"},
    "LocalVariable": {"LocalVariableName", "LocalVariableType"},
    "AttributeAccess": {"Name", "Type"},
    "MethodInvocation": {"Name", "AccessedIn"},
}


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
    if root.tag != "Project":
        diagnostics.append(error(f"unknown root element {root.tag!r}, expected 'Project'"))
        return empty, diagnostics

    reader = _Reader(diagnostics)
    reader.check_attributes(root)
    reader.check_children(root)
    packages = [
        reader.read_package(element)
        for element in reader.children(root, "Packages", {"Package"})
    ]
    model = CodeModel(project_name=root.get("ProjectName", ""), packages=tuple(packages))
    diagnostics.extend(validate_model(model))
    return model, diagnostics


class _Reader:
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics

    def warn(self, message: str) -> None:
        self.diagnostics.append(warning(message))

    def check_attributes(self, element: ElementTree.Element) -> None:
        known = _KNOWN_ATTRIBUTES.get(element.tag, set())
        for name in element.attrib:
            if name not in known:
                self.warn(f"unknown attribute {name!r} on <{element.tag}> (ignored)")

    def check_children(self, parent: ElementTree.Element) -> None:
        expected = _CONTAINER_TAGS.get(parent.tag, set())
        for child in parent:
            if child.tag not in expected:
                self.warn(f"unknown element <{child.tag}> under <{parent.tag}> (ignored)")

    def children(
        self, parent: ElementTree.Element, container_tag: str, item_tags: set[str]
    ) -> list[ElementTree.Element]:
        """Items inside ``parent``'s container element; missing container = empty."""
        items: list[ElementTree.Element] = []
        for container in parent:
            if container.tag != container_tag:
                continue
            self.check_attributes(container)
            for item in container:
                if item.tag in item_tags:
                    self.check_attributes(item)
                    items.append(item)
                else:
                    self.warn(f"unknown element <{item.tag}> under <{container_tag}> (ignored)")
        return items

    def access_level(self, element: ElementTree.Element) -> AccessLevel:
        value = element.get("AccessLevel", AccessLevel.PACKAGE_PRIVATE.value)
        level = _ACCESS_BY_VALUE.get(value)
        if level is None:
            self.warn(f"unknown access level {value!r} on <{element.tag}>, using package-private")
            return AccessLevel.PACKAGE_PRIVATE
        return level

    def read_package(self, element: ElementTree.Element) -> PackageDecl:
        self.check_children(element)
        classes = [
            self.read_class(child) for child in self.children(element, "Classes", {"Class"})
        ]
        return PackageDecl(name=element.get("PackageName", ""), classes=tuple(classes))

    def read_class(self, element: ElementTree.Element) -> ClassDecl:
        self.check_children(element)
        superclass: str | None = element.get("Superclass", "")
        if not superclass:
            superclass = None
        attributes = [
            AttributeDecl(
                name=child.get("Name", ""),
                access_level=self.access_level(child),
                declared_type=child.get("Type", ""),
            )
            for child in self.children(element, "Attributes", {"Attribute"})
        ]
        methods = [
            self.read_method(child) for child in self.children(element, "Methods", {"Method"})
        ]
        return ClassDecl(
            name=element.get("Name", ""),
            access_level=self.access_level(element),
            declared_package=element.get("DeclaredPackage", ""),
            superclass=superclass,
            attributes=tuple(attributes),
            methods=tuple(methods),
        )

    def read_method(self, element: ElementTree.Element) -> MethodDecl:
        self.check_children(element)
        parameters = [
            ParameterDecl(child.get("ParameterName", ""), child.get("ParameterType", ""))
            for child in self.children(element, "Parameters", {"Parameter"})
        ]
        for container in element:
            if container.tag == "Parameters":
                declared = container.get("NumberOfParameters")
                if declared is not None and declared != str(len(parameters)):
                    self.warn(
                        f"NumberOfParameters={declared!r} disagrees with "
                        f"{len(parameters)} Parameter elements; using the element count"
                    )
        locals_ = [
            LocalVariableDecl(child.get("LocalVariableName", ""), child.get("LocalVariableType", ""))
            for child in self.children(element, "LocalVariables", {"LocalVariable"})
        ]
        accesses = [
            AttributeAccess(child.get("Name", ""), child.get("Type", ""))
            for child in self.children(element, "AttributeAccesses", {"AttributeAccess"})
        ]
        invocations = [
            MethodInvocation(child.get("Name", ""), child.get("AccessedIn", ""))
            for child in self.children(element, "MethodInvocations", {"MethodInvocation"})
        ]
        return MethodDecl(
            name=element.get("Name", ""),
            access_level=self.access_level(element),
            return_type=element.get("ReturnType", ""),
            declared_class=element.get("DeclaredClass", ""),
            parameters=tuple(parameters),
            local_variables=tuple(locals_),
            attribute_accesses=tuple(accesses),
            method_invocations=tuple(invocations),
        )


_CONTAINER_TAGS = {
    "Project": {"Packages"},
    "Package": {"Classes"},
    "Class": {"Attributes", "Methods"},
    "Method": {"Parameters", "LocalVariables", "AttributeAccesses", "MethodInvocations"},
}
