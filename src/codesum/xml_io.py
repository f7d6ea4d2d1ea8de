"""XML interchange for the project model.

``_PROJECT`` and the entries it reaches are the one statement of the
document's shape: Project > Packages > Package > Classes > Class >
(Attributes, Methods), with Parameters, LocalVariables, AttributeAccesses and
MethodInvocations nested under each Method. Export writes from that table,
and import reads from it and derives from it which attributes and elements
are known. Attribute order is fixed, indentation is two spaces, container
elements are always present even when empty, and an absent superclass is
written as an empty attribute value, so exporting the same model twice
yields identical bytes. Export builds the document once, from its list of
lines. Import reads expat's element events and holds no element tree: it
builds each leaf record at its start event and any other record when its
element ends, and keeps one string per distinct attribute value.
"""

from __future__ import annotations

from operator import itemgetter
from xml.parsers import expat

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

# The one container that states its item count: written from its items, and
# on import checked against them.
_COUNTED_CONTAINER, _COUNT_ATTRIBUTE = "Parameters", "NumberOfParameters"


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
        # Import: each attribute's value when absent, where the access level
        # and superclass stand, and each container's index and attributes.
        self.names = tuple(name for name, _ in attributes)
        self.defaults = tuple(AccessLevel.PACKAGE_PRIVATE.value if name == "AccessLevel" else "" for name in self.names)
        self.access = self.names.index("AccessLevel") if "AccessLevel" in self.names else None
        self.superclass = self.names.index("Superclass") if "Superclass" in self.names else None
        self.children = {
            tag: (index, frozenset([_COUNT_ATTRIBUTE] if tag == _COUNTED_CONTAINER else []))
            for index, (tag, _, _) in enumerate(containers)
        }
        # Import passes the attributes' values, then the containers' records;
        # a record whose fields are declared in another order takes keywords.
        fields = tuple(field for _, field in attributes) + tuple(field for _, field, _ in containers)
        if fields == record._fields:
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

_ACCESS_BY_VALUE = {level.value: level for level in AccessLevel}
_section = itemgetter(0)


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
    which both validate it, so the model is not checked again here. The
    document is joined once from its lines, the last of them empty for the
    final newline, so no second copy of it is made.
    """
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    _emit(lines, _PROJECT, model, "")
    lines.append("")
    return "\n".join(lines)


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
    empty = CodeModel(project_name="", packages=())
    try:
        root, model, messages = _read(text)
    except expat.ExpatError as exc:
        return empty, [error(f"malformed XML: {exc}")]
    if model is None:
        return empty, [error(f"unknown root element {root!r}, expected {_PROJECT.tag!r}")]
    return model, [*map(warning, messages), *validate_model(model)]


def _universal(name: str) -> str:
    """ElementTree's ``{uri}local`` form of a name that expat split at ``}``."""
    return "{" + name if "}" in name else name


class _Frame:
    """An open record with containers: its entry and attribute values, each
    container's records (None until it is seen), the open container's
    index, and the warnings as ``(section, message)``."""

    __slots__ = ("entry", "values", "records", "open", "mark", "declared", "messages")

    def __init__(self, entry: _Entry, values: list):
        self.entry, self.values, self.open, self.messages = entry, values, None, []
        self.records: list[list | None] = [None] * len(entry.containers)


def _read(text: str) -> tuple[str, CodeModel | None, list[str]]:
    """The root element's name, the model (None under another root) and its
    warnings, from expat's element events; no element tree is kept.

    A leaf (a record without containers) is built at its start event; any
    other record when its element ends. Every attribute value passes through
    one table first, so equal values share one string.

    Warnings keep the order of reading one element whole: its attributes'
    and its unknown and duplicate children's (section 0); per container
    ``i``, the attribute and unknown-element warnings of its instances and
    items (``1 + 3 * i``), the items' own warnings (``2 + 3 * i``) and the
    parameter count (``3 + 3 * i``); its access level last. A frame sorts
    its warnings by section at the end event and hands them to its owner; a
    leaf's unknown children and then its access level reach its owner at
    section ``2 + 3 * i`` as they are read.
    """
    stack: list[_Frame] = []
    frame: _Frame | None = None  # the innermost open record with containers
    item: _Entry | None = None  # the item entry of its open container
    records: list | None = None  # and that container's records
    leaf: str | None = None  # while a leaf is open: its access-level warning, or ""
    skipping = 0  # depth inside an ignored element
    root, model, messages = "", None, []
    share = {}.setdefault  # one string per distinct attribute value

    def start(name: str, attributes: dict[str, str]) -> None:
        nonlocal skipping, root, frame, item, records, leaf
        if skipping:
            skipping += 1
            return
        if leaf is not None:  # a leaf's child: the leaf's own warning
            message = f"unknown element <{_universal(name)}> under <{item.tag}> (ignored)"
            frame.messages.append((2 + 3 * frame.open, message))
            skipping = 1
            return
        owner = frame
        if item is not None and name == item.tag:
            entry, known, section = item, item.known_attributes, 1 + 3 * frame.open
        elif frame is None:
            root = _universal(name)
            if name != _PROJECT.tag:
                skipping = 1
                return
            entry, known, section = _PROJECT, _PROJECT.known_attributes, 0
        elif item is None and name in frame.entry.children:
            index, known = frame.entry.children[name]
            if frame.records[index] is None:
                frame.records[index] = []
            else:
                frame.messages.append((0, f"duplicate <{name}> under <{frame.entry.tag}> (merged)"))
            item, records = frame.entry.containers[index][2], frame.records[index]
            frame.open, frame.mark = index, len(records)
            frame.declared = attributes.get(_COUNT_ATTRIBUTE) if _COUNT_ATTRIBUTE in known else None
            entry, section = None, 1 + 3 * index
        else:
            if item is None:
                section, parent = 0, frame.entry.tag
            else:
                section, parent = 1 + 3 * frame.open, frame.entry.containers[frame.open][0]
            frame.messages.append((section, f"unknown element <{_universal(name)}> under <{parent}> (ignored)"))
            skipping = 1
            return
        if entry is not None:
            values = [share(value, value) for value in map(attributes.get, entry.names, entry.defaults)]
            access = ""
            if entry.access is not None:
                value = values[entry.access]
                if value not in _ACCESS_BY_VALUE:
                    access = f"unknown access level {value!r} on <{entry.tag}>, using package-private"
                values[entry.access] = _ACCESS_BY_VALUE.get(value, AccessLevel.PACKAGE_PRIVATE)
            if entry.superclass is not None:
                values[entry.superclass] = values[entry.superclass] or None
            if entry.containers:
                frame, item, records = _Frame(entry, values), None, None
                stack.append(frame)
                if access:
                    frame.messages.append((1 + 3 * len(entry.containers), access))
                owner = owner or frame  # the root warns itself
            else:
                records.append(entry.build(*values))
                leaf = access
        if not known.issuperset(attributes):
            for key in attributes:
                if key not in known:
                    owner.messages.append((section, f"unknown attribute {_universal(key)!r} on <{name}> (ignored)"))

    def end(name: str) -> None:
        nonlocal skipping, model, messages, frame, item, records, leaf
        if skipping:
            skipping -= 1
            return
        if leaf is not None:
            if leaf:
                frame.messages.append((2 + 3 * frame.open, leaf))
            leaf = None
            return
        if item is not None:  # the open container ends
            index, count = frame.open, len(records) - frame.mark
            if frame.declared not in (None, str(count)):
                message = f"{_COUNT_ATTRIBUTE}={frame.declared!r} disagrees with {count} {item.tag} elements"
                frame.messages.append((3 + 3 * index, f"{message}; using the element count"))
            frame.open, item, records = None, None, None
            return
        stack.pop()
        record = frame.entry.build(*frame.values, *[found or () for found in frame.records])
        if not stack:
            model, messages = record, [message for _, message in sorted(frame.messages, key=_section)]
            return
        owner = stack[-1]
        index = owner.open
        item, records = owner.entry.containers[index][2], owner.records[index]
        records.append(record)
        if frame.messages:
            owner.messages += [(2 + 3 * index, text) for _, text in sorted(frame.messages, key=_section)]
        frame = owner

    def doctype(*_: object) -> None:
        # Expat leaves references to entities a DTD may define to the default
        # handler, from which ElementTree reports them; text must not reach it.
        parser.CharacterDataHandler, parser.DefaultHandlerExpand = len, default

    def default(data: str) -> None:
        if len(data) >= 2 and data[0] == "&":
            reference = data.encode()[:100].decode(errors="replace")
            raise expat.ExpatError(
                f"undefined entity {reference}: line {parser.CurrentLineNumber}, column {parser.CurrentColumnNumber}"
            )

    parser = expat.ParserCreate(namespace_separator="}")
    parser.StartElementHandler, parser.EndElementHandler, parser.StartDoctypeDeclHandler = start, end, doctype
    try:
        parser.Parse(text, True)
    finally:
        parser = None  # the handlers hold it
    return root, model, messages
