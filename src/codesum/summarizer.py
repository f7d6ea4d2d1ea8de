"""Template-based English messages for classes and methods.

Each message is one fact about the subject rendered as a full sentence.
Classes get up to six kinds (name, access level, package, inheritance,
attributes, methods); methods get up to eight (name, access level, return
type, class, parameters, local variables, attribute accesses, invocations).
List-valued kinds are omitted entirely when their source collection is
empty; the others always appear, in the fixed order above.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from enum import Enum
from types import MappingProxyType
from typing import NamedTuple

from .model import ClassDecl, MethodDecl


class MessageKind(Enum):
    CLASS_NAME = "class-name"
    CLASS_ACCESS_LEVEL = "class-access-level"
    CLASS_PACKAGE = "class-package"
    CLASS_INHERITANCE = "class-inheritance"
    CLASS_ATTRIBUTE = "class-attribute"
    CLASS_METHOD = "class-method"
    METHOD_NAME = "method-name"
    METHOD_ACCESS_LEVEL = "method-access-level"
    METHOD_RETURN_TYPE = "method-return-type"
    METHOD_CLASS = "method-class"
    METHOD_PARAMETER = "method-parameter"
    METHOD_VARIABLE = "method-variable"
    METHOD_ACCESS = "method-access"
    METHOD_INVOCATION = "method-invocation"


class RapidSummaryMessage(NamedTuple):
    """One rendered fact; ``text`` is one or more sentences ending with '.'."""

    kind: MessageKind
    text: str


class RenderingConfig(NamedTuple):
    """Surface-form knobs for identifier and type rendering.

    ``type_display_map`` rewrites type names for display (unmapped names pass
    through verbatim); the default map is read-only, so every config can
    share it. ``lowercase_constant_identifiers`` folds names written in the
    all-uppercase constant style (length two or more) to lowercase.
    """

    type_display_map: Mapping[str, str] = MappingProxyType({"String": "string", "Object": "object", "char": "character"})
    lowercase_constant_identifiers: bool = True


_CONSTANT_STYLE = re.compile(r"[A-Z_][A-Z0-9_]*")


def render_identifier(name: str, config: RenderingConfig) -> str:
    # Upper case is tested first. It needs a cased letter: under _CONSTANT_STYLE, one of A-Z.
    if config.lowercase_constant_identifiers and name.isupper() and len(name) >= 2 and _CONSTANT_STYLE.fullmatch(name):
        return name.lower()
    return name


def render_type(name: str, config: RenderingConfig) -> str:
    return config.type_display_map.get(name, name)


def render_name_list(names: list[str]) -> str:
    """Join names English-style: "a", "a and b", "a, b and c" (no comma before "and")."""
    if not names:
        raise ValueError("cannot render an empty name list")
    if len(names) == 1:
        return names[0]
    return ", ".join(names[:-1]) + " and " + names[-1]


def _listing(head: str, items: list[str]) -> str:
    """``head`` ends in a singular noun; more than one item makes it plural."""
    if len(items) == 1:
        return f"{head}: {items[0]}."
    return f"{head}s: {render_name_list(items)}."


def class_messages(cls: ClassDecl, config: RenderingConfig) -> list[RapidSummaryMessage]:
    """The class's messages, in fixed kind order."""
    messages = [
        RapidSummaryMessage(
            MessageKind.CLASS_NAME,
            f"The name of this class is {render_identifier(cls.name, config)}.",
        ),
        RapidSummaryMessage(
            MessageKind.CLASS_ACCESS_LEVEL,
            f"The access level for this class is {cls.access_level.value}.",
        ),
        RapidSummaryMessage(
            MessageKind.CLASS_PACKAGE,
            f"The package to which this class belongs is {cls.declared_package}.",
        ),
    ]
    if cls.superclass is not None:
        messages.append(
            RapidSummaryMessage(
                MessageKind.CLASS_INHERITANCE,
                f"This class inherits from the {render_identifier(cls.superclass, config)} class.",
            )
        )
    if cls.attributes:
        names = [render_identifier(attr.name, config) for attr in cls.attributes]
        listing = _listing("This class contains the following attribute", names)
        messages.append(RapidSummaryMessage(MessageKind.CLASS_ATTRIBUTE, listing))
    if cls.methods:
        names = [render_identifier(method.name, config) for method in cls.methods]
        listing = _listing("This class contains the following method", names)
        messages.append(RapidSummaryMessage(MessageKind.CLASS_METHOD, listing))
    return messages


def method_messages(method: MethodDecl, config: RenderingConfig) -> list[RapidSummaryMessage]:
    """The method's messages, in fixed kind order."""
    messages = [
        RapidSummaryMessage(
            MessageKind.METHOD_NAME,
            f"The name of this method is {render_identifier(method.name, config)}.",
        ),
        RapidSummaryMessage(
            MessageKind.METHOD_ACCESS_LEVEL,
            f"The access level for this method is {method.access_level.value}.",
        ),
        RapidSummaryMessage(
            MessageKind.METHOD_RETURN_TYPE,
            f"The return data type for this method is {render_type(method.return_type, config)}.",
        ),
        RapidSummaryMessage(
            MessageKind.METHOD_CLASS,
            f"The class to which this method belongs is {render_identifier(method.declared_class, config)}.",
        ),
    ]
    if method.parameters:
        count = len(method.parameters)
        count_sentence = f"This method contains {count} parameter{'s' if count > 1 else ''}."
        clauses = [
            f"{render_identifier(param.name, config)} and its data type is "
            f"{render_type(param.declared_type, config)}"
            for param in method.parameters
        ]
        enumeration = _listing("This method consists of the following parameter", clauses)
        messages.append(
            RapidSummaryMessage(MessageKind.METHOD_PARAMETER, f"{count_sentence} {enumeration}")
        )
    if method.local_variables:
        clauses = [
            f"{render_identifier(local.name, config)} and its data type is "
            f"{render_type(local.declared_type, config)}"
            for local in method.local_variables
        ]
        listing = _listing("This method contains the following local variable", clauses)
        messages.append(RapidSummaryMessage(MessageKind.METHOD_VARIABLE, listing))
    if method.attribute_accesses:
        names = [render_identifier(access.name, config) for access in method.attribute_accesses]
        listing = _listing("This method accesses the following attribute", names)
        messages.append(RapidSummaryMessage(MessageKind.METHOD_ACCESS, listing))
    if method.method_invocations:
        names = [render_identifier(invocation.name, config) for invocation in method.method_invocations]
        listing = _listing("This method invokes the following method", names)
        messages.append(RapidSummaryMessage(MessageKind.METHOD_INVOCATION, listing))
    return messages
