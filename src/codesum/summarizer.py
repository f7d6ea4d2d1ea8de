"""Template-based English sentences about classes and methods.

Each sentence states one fact about its subject. A class gets up to six
(name, access level, package, inheritance, attributes, methods); a method
gets up to nine (name, access level, return type, class, parameter count,
parameters, local variables, attribute accesses, invocations). Inheritance
is left out when the class has no superclass, and each list-valued fact
when its list is empty; the others always appear, in the fixed order above.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

from .model import ClassDecl, MethodDecl


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


def class_sentences(cls: ClassDecl, config: RenderingConfig) -> list[str]:
    """The class's sentences, in fixed order."""
    name, access_level, package, superclass, attributes, methods = cls
    sentences = [
        f"The name of this class is {render_identifier(name, config)}.",
        f"The access level for this class is {access_level.value}.",
        f"The package to which this class belongs is {package}.",
    ]
    if superclass is not None:
        sentences.append(f"This class inherits from the {render_identifier(superclass, config)} class.")
    if attributes:
        names = [render_identifier(attribute, config) for attribute, _, _ in attributes]
        sentences.append(_listing("This class contains the following attribute", names))
    if methods:
        names = [render_identifier(method.name, config) for method in methods]
        sentences.append(_listing("This class contains the following method", names))
    return sentences


def method_sentences(method: MethodDecl, config: RenderingConfig) -> list[str]:
    """The method's sentences, in fixed order."""
    name, access_level, return_type, declared_class, parameters, local_variables, accesses, invocations = method
    sentences = [
        f"The name of this method is {render_identifier(name, config)}.",
        f"The access level for this method is {access_level.value}.",
        f"The return data type for this method is {render_type(return_type, config)}.",
        f"The class to which this method belongs is {render_identifier(declared_class, config)}.",
    ]
    if parameters:
        count = len(parameters)
        sentences.append(f"This method contains {count} parameter{'s' if count > 1 else ''}.")
        clauses = [
            f"{render_identifier(param, config)} and its data type is {render_type(declared_type, config)}"
            for param, declared_type in parameters
        ]
        sentences.append(_listing("This method consists of the following parameter", clauses))
    if local_variables:
        clauses = [
            f"{render_identifier(local, config)} and its data type is {render_type(declared_type, config)}"
            for local, declared_type in local_variables
        ]
        sentences.append(_listing("This method contains the following local variable", clauses))
    if accesses:
        names = [render_identifier(access, config) for access, _ in accesses]
        sentences.append(_listing("This method accesses the following attribute", names))
    if invocations:
        names = [render_identifier(invocation, config) for invocation, _ in invocations]
        sentences.append(_listing("This method invokes the following method", names))
    return sentences
