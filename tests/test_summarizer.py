"""Sentence templates, list rendering, and display folding."""

import re
from random import Random

import pytest

from codesum.model import (
    AccessLevel,
    AttributeAccess,
    AttributeDecl,
    ClassDecl,
    LocalVariableDecl,
    MethodDecl,
    MethodInvocation,
    ParameterDecl,
)
from codesum.summarizer import (
    RenderingConfig,
    class_sentences,
    method_sentences,
    render_identifier,
    render_name_list,
    render_type,
)

CONFIG = RenderingConfig()


def test_render_name_list_shapes():
    assert render_name_list(["a"]) == "a"
    assert render_name_list(["a", "b"]) == "a and b"
    assert render_name_list(["a", "b", "c"]) == "a, b and c"
    assert render_name_list(["read", "empty", "close", "pop", "read"]) == "read, empty, close, pop and read"


def test_render_name_list_has_no_comma_before_and():
    for count in range(2, 8):
        rendered = render_name_list([f"n{i}" for i in range(count)])
        assert ", and" not in rendered


def test_render_name_list_rejects_empty_input():
    with pytest.raises(ValueError):
        render_name_list([])


def test_render_identifier_folds_constant_style_names():
    assert render_identifier("EXIT_ON_CLOSE", CONFIG) == "exit_on_close"
    assert render_identifier("MAX", CONFIG) == "max"
    assert render_identifier("A_9", CONFIG) == "a_9"


def test_render_identifier_leaves_other_names_alone():
    assert render_identifier("MyOval", CONFIG) == "MyOval"
    assert render_identifier("x", CONFIG) == "x"
    assert render_identifier("X", CONFIG) == "X"  # single letters stay
    assert render_identifier("__", CONFIG) == "__"  # no alphabetic character
    assert render_identifier("getX1", CONFIG) == "getX1"


def _folds(name: str) -> bool:
    """The folding rule as first written, without the upper-case pre-test."""
    return len(name) >= 2 and bool(re.fullmatch(r"[A-Z_][A-Z0-9_]*", name)) and any(ch.isalpha() for ch in name)


def test_render_identifier_folds_exactly_the_constant_style_names():
    ascii_characters = [chr(code) for code in range(128)]
    names = ascii_characters + [first + second for first in ascii_characters for second in ascii_characters]
    rng = Random(2011)
    others = [chr(code) for code in range(128, 0x3000) if chr(code).isalnum()]
    pieces = others + list("AZ_09az")
    names += ["ÄB", "ǅX", "ΣΑ", "X²", "Ⅻ_A", "A\u0130"]
    names += ["".join(rng.choice(pieces) for _ in range(rng.randint(1, 4))) for _ in range(3000)]
    for name in names:
        assert render_identifier(name, CONFIG) == (name.lower() if _folds(name) else name), repr(name)


def test_render_identifier_folding_can_be_disabled():
    config = RenderingConfig(lowercase_constant_identifiers=False)
    assert render_identifier("EXIT_ON_CLOSE", config) == "EXIT_ON_CLOSE"


def test_render_type_maps_only_exact_names():
    assert render_type("String", CONFIG) == "string"
    assert render_type("Object", CONFIG) == "object"
    assert render_type("char", CONFIG) == "character"
    assert render_type("Graphics", CONFIG) == "Graphics"
    assert render_type("String[]", CONFIG) == "String[]"


def test_configs_share_no_mutable_default_type_display_map():
    first, second = RenderingConfig(), RenderingConfig()
    assert first.type_display_map == {"String": "string", "Object": "object", "char": "character"}
    with pytest.raises(TypeError):
        first.type_display_map["Graphics"] = "graphics"
    assert render_type("Graphics", second) == "Graphics"


def test_render_type_honors_a_custom_map():
    config = RenderingConfig(type_display_map={"Graphics": "graphics"})
    assert render_type("Graphics", config) == "graphics"
    assert render_type("String", config) == "String"


def _class(**overrides):
    fields = dict(name="C", access_level=AccessLevel.PUBLIC, declared_package="p")
    fields.update(overrides)
    return ClassDecl(**fields)


def _method(**overrides):
    fields = dict(name="m", access_level=AccessLevel.PUBLIC, return_type="void", declared_class="C")
    fields.update(overrides)
    return MethodDecl(**fields)


def test_class_messages_cover_all_kinds_in_order():
    cls = _class(
        superclass="Base",
        attributes=(AttributeDecl("x", AccessLevel.PRIVATE, "int"),),
        methods=(_method(), _method(name="n")),
    )
    assert class_sentences(cls, CONFIG) == [
        "The name of this class is C.",
        "The access level for this class is public.",
        "The package to which this class belongs is p.",
        "This class inherits from the Base class.",
        "This class contains the following attribute: x.",
        "This class contains the following methods: m and n.",
    ]


def test_class_messages_omit_empty_list_kinds():
    assert class_sentences(_class(), CONFIG) == [
        "The name of this class is C.",
        "The access level for this class is public.",
        "The package to which this class belongs is p.",
    ]


def test_package_private_access_is_spelled_out():
    cls = _class(access_level=AccessLevel.PACKAGE_PRIVATE)
    assert class_sentences(cls, CONFIG)[1] == "The access level for this class is package-private."


def test_method_messages_cover_all_kinds_in_order():
    method = _method(
        parameters=(ParameterDecl("a", "int"),),
        local_variables=(LocalVariableDecl("v", "char"),),
        attribute_accesses=(AttributeAccess("x", "int"),),
        method_invocations=(MethodInvocation("f", "C"),),
    )
    assert method_sentences(method, CONFIG) == [
        "The name of this method is m.",
        "The access level for this method is public.",
        "The return data type for this method is void.",
        "The class to which this method belongs is C.",
        "This method contains 1 parameter.",
        "This method consists of the following parameter: a and its data type is int.",
        "This method contains the following local variable: v and its data type is character.",
        "This method accesses the following attribute: x.",
        "This method invokes the following method: f.",
    ]


def test_method_messages_omit_empty_list_kinds():
    assert method_sentences(_method(), CONFIG) == [
        "The name of this method is m.",
        "The access level for this method is public.",
        "The return data type for this method is void.",
        "The class to which this method belongs is C.",
    ]


def test_parameter_message_count_and_enumeration_agree():
    two = _method(parameters=(ParameterDecl("a", "int"), ParameterDecl("b", "String")))
    assert method_sentences(two, CONFIG)[4:] == [
        "This method contains 2 parameters.",
        "This method consists of the following parameters: a and its data type is int and b and its data type is string.",
    ]
    three = _method(
        parameters=(ParameterDecl("a", "int"), ParameterDecl("b", "char"), ParameterDecl("c", "Object"))
    )
    assert method_sentences(three, CONFIG)[4:] == [
        "This method contains 3 parameters.",
        "This method consists of the following parameters: "
        "a and its data type is int, b and its data type is character and c and its data type is object.",
    ]


def test_constant_style_names_fold_inside_messages():
    method = _method(attribute_accesses=(AttributeAccess("EXIT_ON_CLOSE", "unknown"),))
    assert method_sentences(method, CONFIG)[-1] == (
        "This method accesses the following attribute: exit_on_close."
    )


def test_reader_method_full_paragraph(nanoxml_model):
    cls = next(
        cls
        for package in nanoxml_model.packages
        for cls in package.classes
        if cls.name == "StdXMLReader"
    )
    method = next(m for m in cls.methods if m.name == "read")
    assert method_sentences(method, CONFIG) == [
        "The name of this method is read.",
        "The access level for this method is public.",
        "The return data type for this method is character.",
        "The class to which this method belongs is StdXMLReader.",
        "This method contains the following local variable: ch and its data type is int.",
        "This method accesses the following attributes: currentReader, pbReader and readers.",
        "This method invokes the following methods: read, empty, close, pop and read.",
    ]


def test_every_message_is_a_sentence(corpus_models):
    for model in corpus_models.values():
        for package in model.packages:
            for cls in package.classes:
                rendered = class_sentences(cls, CONFIG)
                for method in cls.methods:
                    rendered.extend(method_sentences(method, CONFIG))
                for sentence in rendered:
                    assert sentence.endswith(".")
                    assert ". " not in sentence
                    assert "\n" not in sentence
