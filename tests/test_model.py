"""Model construction, lookup, and validation invariants."""

import pytest

from codesum.diagnostics import Severity
from codesum.model import (
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

from conftest import lookup_class


def _method(name="m", cls="C", **overrides):
    fields = dict(name=name, access_level=AccessLevel.PUBLIC, return_type="void", declared_class=cls)
    fields.update(overrides)
    return MethodDecl(**fields)


def _class(name="C", package="p", **overrides):
    fields = dict(name=name, access_level=AccessLevel.PUBLIC, declared_package=package)
    fields.update(overrides)
    return ClassDecl(**fields)


def _model(*packages):
    return CodeModel(project_name="demo", packages=packages)


def test_collection_fields_are_coerced_to_tuples():
    method = _method(
        parameters=[ParameterDecl("a", "int")],
        local_variables=[LocalVariableDecl("v", "char")],
        attribute_accesses=[AttributeAccess("x")],
        method_invocations=[MethodInvocation("f")],
    )
    cls = _class(attributes=[AttributeDecl("x", AccessLevel.PRIVATE, "int")], methods=[method])
    model = CodeModel(project_name="demo", packages=[PackageDecl("p", [cls])])
    assert isinstance(model.packages, tuple)
    assert isinstance(model.packages[0].classes, tuple)
    assert isinstance(cls.attributes, tuple)
    assert isinstance(cls.methods, tuple)
    assert isinstance(method.parameters, tuple)
    assert isinstance(method.local_variables, tuple)
    assert isinstance(method.attribute_accesses, tuple)
    assert isinstance(method.method_invocations, tuple)
    # ``_make``, and ``_replace``, which calls it, keep each collection as a tuple too.
    for record in (method, cls, model.packages[0], model):
        lists = [list(field) if type(field) is tuple else field for field in record]
        for rebuilt in (type(record)._make(lists), record._replace(**dict(zip(record._fields, lists)))):
            assert [type(field) for field in rebuilt] == [type(field) for field in record], rebuilt
            assert type(rebuilt) is type(record) and hash(rebuilt) == hash(record)


def test_nodes_are_immutable():
    records = [
        ParameterDecl("a", "int"),
        LocalVariableDecl("v", "char"),
        AttributeAccess("x"),
        MethodInvocation("f"),
        AttributeDecl("x", AccessLevel.PRIVATE, "int"),
        _method(),
        _class(),
        PackageDecl("p"),
        _model(),
    ]
    for record in records:
        for name in record._fields:
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, "other")
            assert getattr(record, name) is value
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = "other"
        assert not hasattr(record, "extra")


def test_structural_equality_ignores_input_container_kind():
    def build(container):
        method = _method(parameters=container([ParameterDecl("a", "int")]))
        cls = _class(methods=container([method]))
        return CodeModel("demo", container([PackageDecl("p", container([cls]))]))

    assert build(list) == build(tuple)


def test_default_sentinels():
    assert AttributeAccess("x").resolved_type == "unknown"
    assert MethodInvocation("f").accessed_in == "external"


def test_lookup_class_finds_and_misses():
    cls = _class("C", "p")
    model = _model(PackageDecl("p", (cls,)), PackageDecl("q", ()))
    assert lookup_class(model, "p", "C") is cls
    assert lookup_class(model, "q", "C") is None
    assert lookup_class(model, "absent", "C") is None
    assert lookup_class(model, "p", "D") is None


def test_validate_accepts_sound_models():
    assert validate_model(_model()) == []
    cls = _class(
        superclass="Base",
        attributes=(AttributeDecl("x", AccessLevel.PRIVATE, "int"),),
        methods=(
            _method(
                parameters=(ParameterDecl("a", "int"),),
                local_variables=(LocalVariableDecl("v", "char"),),
                attribute_accesses=(AttributeAccess("x", "int"),),
                method_invocations=(MethodInvocation("f", "C"), MethodInvocation("f", "C")),
            ),
        ),
    )
    assert validate_model(_model(PackageDecl("p", (cls,)))) == []


@pytest.mark.parametrize(
    "model, phrase",
    [
        (_model(PackageDecl("p", ()), PackageDecl("p", ())), "duplicate package"),
        (_model(PackageDecl("p", (_class("C"), _class("C")))), "duplicate class"),
        (_model(PackageDecl("p", (_class("C", package="other"),))), "does not match enclosing package"),
        (_model(PackageDecl("p", (_class("C", superclass="C"),))), "inherit from itself"),
        (_model(PackageDecl("p", (_class("C", superclass=""),))), "superclass name is empty"),
        (
            _model(
                PackageDecl(
                    "p",
                    (
                        _class(
                            attributes=(
                                AttributeDecl("x", AccessLevel.PUBLIC, "int"),
                                AttributeDecl("x", AccessLevel.PUBLIC, "char"),
                            )
                        ),
                    ),
                )
            ),
            "duplicate attribute",
        ),
        (
            _model(PackageDecl("p", (_class(methods=(_method(cls="Other"),)),))),
            "does not match enclosing class",
        ),
        (
            _model(
                PackageDecl(
                    "p",
                    (
                        _class(
                            methods=(
                                _method(
                                    attribute_accesses=(AttributeAccess("x"), AttributeAccess("x")),
                                ),
                            )
                        ),
                    ),
                )
            ),
            "duplicate attribute access",
        ),
        (_model(PackageDecl("p", (_class(methods=(_method(return_type=""),)),))), "empty return type"),
        (
            _model(PackageDecl("p", (_class(methods=(_method(parameters=(ParameterDecl("", "int"),)),)),))),
            "parameter with empty name or type",
        ),
    ],
)
def test_validate_reports_violations(model, phrase):
    problems = validate_model(model)
    assert problems, phrase
    assert all(problem.severity is Severity.ERROR for problem in problems)
    assert any(phrase in problem.message for problem in problems)


def test_validate_does_not_mutate(corpus_models):
    for model in corpus_models.values():
        before = model
        assert validate_model(model) == []
        assert model == before
