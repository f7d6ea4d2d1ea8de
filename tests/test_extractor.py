"""Dependency extraction rules and model assembly."""

from collections import Counter

import pytest

from codesum import lexer
from codesum.diagnostics import has_errors
from codesum.extractor import DEFAULT_PACKAGE, build_model, discover_source_files, parse_project
from codesum.lexer import TokenKind, token_kind, tokenize
from codesum.parser import parse_compilation_unit

from conftest import FIXTURES, lookup_class


def _unit(source, file="Test.java"):
    tokens, lex_diagnostics = tokenize(source, file)
    assert not has_errors(lex_diagnostics)
    unit, diagnostics = parse_compilation_unit(tokens, file)
    assert unit is not None and not has_errors(diagnostics), [str(d) for d in diagnostics]
    return unit


def _single_class_method(source, class_name="C", method_name="m"):
    model, diagnostics = build_model([_unit(source)], "test")
    assert not has_errors(diagnostics), [str(d) for d in diagnostics]
    cls = lookup_class(model, "p", class_name)
    assert cls is not None
    return next(method for method in cls.methods if method.name == method_name)


def _accesses(method):
    return [(a.name, a.resolved_type) for a in method.attribute_accesses]


def _invocations(method):
    return [(i.name, i.accessed_in) for i in method.method_invocations]


def test_bare_call_resolves_to_enclosing_class():
    method = _single_class_method("package p; class C { void m() { run(); } }")
    assert _invocations(method) == [("run", "C")]
    assert _accesses(method) == []


def test_parameter_receiver_is_recorded_with_its_type():
    method = _single_class_method("package p; class C { void m(Graphics g) { g.setColor(1); } }")
    assert _accesses(method) == [("g", "Graphics")]
    assert _invocations(method) == [("setColor", "Graphics")]


def test_this_qualified_field_resolves_against_fields():
    method = _single_class_method("package p; class C { int x; void m() { this.x = 1; } }")
    assert _accesses(method) == [("x", "int")]


def test_bare_field_name_outside_receiver_position_is_not_an_access():
    method = _single_class_method("package p; class C { int x; void m() { x = x + 1; } }")
    assert _accesses(method) == []


def test_unknown_receiver_degrades_to_sentinels():
    method = _single_class_method("package p; class C { void m() { foo.bar(); } }")
    assert _accesses(method) == [("foo", "unknown")]
    assert _invocations(method) == [("bar", "external")]


def test_imported_type_receiver_is_not_an_access():
    source = """
    package p;
    import javax.swing.JFrame;
    class C {
        void m() {
            JFrame.setDefaultLookAndFeelDecorated(true);
            int z = JFrame.EXIT_ON_CLOSE;
        }
    }
    """
    method = _single_class_method(source)
    assert _invocations(method) == [("setDefaultLookAndFeelDecorated", "JFrame")]
    assert _accesses(method) == [("EXIT_ON_CLOSE", "unknown")]


def test_model_class_name_receiver_is_not_an_access():
    source = "package p; class Helper {} class C { void m() { Helper.run(); } }"
    method = _single_class_method(source)
    assert _invocations(method) == [("run", "Helper")]
    assert _accesses(method) == []


def test_local_variable_shadows_a_known_type_name():
    source = """
    package p;
    import javax.swing.JFrame;
    class C { void m() { String JFrame = null; JFrame.trim(); } }
    """
    method = _single_class_method(source)
    assert _accesses(method) == [("JFrame", "String")]
    assert _invocations(method) == [("trim", "String")]


def test_this_qualified_unknown_field_is_unknown():
    method = _single_class_method("package p; class C { void m() { this.ghost = 1; } }")
    assert _accesses(method) == [("ghost", "unknown")]


def test_super_invocation_uses_superclass_name():
    method = _single_class_method("package p; class C extends B { void m() { super.m(); } }")
    assert _invocations(method) == [("m", "B")]
    orphan = _single_class_method("package p; class C { void m() { super.m(); } }")
    assert _invocations(orphan) == [("m", "external")]


def test_constructor_machinery_is_not_an_invocation():
    source = "package p; class C extends B { C() { super(1); Object o = new Object(); } }"
    method = _single_class_method(source, method_name="C")
    assert _invocations(method) == []


def test_call_on_fresh_instance_uses_the_new_type():
    source = "package p; class C { int x; void m() { new Helper(this.x).run(); } }"
    method = _single_class_method(source)
    assert _invocations(method) == [("run", "Helper")]
    assert _accesses(method) == [("x", "int")]


def test_accesses_deduplicate_by_first_occurrence():
    source = "package p; class C { int a; char b; void m() { this.a = 1; this.b = 'x'; this.a = 2; } }"
    method = _single_class_method(source)
    assert _accesses(method) == [("a", "int"), ("b", "char")]


def test_invocations_keep_duplicates_in_source_order():
    method = _single_class_method("package p; class C { void m() { f(); g(); f(); } }")
    assert [name for name, _ in _invocations(method)] == ["f", "g", "f"]


def test_nested_argument_calls_are_ordered_by_position():
    method = _single_class_method("package p; class C { void m(Graphics g) { g.setColor(getColor()); } }")
    assert [name for name, _ in _invocations(method)] == ["setColor", "getColor"]


def test_chained_calls_record_each_step():
    source = "package p; class C { Stack s; void m() { s.pop().use(); } }"
    method = _single_class_method(source)
    assert _invocations(method) == [("pop", "Stack"), ("use", "external")]
    assert _accesses(method) == [("s", "Stack")]


def test_locals_accumulate_in_declaration_order():
    source = """
    package p;
    class C {
        void m(int n) {
            int a = 1, b = a;
            for (int i = 0; i < n; i++) { }
            for (String s : names()) { }
            for (int row[] : grid()) { }
            for (int c[] = null, d = 0; ; ) { }
        }
    }
    """
    method = _single_class_method(source)
    assert [(v.name, v.declared_type) for v in method.local_variables] == [
        ("a", "int"),
        ("b", "int"),
        ("i", "int"),
        ("s", "String"),
        ("row", "int[]"),
        ("c", "int[]"),
        ("d", "int"),
    ]


def test_declarator_dims_widen_only_their_own_variable():
    method = _single_class_method("package p; class C { void m() { int a, b[] = null; } }")
    assert [(v.name, v.declared_type) for v in method.local_variables] == [("a", "int"), ("b", "int[]")]


def test_receiver_before_declaration_stays_unknown():
    source = "package p; class C { void m() { x.f(); int x = 1; x.g(); } }"
    method = _single_class_method(source)
    assert _accesses(method) == [("x", "unknown")]
    assert _invocations(method) == [("f", "external"), ("g", "int")]


def test_resolution_prefers_locals_over_parameters_over_fields():
    source = """
    package p;
    class C {
        String s;
        void m(int s) {
            s.f();
            char s = 'x';
            s.g();
        }
        void n() { s.g(); }
    }
    """
    method = _single_class_method(source)
    assert _accesses(method) == [("s", "int")]
    assert _invocations(method) == [("f", "int"), ("g", "char")]
    other = _single_class_method(source, method_name="n")
    assert _accesses(other) == [("s", "String")]


def test_local_initializer_resolves_before_the_local_is_in_scope():
    source = "package p; class C { F x; void m() { T x = x.make(); x.use(); } }"
    method = _single_class_method(source)
    assert _accesses(method) == [("x", "F")]
    assert _invocations(method) == [("make", "F"), ("use", "T")]
    assert [(v.name, v.declared_type) for v in method.local_variables] == [("x", "T")]


def test_for_each_iterable_resolves_before_the_variable_is_in_scope():
    for variable, declared_type in [("T x", "T"), ("T x[]", "T[]")]:
        source = f"package p; class C {{ F x; void m() {{ for ({variable} : x.all()) {{ x.use(); }} }} }}"
        method = _single_class_method(source)
        assert _accesses(method) == [("x", "F")]
        assert _invocations(method) == [("all", "F"), ("use", declared_type)]


def test_locals_stay_in_scope_after_their_block():
    method = _single_class_method("package p; class C { void m() { { int a = 0; } a.f(); } }")
    assert _accesses(method) == [("a", "int")]
    assert _invocations(method) == [("f", "int")]


def test_parenthesized_receiver_types_the_call_but_is_no_access():
    method = _single_class_method("package p; class C { void m(P x) { (x).f(); ((x)).g(); (this).h(); } }")
    assert _invocations(method) == [("f", "P"), ("g", "P"), ("h", "C")]
    assert _accesses(method) == []
    selected = _single_class_method("package p; class C { int y; void m() { int a = (this).y; } }")
    assert _accesses(selected) == [("y", "unknown")]


def test_cast_receiver_is_external():
    method = _single_class_method("package p; class C { void m(P x) { ((T) x).f(); (T) x.g(); } }")
    assert _invocations(method) == [("f", "external"), ("g", "P")]
    assert _accesses(method) == [("x", "P")]


def test_field_initializer_calls_appear_in_no_method():
    source = "package p; class C { int x = compute(); C() { } void m() { run(); } int y = other.make(), z; }"
    model, diagnostics = build_model([_unit(source)], "test")
    assert not has_errors(diagnostics)
    cls = lookup_class(model, "p", "C")
    assert [(m.name, _invocations(m), _accesses(m), m.local_variables) for m in cls.methods] == [
        ("C", [], [], ()),
        ("m", [("run", "C")], [], ()),
    ]


@pytest.mark.parametrize("delegation", ["this", "super"])
def test_constructor_delegation_arguments_are_walked(delegation):
    source = f"package p; class C extends B {{ C(P p) {{ {delegation}(p.get(), make()); }} }}"
    method = _single_class_method(source, method_name="C")
    assert _invocations(method) == [("get", "P"), ("make", "C")]
    assert _accesses(method) == [("p", "P")]


def test_class_literal_operand_is_a_receiver():
    source = "package p; class C { void m(P x) { Object a = x.class, b = Q.class.getName(), c = int.class; } }"
    method = _single_class_method(source)
    assert _accesses(method) == [("x", "P"), ("Q", "unknown")]
    assert _invocations(method) == [("getName", "external")]


def test_build_model_groups_by_package_in_first_appearance_order():
    units = [
        _unit("package b; class One {}", "One.java"),
        _unit("package a; class Two {}", "Two.java"),
        _unit("package b; class Three {}", "Three.java"),
    ]
    model, diagnostics = build_model(units, "demo")
    assert not has_errors(diagnostics)
    assert [pkg.name for pkg in model.packages] == ["b", "a"]
    assert [cls.name for cls in model.packages[0].classes] == ["One", "Three"]


def test_missing_package_declaration_goes_to_default():
    model, diagnostics = build_model([_unit("class C {}")], "demo")
    assert not has_errors(diagnostics)
    assert [pkg.name for pkg in model.packages] == [DEFAULT_PACKAGE]


def test_duplicate_class_is_dropped_with_an_error():
    units = [
        _unit("package p; class C { void first() {} }", "A.java"),
        _unit("package p; class C { void second() {} }", "B.java"),
    ]
    model, diagnostics = build_model(units, "demo")
    assert has_errors(diagnostics)
    assert any("duplicate class" in d.message and "dropped" in d.message for d in diagnostics)
    cls = lookup_class(model, "p", "C")
    assert [m.name for m in cls.methods] == ["first"]


def test_duplicate_field_is_dropped_with_an_error():
    model, diagnostics = build_model(
        [_unit("package p; class C { int x; char x; }")], "demo"
    )
    assert has_errors(diagnostics)
    assert any("duplicate field" in d.message for d in diagnostics)
    cls = lookup_class(model, "p", "C")
    assert [(a.name, a.declared_type) for a in cls.attributes] == [("x", "int")]


@pytest.mark.parametrize("project", ["drawing-shapes", "nanoxml-like", "argouml-like"])
def test_extraction_never_invents_names(project):
    identifiers = set()
    for path in discover_source_files(FIXTURES / project):
        tokens, _ = tokenize(path.read_text(encoding="utf-8"), path.as_posix())
        identifiers.update(text for text in tokens.texts if token_kind(text) is TokenKind.IDENTIFIER)
    model, diagnostics, _ = parse_project(FIXTURES / project)
    assert not has_errors(diagnostics)
    for pkg in model.packages:
        for cls in pkg.classes:
            for method in cls.methods:
                for access in method.attribute_accesses:
                    assert access.name in identifiers
                for invocation in method.method_invocations:
                    assert invocation.name in identifiers


def _scan_call_count(tokens):
    # Independent oracle: an identifier directly followed by "(" is a call
    # site unless "new" precedes it (constructor) or a keyword names it.
    # ``tokens`` holds (kind, text) pairs.
    count = 0
    for index, (kind, _) in enumerate(tokens):
        if kind is not TokenKind.IDENTIFIER:
            continue
        following = tokens[index + 1][1] if index + 1 < len(tokens) else None
        previous = tokens[index - 1][1] if index > 0 else None
        if following == "(":
            if previous is None or previous != "new":
                count += 1
    return count


def _body_tokens(tokens, index):
    # The (kind, text) pairs between a method's braces, found from the index
    # of its name token: the first "{" after the name opens the body unless a
    # ";" ends the declaration first; the body ends at the matching "}".
    name = tokens.texts[index]
    pairs = [(token_kind(text), text) for text in tokens.texts]
    while pairs[index][1] not in ("{", ";"):
        index += 1
    if pairs[index][1] == ";":
        return []
    start, depth = index + 1, 0
    for index in range(index, len(pairs)):
        depth += {"{": 1, "}": -1}.get(pairs[index][1], 0)
        if depth == 0:
            return pairs[start:index]
    raise AssertionError(f"unclosed body of {name!r}")


@pytest.mark.parametrize("project", ["drawing-shapes", "nanoxml-like", "argouml-like"])
def test_invocation_counts_match_an_independent_token_scan(project):
    units = []
    unit_tokens = []
    for path in discover_source_files(FIXTURES / project):
        tokens, lex_diagnostics = tokenize(path.read_text(encoding="utf-8"), path.as_posix())
        assert not has_errors(lex_diagnostics)
        unit, diagnostics = parse_compilation_unit(tokens, path.as_posix())
        assert unit is not None and not has_errors(diagnostics)
        units.append(unit)
        unit_tokens.append(tokens)
    model, diagnostics = build_model(units, project)
    assert not has_errors(diagnostics)
    checked = 0
    for unit, tokens in zip(units, unit_tokens):
        package = unit.package if unit.package is not None else DEFAULT_PACKAGE
        for class_syntax in unit.classes:
            declared = lookup_class(model, package, class_syntax.name)
            assert declared is not None
            for method_syntax, method in zip(class_syntax.methods, declared.methods):
                assert method_syntax.name == method.name
                body = _body_tokens(tokens, method_syntax.token)
                assert _scan_call_count(body) == len(method.method_invocations)
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("project", ["drawing-shapes", "nanoxml-like", "argouml-like"])
def test_strict_and_lenient_agree_on_clean_sources(project):
    strict_model, strict_diagnostics, _ = parse_project(FIXTURES / project, strict=True)
    lenient_model, lenient_diagnostics, _ = parse_project(FIXTURES / project, strict=False)
    assert not strict_diagnostics and not lenient_diagnostics
    assert strict_model == lenient_model
    assert repr(strict_model) == repr(lenient_model)


def test_discovery_is_sorted_and_extension_filtered(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "b.java").write_text("class B {}", encoding="utf-8")
    (tmp_path / "sub" / "a.java").write_text("class A {}", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not source", encoding="utf-8")
    files = discover_source_files(tmp_path)
    assert [f.name for f in files] == ["b.java", "a.java"]
    assert discover_source_files(tmp_path, extension=".txt") == [tmp_path / "notes.txt"]


def test_parse_project_warns_when_no_files_found(tmp_path):
    model, diagnostics, source_length = parse_project(tmp_path)
    assert model.packages == ()
    assert source_length == 0
    assert any("no .java files" in d.message for d in diagnostics)


def _count_position_work(monkeypatch) -> Counter:
    """Counts of offset rescans, line tables built and offsets resolved."""
    counts: Counter = Counter()

    def counted(name, function):
        def wrapper(*args):
            counts[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(lexer, "_token_starts", counted("_token_starts", lexer._token_starts))
    monkeypatch.setattr(lexer, "_line_starts", counted("_line_starts", lexer._line_starts))
    monkeypatch.setattr(lexer.Positions, "locate", counted("locate", lexer.Positions.locate))
    return counts


def test_positions_are_resolved_only_for_diagnostics(monkeypatch, tmp_path):
    counts = _count_position_work(monkeypatch)
    for project in ("drawing-shapes", "nanoxml-like", "argouml-like"):
        _, diagnostics, _ = parse_project(FIXTURES / project, strict=True)
        assert diagnostics == []
    assert counts == {}

    (tmp_path / "W.java").write_text("package p;\nclass W { void m() { run(); } }\ninterface I {}\n", encoding="utf-8")
    _, diagnostics, _ = parse_project(tmp_path, strict=False)
    assert [str(d) for d in diagnostics] == [
        f"{(tmp_path / 'W.java').as_posix()}:3:1: warning: unsupported construct: interface declaration (skipped)"
    ]
    assert counts == {"_token_starts": 1, "_line_starts": 1, "locate": 1}


def test_a_non_ascii_file_resolves_its_warning_position_on_the_fast_path(monkeypatch, tmp_path):
    counts = _count_position_work(monkeypatch)
    source = "package p;\r\nclass Größe { int naïve; void m() { naïve = \"ü\" + 1; } }\r\n\tinterface Ä {}\r\n"
    (tmp_path / "Größe.java").write_text(source, encoding="utf-8")
    _, diagnostics, _ = parse_project(tmp_path, strict=False)
    assert [str(d) for d in diagnostics] == [
        f"{(tmp_path / 'Größe.java').as_posix()}:3:2: warning: unsupported construct: interface declaration (skipped)"
    ]
    assert counts == {"_token_starts": 1, "_line_starts": 1, "locate": 1}
