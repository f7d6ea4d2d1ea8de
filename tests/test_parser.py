"""Parse-tree shape, recovery behavior, and subset boundaries."""

import hashlib
from dataclasses import fields, is_dataclass

import pytest

from codesum import syntax as syn
from codesum.diagnostics import Severity, has_errors
from codesum.lexer import Positions, Tokens, tokenize
from codesum.model import AccessLevel
from codesum.parser import _MAX_NESTING, parse_compilation_unit

from conftest import FIXTURES


def _lexed(source: str, strict: bool = True) -> Tokens:
    tokens, lex_diagnostics = tokenize(source, "Test.java", strict)
    assert not has_errors(lex_diagnostics)
    return tokens


def _parse(source: str, strict: bool = True):
    return parse_compilation_unit(_lexed(source, strict), "Test.java", strict)


def _clean(source: str) -> syn.CompilationUnit:
    return _clean_with_texts(source)[0]


def _clean_with_texts(source: str) -> tuple[syn.CompilationUnit, list[str]]:
    tokens = _lexed(source)
    unit, diagnostics = parse_compilation_unit(tokens, "Test.java")
    assert unit is not None
    assert diagnostics == [], [str(d) for d in diagnostics]
    return unit, tokens.texts


def test_package_and_imports():
    unit = _clean("package a.b;\nimport java.util.List;\nimport java.util.*;\nclass C {}")
    assert unit.package == "a.b"
    assert unit.imports == ["java.util.List", "java.util.*"]
    assert [cls.name for cls in unit.classes] == ["C"]
    assert unit.classes[0].access_level is AccessLevel.PACKAGE_PRIVATE


def test_missing_package_is_allowed():
    unit = _clean("class C {}")
    assert unit.package is None


def test_class_header_with_extends_and_implements():
    unit = _clean("public class A extends java.awt.Frame implements Runnable, Closeable {}")
    cls = unit.classes[0]
    assert cls.access_level is AccessLevel.PUBLIC
    assert cls.superclass == "java.awt.Frame"


def test_constructor_is_detected_by_name_and_call_shape():
    unit = _clean("class A { public A(int x) {} A A() { return null; } }")
    constructor, plain = unit.classes[0].methods
    assert constructor.is_constructor
    assert constructor.return_type == "A"
    assert [p.name for p in constructor.parameters] == ["x"]
    assert not plain.is_constructor
    assert plain.name == "A"
    assert plain.return_type == "A"


def test_field_declarations_with_multiple_declarators_and_dims():
    unit = _clean("class A { private int x, y = 2, z[]; }")
    fields = unit.classes[0].fields
    assert [(f.name, f.type_text) for f in fields] == [("x", "int"), ("y", "int"), ("z", "int[]")]
    assert all(f.access_level is AccessLevel.PRIVATE for f in fields)
    assert fields[1].initializer is not None


def test_parameter_dims_before_and_after_name():
    unit = _clean("class A { void m(final int[] a, String b[]) {} }")
    params = unit.classes[0].methods[0].parameters
    assert [(p.name, p.type_text) for p in params] == [("a", "int[]"), ("b", "String[]")]


def test_generic_type_text_is_canonicalized():
    unit = _clean("class A { Map<String,Integer> m; List<List<int[]>> n; }")
    fields = unit.classes[0].fields
    assert fields[0].type_text == "Map<String, Integer>"
    assert fields[1].type_text == "List<List<int[]>>"


def test_throws_clause_and_bodiless_method():
    unit = _clean("abstract class A { abstract void m() throws java.io.IOException, Error; }")
    method = unit.classes[0].methods[0]
    assert method.body is None


def test_statement_shapes():
    unit = _clean(
        """
        class A {
            void m(int n) {
                ;
                int i = 0, j[] = null;
                if (n > 0) { i++; } else i--;
                while (i < n) { i += 1; }
                do { i -= 1; } while (i > 0);
                for (int k = 0; k < n; k++) { j = null; }
                for (String s : parts()) { use(s); }
                break;
            }
        }
        """
    )
    body = unit.classes[0].methods[0].body
    kinds = [type(stmt).__name__ for stmt in body.statements]
    assert kinds == [
        "EmptyStmt",
        "LocalDeclStmt",
        "IfStmt",
        "WhileStmt",
        "DoWhileStmt",
        "ForStmt",
        "ForEachStmt",
        "BreakStmt",
    ]
    declaration = body.statements[1]
    assert [(d.name, d.extra_dims) for d in declaration.declarators] == [("i", ""), ("j", "[]")]


def test_expression_shapes():
    unit = _clean(
        """
        class A {
            void m(Object o) {
                int x = a ? b : (int) c;
                boolean t = o instanceof String;
                int[] arr = new int[5];
                int[] lit = {1, 2};
                Object k = String.class;
                arr[0] = -x;
            }
        }
        """
    )
    statements = unit.classes[0].methods[0].body.statements
    first = statements[0].declarators[0].initializer
    assert isinstance(first, syn.ConditionalExpr)
    assert isinstance(first.if_false, syn.CastExpr)
    assert isinstance(statements[1].declarators[0].initializer, syn.InstanceofExpr)
    assert isinstance(statements[2].declarators[0].initializer, syn.ArrayCreationExpr)
    assert isinstance(statements[3].declarators[0].initializer, syn.ArrayInitExpr)
    assert isinstance(statements[4].declarators[0].initializer, syn.ClassLiteralExpr)
    assert isinstance(statements[5].expression, syn.AssignExpr)


def test_call_shapes():
    unit = _clean(
        """
        class A extends B {
            A() { super(1); }
            void m() { run(); this.run(); helper.run(); new A().run(); super.run(); }
        }
        """
    )
    constructor, method = unit.classes[0].methods
    delegation = constructor.body.statements[0].expression
    assert isinstance(delegation, syn.ConstructorDelegationExpr)
    calls = [stmt.expression for stmt in method.body.statements]
    assert all(isinstance(call, syn.CallExpr) for call in calls)
    assert calls[0].receiver is None
    assert isinstance(calls[1].receiver, syn.ThisExpr)
    assert isinstance(calls[2].receiver, syn.NameExpr)
    assert isinstance(calls[3].receiver, syn.NewExpr)
    assert isinstance(calls[4].receiver, syn.SuperExpr)


@pytest.mark.parametrize(
    "source, phrase",
    [
        ("@Deprecated public class A {}", "annotation"),
        ("class A { @Override void m() {} }", "annotation"),
        ("interface I { void run(); } class A {}", "interface"),
        ("enum E { ONE, TWO } class A {}", "enum"),
        ("class A { class Inner {} void m() {} }", "nested class"),
        ("class A { static { } void m() {} }", "initializer block"),
        ("class A<T> { void m() {} }", "generic type parameters"),
        ("class A { void m() { Runnable r = new Runnable() { }; } }", "anonymous class"),
    ],
)
def test_unsupported_constructs_warn_and_are_skipped(source, phrase):
    unit, diagnostics = _parse(source)
    assert unit is not None
    assert not has_errors(diagnostics)
    assert any(phrase in d.message and "unsupported construct" in d.message for d in diagnostics)
    cls = next(c for c in unit.classes if c.name == "A")
    # The surviving class still carries its supported members.
    if "void m()" in source:
        assert [m.name for m in cls.methods] == ["m"]


def test_strict_mode_stops_at_first_problem():
    unit, diagnostics = _parse("class A { void m() { &&; } } class B {}", strict=True)
    assert unit is None
    assert [d.severity for d in diagnostics] == [Severity.ERROR]
    assert diagnostics[0].file == "Test.java"
    assert diagnostics[0].line > 0


def test_lenient_mode_recovers_at_next_top_level_declaration():
    unit, diagnostics = _parse("class A { void m() { &&; } } class B {}", strict=False)
    assert unit is not None
    assert [cls.name for cls in unit.classes] == ["B"]
    assert any(
        d.severity is Severity.WARNING and "skipping to next top-level declaration" in d.message
        for d in diagnostics
    )


def test_lenient_mode_terminates_on_pathological_input():
    unit, diagnostics = _parse("]]]] class ; ) (", strict=False)
    assert unit is not None
    assert diagnostics, "expected at least one warning"


def test_parsing_is_deterministic():
    source = "package p; class A { int x; void m(int a) { x = a; } }"
    first, first_diagnostics = _parse(source)
    second, second_diagnostics = _parse(source)
    assert first == second
    assert first_diagnostics == second_diagnostics


def _shape(node, texts: list[str]) -> str:
    """An expression tree as an S-expression, so exact shapes can be compared.
    A leaf or member name is the text of the node's token index in ``texts``."""

    def shape(node) -> str:
        if isinstance(node, (syn.NameExpr, syn.LiteralExpr)):
            return texts[node.token]
        if isinstance(node, syn.BinaryExpr):
            return f"({node.operator} {shape(node.left)} {shape(node.right)})"
        if isinstance(node, syn.InstanceofExpr):
            return f"(instanceof {shape(node.operand)} {node.type_text})"
        if isinstance(node, syn.AssignExpr):
            return f"({node.operator} {shape(node.target)} {shape(node.value)})"
        if isinstance(node, syn.ConditionalExpr):
            return f"(? {shape(node.condition)} {shape(node.if_true)} {shape(node.if_false)})"
        if isinstance(node, syn.CastExpr):
            return f"(cast {node.type_text} {shape(node.operand)})"
        if isinstance(node, syn.ParenExpr):
            return f"(paren {shape(node.inner)})"
        if isinstance(node, syn.UnaryExpr):
            return f"({node.operator} {shape(node.operand)})" if node.prefix else f"(post{node.operator} {shape(node.operand)})"
        if isinstance(node, syn.IndexExpr):
            return f"(index {shape(node.array)} {shape(node.index)})"
        if isinstance(node, syn.FieldSelectExpr):
            return f"(. {shape(node.receiver)} {texts[node.token]})"
        if isinstance(node, syn.CallExpr):
            parts = [shape(node.receiver) if node.receiver is not None else "-", texts[node.token]]
            return f"(call {' '.join(parts + [shape(argument) for argument in node.arguments])})"
        raise AssertionError(f"unexpected node {node!r}")

    return shape(node)


@pytest.mark.parametrize(
    "expression, shape",
    [
        ("a - b - c", "(- (- a b) c)"),
        (
            "a || b && c | d ^ e & f == g < h << i + j * k % l",
            "(|| a (&& b (| c (^ d (& e (== f (< g (<< h (+ i (% (* j k) l))))))))))",
        ),
        ("x instanceof T == y", "(== (instanceof x T) y)"),
        ("a = b += c", "(= a (+= b c))"),
        ("a ? b : c ? d : e", "(? a b (? c d e))"),
        ("a ? b = c : d = e", "(= (? a (= b c) d) e)"),
        ("(int) -x", "(cast int (- x))"),
        ("(T) y", "(cast T y)"),
        ("(a) + b", "(+ (paren a) b)"),
        ("a[i].f(x)++", "(post++ (call (index a i) f x))"),
        ("a = b = c", "(= a (= b c))"),
        ("a = b ? c : d = e", "(= a (= (? b c d) e))"),
        ("a ? b ? c : d : e", "(? a (? b c d) e)"),
        ("- -x", "(- (- x))"),
        ("(int) (long) !x", "(cast int (cast long (! x)))"),
        ("a < b instanceof T", "(instanceof (< a b) T)"),
        ("x instanceof T instanceof U == z", "(== (instanceof (instanceof x T) U) z)"),
    ],
)
def test_exact_expression_trees(expression, shape):
    unit, texts = _clean_with_texts(f"class A {{ void m() {{ {expression}; }} }}")
    assert _shape(unit.classes[0].methods[0].body.statements[0].expression, texts) == shape


def test_else_if_arms_nest_from_the_last():
    unit, texts = _clean_with_texts("class A { void m() { if (a) x(); else if (b) y(); else z(); } }")
    outer = unit.classes[0].methods[0].body.statements[0]
    assert _shape(outer.condition, texts) == "a"
    assert _shape(outer.then_branch.expression, texts) == "(call - x)"
    inner = outer.else_branch
    assert isinstance(inner, syn.IfStmt)
    assert _shape(inner.condition, texts) == "b"
    assert _shape(inner.then_branch.expression, texts) == "(call - y)"
    assert _shape(inner.else_branch.expression, texts) == "(call - z)"


@pytest.mark.parametrize(
    "expression, message",
    [
        ("x instanceof T + y", "1:37: error: expected ';' after expression, found '+'"),
        ("a == x instanceof T * y", "1:42: error: expected ';' after expression, found '*'"),
        ("f(x instanceof T + y)", "1:39: error: expected ')' to close arguments, found '+'"),
        ("v = x instanceof T << 2", "1:41: error: expected ';' after expression, found '<<'"),
    ],
)
def test_type_operand_takes_no_tighter_operator(expression, message):
    unit, diagnostics = _parse(f"class A {{ void m() {{ {expression}; }} }}")
    assert unit is None
    assert [str(d) for d in diagnostics] == [f"Test.java:{message}"]


def _nested_parentheses(name: str, depth: int) -> str:
    return f"class {name} {{ void m() {{ int v = {'(' * depth}x{')' * depth}; }} }}\n"


def test_nesting_limit_is_exact_and_restored_after_recovery():
    # The statement and its initializer take two levels, each parenthesis one more.
    deepest = _MAX_NESTING - 2
    assert _parse(_nested_parentheses("A", deepest))[1] == []
    unit, diagnostics = _parse(_nested_parentheses("A", deepest + 1))
    assert unit is None
    assert [d.message for d in diagnostics] == ["nesting too deep"]
    source = _nested_parentheses("A", 150) + _nested_parentheses("B", 150) + _nested_parentheses("C", deepest)
    unit, diagnostics = _parse(source, strict=False)
    assert [cls.name for cls in unit.classes] == ["C"]
    assert [d.message for d in diagnostics] == ["nesting too deep (skipping to next top-level declaration)"] * 2


@pytest.mark.parametrize(
    "source, message",
    [
        # The cast lookahead reads two tokens past the end.
        ("class A { void m() { x = (Foo", "1:27: {}: expected ')' after parenthesized expression, found end of file"),
        # The cast lookahead reads one token past the end.
        ("class A { void m() { x = (Foo)", "1:30: {}: expected ';' after expression, found end of file"),
        ("class A { void m() { a instanceof", "1:24: {}: expected type after 'instanceof', found end of file"),
        ("class A { void m() { foo.", "1:25: {}: expected identifier after '.', found end of file"),
        ("class A { List<String", "1:16: {}: expected '>' closing generic arguments, found end of file"),
    ],
)
def test_lookahead_past_the_end_of_file(source, message):
    unit, diagnostics = _parse(source, strict=True)
    assert unit is None
    assert [str(d) for d in diagnostics] == ["Test.java:" + message.format("error")]
    unit, diagnostics = _parse(source, strict=False)
    assert unit.classes == []
    suffix = " (skipping to next top-level declaration)"
    assert [str(d) for d in diagnostics] == ["Test.java:" + message.format("warning") + suffix]


@pytest.mark.parametrize("strict", [True, False])
def test_empty_token_list_gives_an_empty_unit(strict):
    tokens = _lexed("")
    unit, diagnostics = parse_compilation_unit(tokens, "Test.java", strict)
    assert unit == syn.CompilationUnit("Test.java", tokens.positions)
    assert diagnostics == []


def _dump(node, tokens: Tokens) -> str:
    """A parse tree with each kept token as ``text@line:col``, read through the
    accessors; a node's name text is its token's text and is not repeated."""
    if is_dataclass(node):
        parts = []
        for item in fields(node):
            if item.name == "token":
                line, column = tokens.position(node.token)
                parts.append(f"{tokens.texts[node.token]}@{line}:{column}")
            elif item.name != "name" and item.repr:
                parts.append(_dump(getattr(node, item.name), tokens))
        return f"{type(node).__name__}({', '.join(parts)})"
    if isinstance(node, list):
        return f"[{', '.join(_dump(item, tokens) for item in node)}]"
    return repr(node)


# sha256 over every parse below, recorded with the same dump of Token-based
# trees before positions became token indexes.
_TRUNCATION_DIGEST = "66d193a33c2f9b109f710aeab04e8f15042519a76c6dacc12b880b86188a020d"


def test_truncated_fixture_input_parses_as_recorded():
    """Every token prefix and every single-token deletion of every fixture
    file, in both modes: the trees and diagnostics hash to a recorded digest.
    A variant keeps each remaining token's text and source offset."""
    digest = hashlib.sha256()
    for path in sorted(FIXTURES.rglob("*.java")):
        name = path.relative_to(FIXTURES).as_posix()
        source = path.read_text(encoding="utf-8")
        tokens, lex_diagnostics = tokenize(source, name, True)
        assert lex_diagnostics == []
        kept = range(len(tokens))
        prefixes = [kept[:end] for end in range(len(tokens) + 1)]
        deletions = [[*kept[:index], *kept[index + 1:]] for index in range(len(tokens))]
        offsets = [tokens.positions.offset(index) for index in kept]
        for indexes in prefixes + deletions:
            variant = Tokens(
                [tokens.texts[index] for index in indexes], Positions(source, [offsets[index] for index in indexes])
            )
            for strict in (True, False):
                unit, diagnostics = parse_compilation_unit(variant, name, strict)
                digest.update(_dump(unit, variant).encode())
                for diagnostic in diagnostics:
                    digest.update(f"\n{diagnostic}".encode())
                digest.update(b"\0")
    assert digest.hexdigest() == _TRUNCATION_DIGEST
