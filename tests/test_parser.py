"""Declarations, dependency events, recovery behavior, and subset boundaries."""

import hashlib
import random

import pytest

from codesum.diagnostics import Severity, has_errors
from codesum.extractor import build_model
from codesum.lexer import Positions, Tokens, tokenize
from codesum.model import AccessLevel
from codesum.parser import _MAX_NESTING, RECOVERY_NOTE, CompilationUnit, parse_compilation_unit
from codesum.xml_io import export_xml

from conftest import FIXTURES, declarations, in_mode
from test_cli import DEEP_SHAPES


def _lexed(source: str) -> Tokens:
    tokens, lex_diagnostics = tokenize(source, "Test.java")
    assert not has_errors(lex_diagnostics)
    return tokens


def _parse(source: str, strict: bool = True):
    """The unit, or None where the mode drops it, and the diagnostics."""
    unit, found = parse_compilation_unit(_lexed(source), "Test.java")
    diagnostics, kept = in_mode(found, strict, RECOVERY_NOTE)
    return unit if kept else None, diagnostics


def _clean(source: str) -> CompilationUnit:
    return _clean_with_texts(source)[0]


def _clean_with_texts(source: str) -> tuple[CompilationUnit, list[str]]:
    tokens = _lexed(source)
    unit, diagnostics = parse_compilation_unit(tokens, "Test.java")
    assert unit is not None
    assert diagnostics == [], [str(d) for d in diagnostics]
    return unit, tokens.texts


def _events(source: str) -> list[list]:
    """Each method's events, in both modes, with every token index checked
    against the name it carries and dropped."""
    unit, texts = _clean_with_texts(source)
    lenient, diagnostics = _parse(source, strict=False)
    assert (declarations(lenient), diagnostics) == (declarations(unit), [])
    methods = []
    for method in unit.classes[0].methods:
        events = []
        for kind, *rest in method.events:
            if kind != "local":
                token, *rest = rest
                assert texts[token] == rest[0]
            events.append((kind, *rest))
        methods.append(events)
    return methods


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
    assert constructor.return_type == "A"
    assert [p.name for p in constructor.parameters] == ["x"]
    assert plain.name == "A"
    assert plain.return_type == "A"


def test_field_declarations_with_multiple_declarators_and_dims():
    unit = _clean("class A { private int x, y = 2, z[]; }")
    fields = [field for _, field in unit.classes[0].fields]
    assert [(f.name, f.declared_type) for f in fields] == [("x", "int"), ("y", "int"), ("z", "int[]")]
    assert all(f.access_level is AccessLevel.PRIVATE for f in fields)
    # An initializer is still parsed and checked, though nothing reads it.
    unit, diagnostics = _parse("class A { int y = 2 +; }")
    assert unit is None
    assert [str(d) for d in diagnostics] == ["Test.java:1:22: error: expected expression, found ';'"]


def test_parameter_dims_before_and_after_name():
    unit = _clean("class A { void m(final int[] a, String b[]) {} }")
    params = unit.classes[0].methods[0].parameters
    assert [(p.name, p.declared_type) for p in params] == [("a", "int[]"), ("b", "String[]")]


def test_generic_type_text_is_canonicalized():
    unit = _clean("class A { Map<String,Integer> m; List<List<int[]>> n; List<? extends Number> w; }")
    fields = [field for _, field in unit.classes[0].fields]
    assert fields[0].declared_type == "Map<String, Integer>"
    assert fields[1].declared_type == "List<List<int[]>>"
    assert fields[2].declared_type == "List<? extends Number>"


def test_throws_clause_and_bodiless_method():
    unit = _clean("abstract class A { abstract void m() throws java.io.IOException, Error; }")
    method = unit.classes[0].methods[0]
    assert (method.name, method.return_type, method.events) == ("m", "void", [])


def test_statement_shapes():
    (events,) = _events(
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
                for (int row[] : rows()) { use(row); }
                for (int a[] = null, b = 0; ; ) { }
                final int f = 1;
                String[] names = parts();
                for (final int q = 0; ; ) { }
                for (final String t : parts()) { }
                for (i = 0, n = 1; ; i++, n--) { }
                return;
                throw failure(i);
                break;
                continue;
            }
        }
        """
    )
    assert events == [
        ("local", "i", "int"),
        ("local", "j", "int[]"),
        ("local", "k", "int"),
        ("call", "parts", None),
        ("local", "s", "String"),
        ("call", "use", None),
        ("call", "rows", None),
        ("local", "row", "int[]"),
        ("call", "use", None),
        ("local", "a", "int[]"),
        ("local", "b", "int"),
        ("local", "f", "int"),
        ("call", "parts", None),
        ("local", "names", "String[]"),
        ("local", "q", "int"),
        ("call", "parts", None),
        ("local", "t", "String"),
        ("call", "failure", None),
    ]


def test_expression_shapes():
    (events,) = _events(
        """
        class A {
            void m(Object o) {
                int x = a ? b : (int) c;
                boolean t = o instanceof String;
                int[] arr = new int[5];
                int[] lit = {1, 2};
                Object k = String.class;
                arr[0] = -x;
                int[] made = new int[] {1, 2};
                x < y >> z;
            }
        }
        """
    )
    assert events == [
        ("local", "x", "int"),
        ("local", "t", "boolean"),
        ("local", "arr", "int[]"),
        ("local", "lit", "int[]"),
        ("name", "String"),
        ("local", "k", "Object"),
        ("local", "made", "int[]"),
    ]


def test_call_shapes():
    constructor, method = _events(
        """
        class A extends B {
            A() { super(1); }
            void m() { run(); this.run(); helper.run(); new A().run(); super.run(); (x).run(); f().run(); }
        }
        """
    )
    assert constructor == []
    assert method == [
        ("call", "run", None),
        ("call", "run", "this"),
        ("name", "helper"),
        ("call", "run", "helper"),
        ("call", "run", "new A"),
        ("call", "run", "super"),
        ("call", "run", "x"),
        ("call", "f", None),
        ("call", "run", ""),
    ]


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
        ('@java.lang.Deprecated(since = "1") public class A {}', "annotation"),
        ("enum E; class A {}", "enum"),
        ("class A {} @Trailing", "annotation"),
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
    assert declarations(first) == declarations(second)
    assert first_diagnostics == second_diagnostics


def _shape_events(shape: str) -> list[tuple]:
    """The events an expression tree implies, read from its S-expression:
    every call and field selection with its receiver, and every simple name
    that receives one, in source order."""
    items = shape.replace("(", " ( ").replace(")", " ) ").split()

    def read():
        item = items.pop(0)
        if item != "(":
            return item
        node = []
        while items[0] != ")":
            node.append(read())
        items.pop(0)
        return node

    def receiver_of(node):
        while isinstance(node, list) and node[0] == "paren":
            node = node[1]
        return node if isinstance(node, str) else ""

    events = []

    def walk(node):
        if isinstance(node, str):
            return
        head, *operands = node
        if head in ("call", "."):
            receiver, name, *arguments = operands
            walk(receiver)
            if isinstance(receiver, str) and receiver not in ("-", "this"):
                events.append(("name", receiver))
            if head == "call":
                events.append(("call", name, None if receiver == "-" else receiver_of(receiver)))
            else:
                events.append(("field", name, receiver == "this"))
            operands = arguments
        for operand in operands:
            walk(operand)

    walk(read())
    return events


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
        # Shapes that decide a call's receiver.
        ("(T) y.f()", "(cast T (call y f))"),
        ("((T) y).f()", "(call (paren (cast T y)) f)"),
        ("(a).f(b.c)", "(call (paren a) f (. b c))"),
        ("a.b.c()", "(call (. a b) c)"),
        ("this.a = -b.c()", "(= (. this a) (- (call b c)))"),
        ("f(x).g()[0]++", "(post++ (index (call (call - f x) g) 0))"),
    ],
)
def test_exact_expression_trees(expression, shape):
    """The parser builds no tree: each expression parses cleanly in both
    modes, into the events its tree implies."""
    assert _events(f"class A {{ void m() {{ {expression}; }} }}") == [_shape_events(shape)]


def test_else_if_arms_nest_from_the_last():
    """The arms, once nested from the last, are read in a loop: their
    events come in source order."""
    assert _events("class A { void m() { if (a.p()) x(); else if (b) y(); else z(); } }") == [
        [("name", "a"), ("call", "p", "a"), ("call", "x", None), ("call", "y", None), ("call", "z", None)]
    ]


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


def _nested(name: str, shape: str, depth: int) -> str:
    """A class whose method body holds ``DEEP_SHAPES[shape]`` nested ``depth`` deep."""
    return f"class {name} {{ void m() {{ {DEEP_SHAPES[shape](depth)} }} }}\n"


# Each shape's deepest nesting in a method body, and where one level more
# fails. Each block, if and array initializer takes a level, and so do the
# statements and expressions around them: an if's innermost statement and its
# expression, an initializer's declaration. Each parenthesis or call takes one
# level more than the statement and its initializer.
_NESTING_LIMITS = {
    "blocks": (_MAX_NESTING, "1:122"),
    "ifs": (_MAX_NESTING - 2, "1:715"),
    "array-initializers": (_MAX_NESTING - 1, "1:132"),
    "parentheses": (_MAX_NESTING - 2, "1:129"),
    "calls": (_MAX_NESTING - 2, "1:228"),
}


def test_nesting_limit_is_exact_and_restored_after_recovery():
    for shape, (deepest, position) in _NESTING_LIMITS.items():
        assert _parse(_nested("A", shape, deepest))[1] == [], shape
        unit, diagnostics = _parse(_nested("A", shape, deepest + 1))
        assert unit is None, shape
        assert [str(d) for d in diagnostics] == [f"Test.java:{position}: error: nesting too deep"], shape
        source = _nested("A", shape, 150) + _nested("B", shape, 150) + _nested("C", shape, deepest)
        unit, diagnostics = _parse(source, strict=False)
        assert [cls.name for cls in unit.classes] == ["C"], shape
        assert [d.message for d in diagnostics] == ["nesting too deep (skipping to next top-level declaration)"] * 2


# Ten binary operators, each binding tighter than the one before: ten levels.
_RISING_CHAIN = "a || b && c | d ^ e & f == g < h << i + j * k"


def _in_method(statement: str) -> str:
    return f"class A {{ void m() {{ {statement}; }} }}"


def test_binary_operators_binding_tighter_count_one_level_each():
    # The statement and its initializer take two levels, each parenthesis one more.
    assert _parse(_in_method("int v = " + "(" * 88 + _RISING_CHAIN + ")" * 88))[1] == []
    unit, diagnostics = _parse(_in_method("int v = " + "(" * 89 + _RISING_CHAIN + ")" * 89))
    assert unit is None
    assert [str(d) for d in diagnostics] == ["Test.java:1:163: error: nesting too deep"]
    # A looser operator releases the levels of the tighter ones before it.
    products = " + ".join(["a * b"] * 50)
    assert _parse(_in_method("int v = " + "(" * 87 + products + ")" * 87))[1] == []
    # Neither an assigned value nor the false branch of ``?:`` adds a level.
    assert _parse(_in_method("x = y ? z : " + "(" * 88 + _RISING_CHAIN + ")" * 88))[1] == []


def test_operator_levels_open_at_a_failure_are_released():
    broken = _in_method("int v = " + _RISING_CHAIN.removesuffix("k"))
    unit, diagnostics = _parse(broken + " " + _nested("C", "parentheses", _MAX_NESTING - 2), strict=False)
    assert [cls.name for cls in unit.classes] == ["C"]
    assert [str(d) for d in diagnostics] == [
        "Test.java:1:74: warning: expected expression, found ';' (skipping to next top-level declaration)"
    ]


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
        ("class A { void m() { int[] a = {1, ", "1:34: {}: unexpected end of file in array initializer, found end of file"),
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


def test_unclosed_skipped_declaration_at_the_end_of_file():
    source = "class A {} interface I"
    skipped = "Test.java:1:12: warning: unsupported construct: interface declaration (skipped)"
    unit, diagnostics = _parse(source, strict=True)
    assert unit is None
    assert [str(d) for d in diagnostics] == [
        skipped, "Test.java:1:22: error: unexpected end of file in skipped declaration, found end of file"
    ]
    unit, diagnostics = _parse(source, strict=False)
    assert [cls.name for cls in unit.classes] == ["A"]
    assert [str(d) for d in diagnostics] == [
        skipped,
        "Test.java:1:22: warning: unexpected end of file in skipped declaration, found end of file"
        " (skipping to next top-level declaration)",
    ]


# Spelled out, not read from the parser: every keyword that opens no statement.
_NO_STATEMENT_KEYWORDS = """
    abstract case catch class default else enum extends finally implements import
    instanceof interface native package private protected public static strictfp
    switch synchronized throws transient try void volatile
""".split()


@pytest.mark.parametrize("keyword", _NO_STATEMENT_KEYWORDS)
def test_a_keyword_that_opens_no_statement_is_reported_at_its_token(keyword):
    unit, diagnostics = _parse(f"class A {{ void m() {{ {keyword} }} }}")
    assert unit is None
    assert [str(d) for d in diagnostics] == [
        f"Test.java:1:22: error: unsupported statement {keyword!r}, found {keyword!r}"
    ]


def test_final_without_a_declaration_in_a_body():
    # The problem is reported at the token after 'final', where a declaration
    # should start, whether 'final' opens a statement or a for initializer.
    for body, column in [("final x;", 28), ("for (final x; ;) ;", 33), ("for (final x : xs) ;", 33)]:
        unit, diagnostics = _parse(f"class A {{ void m() {{ {body} }} }}")
        assert unit is None, body
        assert [str(d) for d in diagnostics] == [
            f"Test.java:1:{column}: error: expected declaration after 'final', found 'x'"
        ], body


@pytest.mark.parametrize("strict", [True, False])
def test_empty_token_list_gives_an_empty_unit(strict):
    unit, diagnostics = _parse("", strict)
    assert declarations(unit) == declarations(CompilationUnit("Test.java", unit.positions))
    assert diagnostics == []


# sha256 of ``_model_digest`` over ``_truncation_corpus()``, recorded before
# method bodies were parsed straight into dependency events. It replaces a
# digest of the parse trees, which are gone.
_TRUNCATION_MODEL_DIGEST = "43f7c76b88732f42976a17a929e85f256875bea284a0222ecb5899b95973d0b5"


def _fixture_tokens():
    """Each fixture file's name, clean tokens and token offsets."""
    for path in sorted(FIXTURES.rglob("*.java")):
        name = path.relative_to(FIXTURES).as_posix()
        tokens, lex_diagnostics = tokenize(path.read_text(encoding="utf-8"), name)
        assert lex_diagnostics == []
        yield name, tokens, [tokens.positions.offset(index) for index in range(len(tokens))]


def _variant(tokens: Tokens, kept: list[tuple[str, int]]) -> Tokens:
    """Tokens with the given texts, each at the given source offset."""
    return Tokens([text for text, _ in kept], Positions(tokens.positions.source, [offset for _, offset in kept]))


def _truncation_corpus():
    """Every token prefix and every single-token deletion of every fixture
    file. A variant keeps each remaining token's text and source offset."""
    for name, tokens, offsets in _fixture_tokens():
        kept = list(zip(tokens.texts, offsets))
        prefixes = [kept[:end] for end in range(len(kept) + 1)]
        deletions = [kept[:index] + kept[index + 1:] for index in range(len(kept))]
        for entries in prefixes + deletions:
            yield name, _variant(tokens, entries)


# Tokens a mutation inserts: brackets, operators, keywords and a name, plus
# three casts inserted whole.
_MUTATION_TOKENS = [
    *"()[]{};,.=+-*/<>?:!", "++", "--", "&&", "+=", "instanceof", "new", "this", "super", "return",
    "if", "else", "for", "while", "do", "class", "final", "int", "x",
]
_MUTATION_CASTS = [("(", "int", ")"), ("(", "T", ")"), ("(", "String", ")")]


def _mutation_corpus(seed: int = 8, per_file: int = 300):
    """``per_file`` seeded mutants of every fixture file, each made by one to
    three edits: a token deleted, duplicated, or inserted from the pools above."""
    rng = random.Random(seed)
    for name, tokens, offsets in _fixture_tokens():
        kept = list(zip(tokens.texts, offsets))
        for _ in range(per_file):
            mutant = kept.copy()
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(mutant))
                edit = rng.choice(("delete", "duplicate", "insert", "cast"))
                if edit == "delete":
                    del mutant[at]
                elif edit == "duplicate":
                    mutant.insert(at, mutant[at])
                else:
                    texts = (rng.choice(_MUTATION_TOKENS),) if edit == "insert" else rng.choice(_MUTATION_CASTS)
                    mutant[at:at] = [(text, mutant[at][1]) for text in texts]
            yield name, _variant(tokens, mutant)


def _model_digest(corpus) -> str:
    """sha256 over each variant's exported model and every diagnostic of its
    parse and build, in both modes. Each variant is parsed once, and each
    mode is applied to its diagnostics."""
    digest = hashlib.sha256()
    for name, variant in corpus:
        unit, found = parse_compilation_unit(variant, name)
        for strict in (True, False):
            diagnostics, kept = in_mode(found, strict, RECOVERY_NOTE)
            if kept:
                model, build_diagnostics = build_model([unit], "golden")
                digest.update(export_xml(model).encode())
                diagnostics = diagnostics + build_diagnostics
            for diagnostic in diagnostics:
                digest.update(f"\n{diagnostic}".encode())
            digest.update(b"\0")
    return digest.hexdigest()


def test_truncated_fixture_input_parses_as_recorded():
    assert _model_digest(_truncation_corpus()) == _TRUNCATION_MODEL_DIGEST


# sha256 of ``_model_digest`` over ``_mutation_corpus()``, recorded when a
# body-level ``final`` without a declaration came to be reported at the token
# after it; two mutants' diagnostics name that token.
_MUTATION_MODEL_DIGEST = "a9e7930e54774f130c61eb7d6ebead0c750222dfd0bab7a80e0a1240fcf4c3a6"


def test_token_mutations_build_as_recorded():
    assert _model_digest(_mutation_corpus()) == _MUTATION_MODEL_DIGEST
