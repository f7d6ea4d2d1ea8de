"""Seeded input generator for the codesum benchmark, with its own oracle.

Two projects come from one seed:

* ``full-fixture``: the seven bundled fixture files copied 300 times,
  each copy under its own seeded package prefix.
* ``lenient-dense``: generated classes dense with expressions (nesting,
  operator and call chains, generic local types, CRLF line endings,
  non-ASCII identifiers), a seeded share of files with constructs codesum
  reports and skips, and a seeded share with malformed declarations that
  lenient mode resumes past.

Each generator returns an ``Oracle``: the package, class, method and warning
counts that codesum's report line must show, derived from what was written
and never from codesum's output.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from random import Random

# The fixtures copied by full-fixture, with the shape each one must have:
# (sha256 of the file, package, classes, methods). The digest pins the
# shape table to the file content it describes.
FIXTURES = {
    "drawing-shapes/coreElements/MyLine.java": (
        "599ae2b0c3c845a436553f80f849d8b9ae7fac9f2dc382e28209a01ab9df6d93", "coreElements", 1, 2),
    "drawing-shapes/coreElements/MyOval.java": (
        "24b9a36177d28fd8ffe09b7eaa53fbfd96fa794c4fd07735e67ad7b461d32041", "coreElements", 1, 2),
    "drawing-shapes/coreElements/MyShape.java": (
        "35e2aa2dd131585e8a029cec8e06b65d1c81a4a29b53bba2248ef3767d3f8eb8", "coreElements", 1, 7),
    "drawing-shapes/mainPackage/drawingShapes.java": (
        "e9de76b6e60fb41cfdb2fa00f82c21921167b1d6deb96f19306f21f42bde190f", "mainPackage", 1, 2),
    "nanoxml-like/StdXMLBuilder.java": (
        "9856119cb6da47308c197bca89282d73bc7624d077e3bd541994199e13ab37e3", "net.n3.nanoxml", 1, 1),
    "nanoxml-like/StdXMLReader.java": (
        "b986161101ba3a959f6c745c31a78daa3d6d6bd1db2553f268e6d61e6a484dae", "net.n3.nanoxml", 1, 1),
    "argouml-like/ArgoStatusEvent.java": (
        "0c2b0de6aceecf3c0aac954f6f983e58d8cb49f9f36232c6551a59a580260590",
        "org.argouml.application.events", 1, 3),
}

FIXTURE_COPIES = 300

# Deepest parenthesis nesting written into lenient-dense. The seed commit
# recurses about 16 frames per level and fails past about 60 levels; the
# crash probe keeps that defect visible while the timed runs stay below it.
MAX_PAREN_DEPTH = 50
# Longest operator chain and fluent call chain in lenient-dense; the seed
# commit's extractor walk fails at about 950 of either.
MAX_CHAIN = 400

_LOWER = "abcdefghijklmnopqrstuvwxyz"
_NON_ASCII_STEMS = ("größe", "naïve", "ñandú", "λάμδα", "名前", "значение", "café", "öffnen")


@dataclass
class Oracle:
    """What codesum's first report line must read for a generated project."""

    packages: set[str]
    classes: int = 0
    methods: int = 0
    warnings: int = 0
    files: int = 0
    bytes: int = 0

    def report_line(self) -> str:
        return (
            f"packages: {len(self.packages)}, classes: {self.classes}, "
            f"methods: {self.methods}, warnings: {self.warnings}"
        )


def _word(rng: Random, low: int = 3, high: int = 8) -> str:
    return "".join(rng.choice(_LOWER) for _ in range(rng.randint(low, high)))


def _write(path: Path, text: str, oracle: Oracle, crlf: bool = False) -> None:
    data = (text.replace("\n", "\r\n") if crlf else text).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    oracle.files += 1
    oracle.bytes += len(data)


# ----------------------------------------------------------------------
# full-fixture


def fixture_prefixes(seed: int) -> list[str]:
    """The package prefix of each fixture copy; unique, seeded, sorted by copy."""
    rng = Random(f"full-fixture/{seed}")
    return [f"{_word(rng)}{index:03d}" for index in range(FIXTURE_COPIES)]


def generate_full_fixture(fixtures_dir: Path, out: Path, seed: int) -> Oracle:
    """Copy every fixture ``FIXTURE_COPIES`` times, renaming packages per copy."""
    oracle = Oracle(packages=set())
    sources = {}
    for relative, (digest, package, classes, methods) in FIXTURES.items():
        text = (fixtures_dir / relative).read_text(encoding="utf-8")
        if hashlib.sha256(text.encode("utf-8")).hexdigest() != digest:
            raise ValueError(f"fixture {relative} changed; update the shape table in gen.py")
        sources[relative] = (text, package, classes, methods)
    for prefix in fixture_prefixes(seed):
        for relative, (text, package, classes, methods) in sources.items():
            renamed, count = re.subn(
                rf"^package {re.escape(package)};", f"package {prefix}.{package};", text, flags=re.M
            )
            if count != 1:
                raise ValueError(f"fixture {relative} has no single package line")
            _write(out / prefix / relative, renamed, oracle)
            oracle.packages.add(f"{prefix}.{package}")
            oracle.classes += classes
            oracle.methods += methods
    return oracle


# ----------------------------------------------------------------------
# lenient-dense


# Statement kinds of every generated method body, in seeded order. The
# project's size depends on the file count, not on the seed.
_STATEMENTS = (
    "generic", "paren", "paren", "operators", "operators", "fluent", "fluent",
    "fields", "fields", "if", "for", "while", "cast", "strings",
)
_METHODS = 4
_FIELDS = 4
_DENSE_FILES = 40
_DENSE_PACKAGES = 8


class _Body:
    """Statements of one generated method body."""

    def __init__(self, rng: Random, fields: list[str]):
        self.rng = rng
        self.fields = fields
        self.lines: list[str] = []
        self.locals: list[str] = []

    def _local(self, stem: str) -> str:
        name = f"{stem}{len(self.locals)}"
        self.locals.append(name)
        return name

    def operand(self) -> str:
        return self.rng.choice(self.locals + self.fields)

    def add(self, kind: str, indent: str, longest: bool) -> None:
        """One statement; ``longest`` writes the deepest nesting or longest chain."""
        rng = self.rng
        add = self.lines.append
        if kind == "generic":
            value_type = rng.choice(("List<Integer>", "Map<String, List<Integer>>", "Set<Long>"))
            name = self._local(rng.choice(("index", "größe", "名前", "cache")))
            add(f"{indent}Map<String, {value_type}> {name} = new HashMap<String, {value_type}>();")
            add(f"{indent}{name}.put(\"k{rng.randint(0, 99)}\", null);")
        elif kind == "paren":
            depth = MAX_PAREN_DEPTH if longest else rng.randint(2, MAX_PAREN_DEPTH)
            name = self._local("nested")
            expression = "(" * depth + self.operand() + "".join(
                f" {rng.choice('+-*/')} {rng.randint(1, 9)})" for _ in range(depth)
            )
            add(f"{indent}int {name} = {expression};")
        elif kind == "operators":
            terms = MAX_CHAIN if longest else rng.randint(8, MAX_CHAIN // 8)
            parts = [self.operand()]
            for _ in range(terms - 1):
                parts.append(rng.choice(("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>")))
                parts.append(rng.choice((self.operand(), str(rng.randint(1, 999)))))
            add(f"{indent}long {self._local('total')} = {' '.join(parts)};")
        elif kind == "fluent":
            calls = MAX_CHAIN if longest else rng.randint(4, MAX_CHAIN // 16)
            name = self._local("builder")
            chain = "".join(
                f".{rng.choice(('append', 'add', 'put', 'with'))}({self.operand()})" for _ in range(calls)
            )
            add(f"{indent}StringBuilder {name} = new StringBuilder();")
            add(f"{indent}{name}{chain};")
        elif kind == "fields":
            target = rng.choice(self.fields)
            add(f"{indent}this.{target} = {self.operand()} + helper.size() * other.{target};")
        elif kind == "if":
            # One level of block nesting, so blocks add few frames to the
            # deepest parenthesis.
            add(f"{indent}if ({self.operand()} > {rng.randint(0, 50)} && !done) {{")
            self.add("fields", indent + "    ", False)
            add(f"{indent}}} else {{")
            add(f"{indent}    counter.reset({self.operand()});")
            add(f"{indent}}}")
        elif kind == "for":
            add(f"{indent}for (int i = 0; i < {rng.randint(2, 64)}; i++) {{")
            add(f"{indent}    values[i] = values[i] + {self.operand()};")
            add(f"{indent}}}")
        elif kind == "while":
            add(f"{indent}while (queue.size() > {rng.randint(0, 9)}) {{")
            add(f"{indent}    queue.poll();")
            add(f"{indent}}}")
        elif kind == "cast":
            add(f"{indent}double {self._local('ratio')} = (double) {self.operand()} / {rng.randint(1, 9)}.5;")
        else:
            add(f"{indent}String {self._local('label')} = \"näme\" + '{rng.choice(_LOWER)}' + {self.operand()};")


def _dense_class(rng: Random, name: str, inner: bool, annotated: bool, illegal: bool) -> list[str]:
    """A class that parses cleanly apart from the skipped parts asked for.

    ``inner`` adds a nested class and ``annotated`` an annotated method, each
    skipped with one warning; ``illegal`` adds a character outside the
    grammar, one lexer warning. Every method holds one deepest parenthesis,
    and the first method the longest operator and call chains.
    """
    fields = [f"{rng.choice(_NON_ASCII_STEMS)}{index}" for index in range(_FIELDS)]
    lines = [f"public class {name} extends BaseNode {{", ""]
    lines += [f"    private int {field_name};" for field_name in fields]
    lines += ["    private java.util.Map<String, java.util.List<Integer>> registry;", ""]
    if inner:
        lines += ["    static class Inner {", "        int hidden;", "        void step() { hidden++; }", "    }", ""]
    for index in range(_METHODS):
        if annotated and index == _METHODS - 1:
            lines.append("    @Override")
        body = _Body(rng, fields)
        seen: set[str] = set()
        for kind in rng.sample(_STATEMENTS, len(_STATEMENTS)):
            longest = kind not in seen and (kind == "paren" or index == 0)
            seen.add(kind)
            body.add(kind, "        ", longest)
        if illegal and index == 1:
            body.lines[-1] += " #"
        lines.append(f"    public long compute{index}(int seed, String label) {{")
        lines += body.lines
        lines.append(f"        return {body.operand()};")
        lines += ["    }", ""]
    lines.append("}")
    return lines


def _skipped_declaration(rng: Random, name: str) -> list[str]:
    """A top-level construct codesum reports once and skips."""
    kind = rng.choice(("interface", "enum", "annotated"))
    if kind == "interface":
        return [f"interface I{name} {{", "    void run(int times);", "    int size();", "}"]
    if kind == "enum":
        return [f"enum E{name} {{", "    RED, GREEN, BLUE;", "}"]
    # The annotation warns once; the empty class under it is kept.
    return ["@Deprecated", f"class Annotated{name} {{", "}"]


def _malformed_declaration(rng: Random, name: str) -> list[str]:
    """A declaration lenient mode reports once and resumes past.

    Whatever follows the failure point carries no modifier or declaration
    keyword, so recovery resumes exactly at the next top-level declaration.
    """
    if rng.random() < 0.5:
        return ["class {", "    int orphan;", "}"]
    return [
        f"public class Broken{name} {{",
        "    private int kept;",
        "    public void fine() { kept = 1; }",
        "    void broken(int x {",
        "        x = x + 1;",
        "    }",
        "    int after;",
        "}",
    ]


def generate_lenient_dense(out: Path, seed: int) -> Oracle:
    """Write the lenient-dense project and return its oracle.

    The seed draws names, operators, statement order and which files carry
    the skipped, malformed and CRLF variants; how many files carry each is
    fixed, so every seed gives a project of about the same size.
    """
    rng = Random(f"lenient-dense/{seed}")
    package_names = [f"dense.{_word(rng)}{index}" for index in range(_DENSE_PACKAGES)]

    def files_with(share: float) -> set[int]:
        return set(rng.sample(range(_DENSE_FILES), round(share * _DENSE_FILES)))

    inner, annotated, illegal = files_with(0.15), files_with(0.25), files_with(0.25)
    skipped, malformed, crlf = files_with(0.3), files_with(0.2), files_with(0.3)
    oracle = Oracle(packages=set(package_names))
    for index in range(_DENSE_FILES):
        package = package_names[index % _DENSE_PACKAGES]
        name = f"Node{index:03d}{rng.choice(('', 'Größe', 'Café'))}"
        chunks = [_dense_class(rng, name, index in inner, index in annotated, index in illegal)]
        oracle.classes += 1
        oracle.methods += _METHODS
        oracle.warnings += (index in inner) + (index in annotated) + (index in illegal)
        if index in skipped:
            chunks.append(_skipped_declaration(rng, name))
            oracle.warnings += 1
            # An annotated class is kept; only its annotation is skipped.
            oracle.classes += chunks[-1][0] == "@Deprecated"
        if index in malformed:
            chunks.insert(rng.randint(0, len(chunks)), _malformed_declaration(rng, name))
            oracle.warnings += 1
        lines = [
            f"package {package};",
            "",
            "import java.util.HashMap;",
            "import java.util.List;",
            "import java.util.Map;",
            "",
            "/* generated: dense expressions */",
        ]
        for chunk in chunks:
            lines += chunk + [""]
        _write(out / package.replace(".", "/") / f"{name}.java", "\n".join(lines), oracle, index in crlf)
    return oracle


# ----------------------------------------------------------------------
# crash probe


def crash_probe_sources() -> dict[str, str]:
    """One-file projects that crash the seed commit's parser or extractor."""

    def unit(statement: str) -> str:
        return f"package probe;\n\npublic class Probe {{\n    int x;\n    String s;\n\n    void m() {{\n        {statement}\n    }}\n}}\n"

    return {
        "nested-parens-80": unit("int v = " + "(" * 80 + "x" + ")" * 80 + ";"),
        "operator-chain-1200": unit("int v = " + "+".join(["x"] * 1200) + ";"),
        "call-chain-1500": unit("s" + ".a()" * 1500 + ";"),
    }
