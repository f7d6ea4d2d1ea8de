"""Frozen fixture paragraphs, as pinned by tests/test_acceptance.py.

full-fixture renames each fixture package to ``<prefix>.<package>``; the
class paragraphs name their package, so the snapshots are completed with the
renamed package here. Method paragraphs do not mention it.
"""

from __future__ import annotations

from pathlib import Path

# (kind, package, class, method, frozen text). The frozen text is the whole
# paragraph, or only its final sentence where it starts with "...".
# ``{package}`` stands for the renamed package.
_SNAPSHOTS = (
    (
        "class", "coreElements", "MyOval", None,
        "The name of this class is MyOval. "
        "The access level for this class is public. "
        "The package to which this class belongs is {package}. "
        "This class inherits from the MyShape class. "
        "This class contains the following attribute: example. "
        "This class contains the following methods: MyOval and draw.",
    ),
    (
        "method", "mainPackage", "drawingShapes", "main",
        "The name of this method is main. "
        "The access level for this method is public. "
        "The return data type for this method is void. "
        "The class to which this method belongs is drawingShapes. "
        "This method contains 1 parameter. "
        "This method consists of the following parameter: args and its data type is string. "
        "This method contains the following local variable: application and its data type is drawingShapes. "
        "This method accesses the following attributes: application and exit_on_close. "
        "This method invokes the following method: setDefaultCloseOperation.",
    ),
    (
        "method", "coreElements", "MyLine", "draw",
        "The name of this method is draw. "
        "The access level for this method is public. "
        "The return data type for this method is void. "
        "The class to which this method belongs is MyLine. "
        "This method contains 1 parameter. "
        "This method consists of the following parameter: g and its data type is Graphics. "
        "This method contains the following local variable: painterPaintJPanel and its data type is JPanel. "
        "This method accesses the following attribute: g. "
        "This method invokes the following methods: setColor, getColor, drawLine, getX1, getY1, getX2 and getY2.",
    ),
    (
        "method", "net.n3.nanoxml", "StdXMLBuilder", "getResult",
        "The name of this method is getResult. "
        "The access level for this method is public. "
        "The return data type for this method is object. "
        "The class to which this method belongs is StdXMLBuilder. "
        "This method accesses the following attribute: root.",
    ),
    (
        "class", "org.argouml.application.events", "ArgoStatusEvent", None,
        "The name of this class is ArgoStatusEvent. "
        "The access level for this class is public. "
        "The package to which this class belongs is {package}. "
        "This class inherits from the ArgoEvent class. "
        "This class contains the following attribute: text. "
        "This class contains the following methods: ArgoStatusEvent, getEventStartRange and getText.",
    ),
    (
        "method", "net.n3.nanoxml", "StdXMLReader", "read",
        "... This method invokes the following methods: read, empty, close, pop and read.",
    ),
)

# Method signatures as the combined layout's headers print them.
_SIGNATURES = {"main": "(String)", "draw": "(Graphics)", "getResult": "()", "read": "()"}


def _combined_paragraphs(summary: Path) -> dict[str, str]:
    """``kind subject`` header -> paragraph, from a combined summary.txt."""
    paragraphs = {}
    for block in summary.read_text(encoding="utf-8").split("\n\n"):
        header, _, body = block.partition("\n")
        paragraphs[header.strip("= ")] = body.rstrip("\n")
    return paragraphs


def check_snapshots(out: Path, layout: str, prefixes: list[str]) -> list[str]:
    """Mismatches between the frozen paragraphs and every fixture copy's output."""
    combined = _combined_paragraphs(out / "summary.txt") if layout == "combined" else {}
    problems = []
    for prefix in prefixes:
        for kind, package, class_name, method, expected in _SNAPSHOTS:
            package = f"{prefix}.{package}"
            expected = expected.format(package=package)
            subject = f"{package}.{class_name}"
            if layout == "combined":
                key = f"{kind} {subject}" + (f".{method}{_SIGNATURES[method]}" if method else "")
                actual = combined.get(key)
            else:
                if method is None:
                    path = out / "classes" / f"{subject}.txt"
                else:
                    path = out / "methods" / f"{subject}.{method}.txt"
                actual = path.read_text(encoding="utf-8").rstrip("\n") if path.is_file() else None
            if expected.startswith("... "):
                matches = actual is not None and actual.endswith(expected[3:])
            else:
                matches = actual == expected
            if not matches:
                problems.append(f"snapshot mismatch for {kind} {subject} {method or ''}: {actual!r}")
    return problems
