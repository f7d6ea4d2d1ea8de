"""Shared fixtures: the bundled sample projects, parsed once per session, and
helpers for assertions."""

from __future__ import annotations

from pathlib import Path

import pytest

from codesum.diagnostics import has_errors
from codesum.extractor import parse_project, report_in_mode
from codesum.model import ClassDecl, CodeModel

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def lookup_class(model: CodeModel, package: str, class_name: str) -> ClassDecl | None:
    """Find a class by package and simple name; None when absent."""
    for pkg in model.packages:
        if pkg.name == package:
            for cls in pkg.classes:
                if cls.name == class_name:
                    return cls
    return None


def declarations(unit):
    """A parsed unit as nested plain values, so that units compare by value;
    None stays None. The token positions are left out."""
    if unit is None:
        return None
    classes = [
        (cls.name, cls.token, cls.access_level, cls.superclass, cls.fields,
         [(m.name, m.token, m.access_level, m.return_type, m.parameters, m.events) for m in cls.methods])
        for cls in unit.classes
    ]
    return unit.file, unit.package, unit.imports, classes


def in_mode(found, strict: bool, note: str = ""):
    """One stage's ``found`` diagnostics as the mode has them, and whether
    the mode keeps the file (see ``report_in_mode``)."""
    diagnostics = []
    kept = report_in_mode(found, diagnostics, strict, note)
    return diagnostics, kept


def _parsed(name: str):
    model, diagnostics, _ = parse_project(FIXTURES / name)
    assert not has_errors(diagnostics), [str(d) for d in diagnostics]
    return model


@pytest.fixture(scope="session")
def drawing_shapes_model():
    return _parsed("drawing-shapes")


@pytest.fixture(scope="session")
def nanoxml_model():
    return _parsed("nanoxml-like")


@pytest.fixture(scope="session")
def argouml_model():
    return _parsed("argouml-like")


@pytest.fixture(scope="session")
def corpus_models(drawing_shapes_model, nanoxml_model, argouml_model):
    return {
        "drawing-shapes": drawing_shapes_model,
        "nanoxml-like": nanoxml_model,
        "argouml-like": argouml_model,
    }
