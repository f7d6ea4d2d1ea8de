"""Batch documentation generator: static analysis in, English summaries out.

The pipeline has three stages: extract a structural model from source,
serialize it to a fixed XML document, and render one plain-English paragraph
per class and per method from that model.
"""

from .diagnostics import Diagnostic, Severity
from .emitter import SummaryDocument, summarize_project
from .extractor import build_model, parse_project
from .model import (
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
from .summarizer import (
    RenderingConfig,
    class_sentences,
    method_sentences,
    render_identifier,
    render_name_list,
    render_type,
)
from .xml_io import export_xml, import_xml

__version__ = "0.1.0"

__all__ = [
    "AccessLevel",
    "AttributeAccess",
    "AttributeDecl",
    "ClassDecl",
    "CodeModel",
    "Diagnostic",
    "LocalVariableDecl",
    "MethodDecl",
    "MethodInvocation",
    "PackageDecl",
    "ParameterDecl",
    "RenderingConfig",
    "Severity",
    "SummaryDocument",
    "build_model",
    "class_sentences",
    "export_xml",
    "import_xml",
    "method_sentences",
    "parse_project",
    "render_identifier",
    "render_name_list",
    "render_type",
    "summarize_project",
    "validate_model",
]
