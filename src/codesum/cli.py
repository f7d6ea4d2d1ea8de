"""Batch command-line front end.

Stages: ``extract`` analyzes sources and writes ``model.xml``; ``summarize``
reads a previously written model document and writes summaries; ``full`` does
both. Standard output stays silent; diagnostics and the final report go to
standard error. Exit codes: 0 success, 1 any error diagnostic, 2 usage error.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import NamedTuple

from .diagnostics import Diagnostic, Severity, error, has_errors
from .emitter import COMBINED, PER_IDENTIFIER, SummaryDocument, plan_emission, summarize_project, write_plan
from .extractor import parse_project
from .model import CodeModel
from .summarizer import RenderingConfig
from .xml_io import export_xml, import_xml

STAGE_EXTRACT = "extract"
STAGE_SUMMARIZE = "summarize"
STAGE_FULL = "full"


class RunConfig(NamedTuple):
    out_dir: Path
    input_dir: Path | None = None
    xml_path: Path | None = None
    project_name: str | None = None
    layout: str = COMBINED
    strict: bool = True
    stage: str = STAGE_FULL
    rendering: RenderingConfig = RenderingConfig()
    extension: str = ".java"


def load_render_config(path: Path) -> RenderingConfig:
    """Read key=value rendering overrides.

    ``type.<Name>=<display>`` adds or replaces one type-display entry;
    ``lowercase_constants=true|false`` toggles constant-style folding.
    Raises ValueError naming the offending line.
    """
    config = RenderingConfig()
    type_map = dict(config.type_display_map)
    lowercase = config.lowercase_constant_identifiers
    for number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path.as_posix()}:{number}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key.startswith("type."):
            type_name = key[len("type.") :]
            if not type_name:
                raise ValueError(f"{path.as_posix()}:{number}: empty type name")
            type_map[type_name] = value
        elif key == "lowercase_constants":
            if value.lower() not in ("true", "false"):
                raise ValueError(f"{path.as_posix()}:{number}: expected true or false, got {value!r}")
            lowercase = value.lower() == "true"
        else:
            raise ValueError(f"{path.as_posix()}:{number}: unknown key {key!r}")
    return RenderingConfig(type_map, lowercase)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codesum",
        description="Generate plain-English class and method summaries from source code.",
        allow_abbrev=False,
    )
    parser.add_argument("--in", dest="input_dir", metavar="DIR", help="source directory to analyze")
    parser.add_argument("--xml", dest="xml_path", metavar="FILE", help="previously exported model document")
    parser.add_argument("--out", dest="out_dir", metavar="DIR", required=True, help="output directory")
    parser.add_argument("--project", dest="project_name", metavar="NAME", help="project name (default: input directory name)")
    parser.add_argument("--layout", choices=[COMBINED, PER_IDENTIFIER], default=COMBINED)
    parser.add_argument("--mode", choices=["strict", "lenient"], default="strict")
    parser.add_argument("--stage", choices=[STAGE_EXTRACT, STAGE_SUMMARIZE, STAGE_FULL], default=STAGE_FULL)
    parser.add_argument("--render-config", dest="render_config", metavar="FILE", help="key=value rendering overrides")
    parser.add_argument("--extension", default=".java", help="source file extension filter (default: .java)")
    return parser


def _report(model: CodeModel | None, diagnostics: list[Diagnostic], ratio: float | None) -> None:
    for diagnostic in diagnostics:
        print(diagnostic, file=sys.stderr)
    warning_count = sum(1 for d in diagnostics if d.severity is Severity.WARNING)
    packages = model.packages if model is not None else ()
    classes = [cls for pkg in packages for cls in pkg.classes]
    methods = sum(len(cls.methods) for cls in classes)
    print(
        f"packages: {len(packages)}, classes: {len(classes)}, methods: {methods}, warnings: {warning_count}",
        file=sys.stderr,
    )
    rendered = f"{ratio:.2f}" if ratio is not None else "n/a"
    print(f"summary/source length ratio: {rendered}", file=sys.stderr)


def run(config: RunConfig) -> int:
    """Execute one batch run; outputs are written only when no error occurs.

    The cyclic garbage collector is paused meanwhile: a run builds only trees,
    which reference counting frees, so its passes would free nothing.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(config)
    finally:
        if was_enabled:
            gc.enable()


def _run(config: RunConfig) -> int:
    diagnostics: list[Diagnostic] = []
    model: CodeModel | None = None
    source_length = 0

    if config.stage in (STAGE_EXTRACT, STAGE_FULL):
        assert config.input_dir is not None
        if not config.input_dir.is_dir():
            diagnostics.append(error(f"input directory not found: {config.input_dir.as_posix()}"))
        else:
            model, parse_diagnostics, source_length = parse_project(
                config.input_dir,
                extension=config.extension,
                strict=config.strict,
                project_name=config.project_name,
            )
            diagnostics.extend(parse_diagnostics)
    else:
        assert config.xml_path is not None
        try:
            text = config.xml_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            diagnostics.append(error(f"cannot read model document: {exc}"))
        else:
            model, import_diagnostics = import_xml(text)
            del text  # the document is not held through summarize, plan and write
            diagnostics.extend(import_diagnostics)

    summaries: tuple[SummaryDocument, ...] | None = None
    if model is not None and not has_errors(diagnostics):
        try:
            planned: list[tuple[str, str]] = []
            if config.stage in (STAGE_EXTRACT, STAGE_FULL):
                planned.append((os.path.join(config.out_dir, "model.xml"), export_xml(model)))
            if config.stage in (STAGE_SUMMARIZE, STAGE_FULL):
                summaries = summarize_project(model, config.rendering)
                planned.extend(plan_emission(summaries, config.layout, config.out_dir))
            write_plan(planned)
        except OSError as exc:
            where = Path(exc.filename).as_posix() if exc.filename else ""
            diagnostics.append(error(exc.strerror or str(exc), where))
        except ValueError as exc:
            diagnostics.append(error(str(exc)))

    ratio = None
    if summaries is not None and source_length > 0 and not has_errors(diagnostics):
        ratio = sum(len(document.body) for document in summaries) / source_length

    _report(model, diagnostics, ratio)
    return 1 if has_errors(diagnostics) else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
        if (args.input_dir is None) == (args.xml_path is None):
            parser.error("exactly one of --in and --xml is required")
        if args.stage == STAGE_SUMMARIZE and args.xml_path is None:
            parser.error("--stage summarize requires --xml")
        if args.stage == STAGE_SUMMARIZE and args.project_name is not None:
            parser.error("--stage summarize takes the project name from --xml, not --project")
        if args.stage in (STAGE_EXTRACT, STAGE_FULL) and args.input_dir is None:
            parser.error(f"--stage {args.stage} requires --in")
    except SystemExit as exit_request:
        return int(exit_request.code or 0)

    rendering = RenderingConfig()
    if args.render_config is not None:
        try:
            rendering = load_render_config(Path(args.render_config))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    config = RunConfig(
        out_dir=Path(args.out_dir),
        input_dir=Path(args.input_dir) if args.input_dir is not None else None,
        xml_path=Path(args.xml_path) if args.xml_path is not None else None,
        project_name=args.project_name,
        layout=args.layout,
        strict=args.mode == "strict",
        stage=args.stage,
        rendering=rendering,
        extension=args.extension,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
