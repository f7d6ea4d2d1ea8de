"""Batch front end: stages, exit codes, reports, and failure handling."""

import errno
import gc
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from codesum import cli
from codesum.emitter import plan_emission, summarize_project
from codesum.lexer import tokenize
from codesum.parser import parse_compilation_unit
from codesum.summarizer import RenderingConfig

from conftest import FIXTURES

DRAWING = str(FIXTURES / "drawing-shapes")


def _run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_full_run_writes_model_and_summary(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, stderr = _run(["--in", DRAWING, "--out", str(out)], capsys)
    assert code == 0
    assert stdout == ""
    assert (out / "model.xml").is_file()
    assert (out / "summary.txt").is_file()
    assert "packages: 2, classes: 4, methods: 13, warnings: 0" in stderr
    assert "summary/source length ratio: " in stderr
    assert (out / "summary.txt").read_text(encoding="utf-8").startswith("== class coreElements.MyLine ==")


def test_extract_then_summarize_matches_full(tmp_path, capsys):
    full = tmp_path / "full"
    assert cli.main(["--in", DRAWING, "--out", str(full), "--stage", "full"]) == 0
    extracted = tmp_path / "extracted"
    assert cli.main(["--in", DRAWING, "--out", str(extracted), "--stage", "extract"]) == 0
    assert not (extracted / "summary.txt").exists()
    summarized = tmp_path / "summarized"
    assert (
        cli.main(["--xml", str(extracted / "model.xml"), "--out", str(summarized), "--stage", "summarize"])
        == 0
    )
    capsys.readouterr()
    assert (full / "model.xml").read_bytes() == (extracted / "model.xml").read_bytes()
    assert (full / "summary.txt").read_bytes() == (summarized / "summary.txt").read_bytes()


def test_per_identifier_layout(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = _run(["--in", DRAWING, "--out", str(out), "--layout", "per-identifier"], capsys)
    assert code == 0
    assert (out / "classes" / "coreElements.MyOval.txt").is_file()
    assert (out / "methods" / "mainPackage.drawingShapes.main.txt").is_file()
    assert not (out / "summary.txt").exists()


def test_project_name_override_lands_in_the_model_document(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = _run(["--in", DRAWING, "--out", str(out), "--project", "renamed"], capsys)
    assert code == 0
    assert 'ProjectName="renamed"' in (out / "model.xml").read_text(encoding="utf-8")


def test_summaries_do_not_depend_on_the_model_project_name(tmp_path, capsys):
    runs = []
    for name, extra in (("plain", []), ("renamed", ["--project", "Other"])):
        extracted, out = tmp_path / name / "extracted", tmp_path / name / "out"
        assert cli.main(["--in", DRAWING, "--out", str(extracted), "--stage", "extract", *extra]) == 0
        capsys.readouterr()
        argv = ["--xml", str(extracted / "model.xml"), "--out", str(out), "--stage", "summarize"]
        code, stdout, stderr = _run(argv, capsys)
        runs.append((code, stdout, stderr, _tree_bytes(out)))
    assert 'ProjectName="Other"' in (tmp_path / "renamed" / "extracted" / "model.xml").read_text(encoding="utf-8")
    assert runs[0][0] == 0
    assert runs[0][3]
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["--out", "o"],  # no input at all
        ["--in", "a", "--xml", "b", "--out", "o"],  # both inputs
        ["--in", "a", "--out", "o", "--stage", "summarize"],
        ["--xml", "b", "--out", "o", "--stage", "extract"],
        ["--xml", "b", "--out", "o", "--stage", "full"],
        ["--in", "a", "--out", "o", "--mode", "sloppy"],
        ["--xml", "b", "--out", "o", "--stage", "summarize", "--project", "P"],
    ],
)
def test_usage_errors_exit_with_two(argv, tmp_path, capsys):
    code, _, stderr = _run(argv, capsys)
    assert code == 2
    assert stderr


def test_missing_input_directory_is_an_error(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, stderr = _run(["--in", str(tmp_path / "absent"), "--out", str(out)], capsys)
    assert code == 1
    assert "input directory not found" in stderr
    assert not out.exists()


def _write_mixed_project(root):
    good = root / "Good.java"
    good.write_text("package p;\npublic class Good { public void ok() {} }\n", encoding="utf-8")
    bad = root / "Bad.java"
    bad.write_text("package p;\npublic class Bad { void broken() { &&; } }\n", encoding="utf-8")


def test_strict_mode_fails_and_writes_nothing(tmp_path, capsys):
    source = tmp_path / "src"
    source.mkdir()
    _write_mixed_project(source)
    out = tmp_path / "out"
    code, _, stderr = _run(["--in", str(source), "--out", str(out)], capsys)
    assert code == 1
    assert "error" in stderr
    assert not out.exists()


def test_lenient_mode_warns_and_keeps_going(tmp_path, capsys):
    source = tmp_path / "src"
    source.mkdir()
    _write_mixed_project(source)
    out = tmp_path / "out"
    code, _, stderr = _run(["--in", str(source), "--out", str(out), "--mode", "lenient"], capsys)
    assert code == 0
    assert "warning" in stderr
    assert "warnings: 1" in stderr
    assert (out / "model.xml").is_file()
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert "== class p.Good ==" in summary
    assert "Bad" not in summary


@pytest.mark.parametrize(
    "mode, severity, counts",
    [
        ("strict", "error", "classes: 1, methods: 0, warnings: 0"),
        ("lenient", "warning", "classes: 2, methods: 0, warnings: 1"),
    ],
)
def test_unlexable_and_unreadable_files_in_a_project(mode, severity, counts, tmp_path, capsys):
    source = tmp_path / "src"
    source.mkdir()
    (source / "A.java").write_text("class A { int x; }", encoding="utf-8")
    (source / "B.java").write_text("class B { int y; # }", encoding="utf-8")
    (source / "C.java").write_bytes(b"class C \xff\xfe {}")
    out = tmp_path / "out"
    code, stdout, stderr = _run(["--in", str(source), "--out", str(out), "--stage", "extract", "--mode", mode], capsys)
    assert stderr.splitlines() == [
        f"{(source / 'B.java').as_posix()}:1:18: {severity}: illegal character '#'",
        f"{(source / 'C.java').as_posix()}: error: cannot read source file: "
        "'utf-8' codec can't decode byte 0xff in position 8: invalid start byte",
        f"packages: 1, {counts}",
        "summary/source length ratio: n/a",
    ]
    assert (code, stdout) == (1, "")
    assert not out.exists()


def test_duplicate_class_across_files_is_an_error(tmp_path, capsys):
    source = tmp_path / "src"
    source.mkdir()
    (source / "A.java").write_text("package p; class Twin {}", encoding="utf-8")
    (source / "B.java").write_text("package p; class Twin {}", encoding="utf-8")
    out = tmp_path / "out"
    code, _, stderr = _run(["--in", str(source), "--out", str(out)], capsys)
    assert code == 1
    assert "duplicate class" in stderr
    assert not out.exists()


def test_emit_collision_writes_nothing_not_even_the_model(tmp_path, capsys):
    source = tmp_path / "src"
    source.mkdir()
    (source / "C.java").write_text(
        "package p;\npublic class C {\n  void f(int a) {}\n  void f(int b) {}\n}\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code, _, stderr = _run(
        ["--in", str(source), "--out", str(out), "--layout", "per-identifier"], capsys
    )
    assert code == 1
    assert re.search(r"^<model>: error: .*collision", stderr, re.MULTILINE), stderr
    assert "summary/source length ratio: n/a" in stderr
    assert not out.exists()


def test_abbreviated_flags_are_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, stderr = _run(["--in", DRAWING, "--out", str(out), "--stag", "full"], capsys)
    assert code == 2
    assert "unrecognized arguments" in stderr
    assert not out.exists()


def test_render_config_type_override(tmp_path, capsys):
    config = tmp_path / "render.cfg"
    config.write_text("# display tweaks\ntype.Graphics=graphics\n", encoding="utf-8")
    out = tmp_path / "out"
    code, _, _ = _run(["--in", DRAWING, "--out", str(out), "--render-config", str(config)], capsys)
    assert code == 0
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert "g and its data type is graphics" in summary
    # The defaults stay active alongside the override.
    assert "args and its data type is string" in summary


def test_render_config_can_disable_constant_folding(tmp_path, capsys):
    config = tmp_path / "render.cfg"
    config.write_text("lowercase_constants=false\n", encoding="utf-8")
    out = tmp_path / "out"
    code, _, _ = _run(["--in", DRAWING, "--out", str(out), "--render-config", str(config)], capsys)
    assert code == 0
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert "EXIT_ON_CLOSE" in summary
    assert "exit_on_close" not in summary


@pytest.mark.parametrize("line", ["nonsense", "type.=x", "lowercase_constants=maybe", "unknown_key=1"])
def test_render_config_problems_are_reported(line, tmp_path, capsys):
    config = tmp_path / "render.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    code, _, stderr = _run(["--in", DRAWING, "--out", str(tmp_path / "out"), "--render-config", str(config)], capsys)
    assert code == 1
    assert "error:" in stderr
    assert f"{config.as_posix()}:1:" in stderr


def test_summarize_only_reports_no_length_ratio(tmp_path, capsys):
    extracted = tmp_path / "extracted"
    assert cli.main(["--in", DRAWING, "--out", str(extracted), "--stage", "extract"]) == 0
    capsys.readouterr()
    out = tmp_path / "summaries"
    code, _, stderr = _run(
        ["--xml", str(extracted / "model.xml"), "--out", str(out), "--stage", "summarize"], capsys
    )
    assert code == 0
    assert "summary/source length ratio: n/a" in stderr


def test_full_run_reports_a_numeric_length_ratio(tmp_path, capsys):
    code, _, stderr = _run(["--in", DRAWING, "--out", str(tmp_path / "out")], capsys)
    assert code == 0
    ratio_line = next(line for line in stderr.splitlines() if line.startswith("summary/source length ratio: "))
    float(ratio_line.rsplit(" ", 1)[-1])  # parses as a number


def test_unreadable_model_document_is_an_error(tmp_path, capsys):
    code, _, stderr = _run(
        ["--xml", str(tmp_path / "missing.xml"), "--out", str(tmp_path / "out"), "--stage", "summarize"],
        capsys,
    )
    assert code == 1
    assert "cannot read model document" in stderr


def test_custom_extension_filter(tmp_path, capsys):
    source = tmp_path / "src"
    source.mkdir()
    (source / "C.jav").write_text("package p; class C { void m() {} }", encoding="utf-8")
    out = tmp_path / "out"
    code, _, stderr = _run(["--in", str(source), "--out", str(out), "--extension", ".jav"], capsys)
    assert code == 0
    assert "classes: 1" in stderr
    assert "== class p.C ==" in (out / "summary.txt").read_text(encoding="utf-8")


def test_summarize_rejects_an_invalid_model_and_writes_nothing(tmp_path, capsys):
    model = tmp_path / "model.xml"
    model.write_text(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<Project ProjectName="demo">\n'
        "  <Packages>\n"
        '    <Package PackageName="p">\n'
        "      <Classes>\n"
        '        <Class Name="" AccessLevel="public" Superclass="" DeclaredPackage="q">\n'
        "          <Attributes/>\n"
        "          <Methods/>\n"
        "        </Class>\n"
        "      </Classes>\n"
        "    </Package>\n"
        "  </Packages>\n"
        "</Project>\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code, stdout, stderr = _run(["--xml", str(model), "--out", str(out), "--stage", "summarize"], capsys)
    assert code == 1
    assert stdout == ""
    assert not out.exists()
    assert "<model>: error: p: class with empty name" in stderr
    assert "<model>: error: p.: declared package 'q' does not match enclosing package" in stderr


def test_unwritable_summary_directory_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "methods").write_text("in the way", encoding="utf-8")
    code, _, stderr = _run(["--in", DRAWING, "--out", str(out), "--layout", "per-identifier"], capsys)
    assert code == 1
    assert "error" in stderr
    assert not (out / "model.xml").exists()
    # Not even the directories made before the failing one are left behind.
    assert list(out.iterdir()) == [out / "methods"]


# Each case puts something in the way of one planned output: a file where
# the methods directory goes, or a directory where a class summary goes.
WRITE_BLOCKERS = {
    "methods-is-a-file": ("methods", errno.EEXIST),
    "summary-is-a-directory": ("classes/p.C.txt", errno.EISDIR),
}


@pytest.mark.parametrize("blocker", sorted(WRITE_BLOCKERS))
def test_failed_write_is_reported_against_its_path(blocker, tmp_path, capsys):
    source = tmp_path / "src"
    source.mkdir()
    (source / "C.java").write_text("package p;\npublic class C { void m() {} }\n", encoding="utf-8")
    out = tmp_path / "out"
    relative, code_of_error = WRITE_BLOCKERS[blocker]
    in_the_way = out / relative
    if blocker == "methods-is-a-file":
        out.mkdir()
        in_the_way.write_text("in the way", encoding="utf-8")
    else:
        in_the_way.mkdir(parents=True)
    code, _, stderr = _run(["--in", str(source), "--out", str(out), "--layout", "per-identifier"], capsys)
    assert code == 1
    assert stderr.splitlines() == [
        f"{in_the_way.as_posix()}: error: {os.strerror(code_of_error)}",
        "packages: 1, classes: 1, methods: 1, warnings: 0",
        "summary/source length ratio: n/a",
    ]


def _previous_output(out, layout, capsys):
    """A tree an earlier run left and someone then changed; returns the run's targets.

    Every second target is deleted, the first one included, the others get
    a stale tail, a file no
    run writes is added, and in the per-identifier layout the methods
    directory is gone, so a run must create, overwrite and make directories.
    """
    assert cli.main(["--in", DRAWING, "--out", str(out), "--layout", layout]) == 0
    capsys.readouterr()
    targets = sorted(path for path in out.rglob("*") if path.is_file())
    for index, path in enumerate(targets):
        if index % 2 == 0:
            path.unlink()
        else:
            path.write_bytes(path.read_bytes() + b"stale tail\n")
    if layout == "per-identifier":
        shutil.rmtree(out / "methods")
    (out / "notes.txt").write_text("not an output\n", encoding="utf-8")
    return [path.relative_to(out) for path in targets]


def _tree(root):
    """Every entry under root: a file's bytes and mtime, or None for a directory."""
    return {
        path.relative_to(root).as_posix(): (path.read_bytes(), path.stat().st_mtime_ns) if path.is_file() else None
        for path in root.rglob("*")
    }


@pytest.mark.parametrize("fault", ["directory-in-the-way", "open-refused", "dangling-symlink"])
@pytest.mark.parametrize("layout", ["combined", "per-identifier"])
def test_a_failing_target_leaves_the_output_tree_as_it_was(layout, fault, tmp_path, monkeypatch, capsys):
    reference = tmp_path / "reference"
    targets = _previous_output(reference, layout, capsys)
    real_open = os.open
    for index, target in enumerate(targets):
        out = tmp_path / f"case-{index}"
        shutil.copytree(reference, out)
        blocked = out / target
        with monkeypatch.context() as patch:
            if fault == "directory-in-the-way":
                code_of_error = errno.EISDIR
                if blocked.exists():
                    blocked.unlink()
                blocked.mkdir(parents=True)
            elif fault == "dangling-symlink":
                # Neither opened for writing nor created: the link names a
                # file that does not exist, and an exclusive create refuses it.
                code_of_error = errno.ENOENT
                if blocked.exists():
                    blocked.unlink()
                blocked.parent.mkdir(parents=True, exist_ok=True)
                try:
                    blocked.symlink_to(tmp_path / "missing" / "target.txt")
                except (OSError, NotImplementedError):
                    pytest.skip("symbolic links are unavailable")
            else:
                # Root ignores mode bits, so the refusal is injected at the
                # preflight open of this one target.
                code_of_error = errno.EACCES

                def refusing_open(path, flags, *args, blocked=os.fspath(blocked), **kwargs):
                    if os.fspath(path) == blocked:
                        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), blocked)
                    return real_open(path, flags, *args, **kwargs)

                patch.setattr(os, "open", refusing_open)
            before = _tree(out)
            code, _, stderr = _run(["--in", DRAWING, "--out", str(out), "--layout", layout], capsys)
        assert code == 1, target
        assert stderr.splitlines()[0] == f"{blocked.as_posix()}: error: {os.strerror(code_of_error)}"
        assert _tree(out) == before, target


@pytest.mark.parametrize("layout", ["combined", "per-identifier"])
def test_a_full_disk_while_writing_is_reported_against_its_path(layout, drawing_shapes_model, tmp_path, monkeypatch, capsys):
    # The documented gap: a write can fail after the preflight passed. The
    # files the run created are removed again; a file that existed before
    # could keep part of its old bytes.
    summaries = summarize_project(drawing_shapes_model, RenderingConfig())
    real_write = os.write
    for index in range(1 + len(plan_emission(summaries, layout, tmp_path))):
        out = tmp_path / f"case-{index}"
        plan_order = [out / "model.xml", *(Path(path) for path, _ in plan_emission(summaries, layout, out))]
        writes = []

        def full_disk(descriptor, data):
            writes.append(descriptor)
            if len(writes) > index:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(descriptor, data)

        with monkeypatch.context() as patch:
            patch.setattr(os, "write", full_disk)
            code, _, stderr = _run(["--in", DRAWING, "--out", str(out), "--layout", layout], capsys)
        assert code == 1
        assert stderr.splitlines()[0] == f"{plan_order[index].as_posix()}: error: {os.strerror(errno.ENOSPC)}"
        assert not out.exists()


def _probe_source(statement):
    return (
        f"package probe;\n\npublic class Probe {{\n    int x;\n    int[] a;\n    String s;\n\n"
        f"    void m() {{\n        {statement}\n    }}\n}}\n"
    )


def _probe_project(root, statement):
    source = root / "src"
    source.mkdir()
    (source / "Probe.java").write_text(_probe_source(statement), encoding="utf-8")
    return source


# Each shape nests one construct 3,000 levels deep, far past the parser's
# nesting limit and past where recursion would exhaust the interpreter stack.
DEEP_SHAPES = {
    "parentheses": lambda n: "int v = " + "(" * n + "x" + ")" * n + ";",
    "calls": lambda n: "int v = " + "f(" * n + "x" + ")" * n + ";",
    "constructor-arguments": lambda n: "Object v = " + "new A(" * n + "x" + ")" * n + ";",
    "index": lambda n: "int v = " + "a[" * n + "0" + "]" * n + ";",
    "conditional-true-branches": lambda n: "int v = " + "x ? " * n + "x" + " : x" * n + ";",
    "blocks": lambda n: "{" * n + "}" * n,
    "ifs": lambda n: "if (x) " * n + "x = 1;",
    "array-initializers": lambda n: "int[] v = " + "{" * n + "}" * n + ";",
}


@pytest.mark.parametrize("mode", ["strict", "lenient"])
@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_deep_nesting_is_a_diagnostic_not_a_crash(shape, mode, tmp_path, capsys):
    source = _probe_project(tmp_path, DEEP_SHAPES[shape](3000))
    out = tmp_path / "out"
    code, _, stderr = _run(["--in", str(source), "--out", str(out), "--mode", mode], capsys)
    severity = "error" if mode == "strict" else "warning"
    assert re.search(rf"Probe\.java:\d+:\d+: {severity}: nesting too deep", stderr), stderr
    if mode == "strict":
        assert code == 1
        assert not out.exists()
    else:
        assert code == 0


def _frame_depth():
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_deepest_accepted_nesting_needs_at_most_400_frames(shape):
    # With the statement and its expression, 98 levels inside the statement
    # reach the nesting limit for each expression shape.
    tokens, _ = tokenize(_probe_source(DEEP_SHAPES[shape](98)), "Probe.java")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 400)
    try:
        unit, diagnostics = parse_compilation_unit(tokens, "Probe.java")
    finally:
        sys.setrecursionlimit(limit)
    assert diagnostics == []
    assert [method.name for method in unit.classes[0].methods] == ["m"]


# Chains are read in loops, not nested, so their length is not limited.
CHAIN_SHAPES = {
    "prefix-operators": "boolean v = " + "!" * 3000 + "x;",
    "casts": "int v = " + "(int) " * 3000 + "x;",
    "conditionals": "int v = " + "x ? x : " * 3000 + "x;",
    "assignments": "x = " * 3000 + "x;",
    "else-ifs": "if (x) f(); " + "else if (x) f(); " * 3000 + "else f();",
}


@pytest.mark.parametrize("mode", ["strict", "lenient"])
@pytest.mark.parametrize("shape", sorted(CHAIN_SHAPES))
def test_long_chains_are_not_nesting(shape, mode, tmp_path, capsys):
    source = _probe_project(tmp_path, CHAIN_SHAPES[shape])
    out = tmp_path / "out"
    code, _, stderr = _run(["--in", str(source), "--out", str(out), "--mode", mode], capsys)
    assert code == 0
    assert "warnings: 0" in stderr
    assert "methods: 1" in stderr
    if shape == "else-ifs":
        assert (out / "model.xml").read_text(encoding="utf-8").count('<MethodInvocation Name="f"') == 3002


# The shapes that crashed the whole run before expressions were parsed by
# precedence climbing and walked with an explicit stack.
LONG_SHAPES = {
    "nested-parentheses-80": "int v = " + "(" * 80 + "x" + ")" * 80 + ";",
    "operator-chain-1200": "int v = " + "+".join(["x"] * 1200) + ";",
    "call-chain-1500": "s" + ".a()" * 1500 + ";",
}


@pytest.mark.parametrize("mode", ["strict", "lenient"])
@pytest.mark.parametrize("shape", sorted(LONG_SHAPES))
def test_long_chains_and_nesting_within_the_limit_are_extracted(shape, mode, tmp_path, capsys):
    source = _probe_project(tmp_path, LONG_SHAPES[shape])
    out = tmp_path / "out"
    code, _, stderr = _run(["--in", str(source), "--out", str(out), "--mode", mode, "--stage", "extract"], capsys)
    assert code == 0
    assert "warnings: 0" in stderr
    assert "methods: 1" in stderr
    assert (out / "model.xml").is_file()


# A run pauses the cyclic garbage collector, which is safe only while every
# structure the pipeline builds is freed by reference counting alone.


@pytest.mark.parametrize("outcome", ["exit-0", "exit-1", "raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_run_restores_the_collector_state(enabled, outcome, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    if outcome == "exit-1":
        out.write_text("a file where the output directory goes", encoding="utf-8")
    seen = []
    real_write_plan = cli.write_plan

    def write_plan(planned):
        seen.append(gc.isenabled())
        if outcome == "raises":
            raise RuntimeError("write failed")
        return real_write_plan(planned)

    monkeypatch.setattr(cli, "write_plan", write_plan)
    config = cli.RunConfig(out_dir=out, input_dir=FIXTURES / "drawing-shapes")
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome == "raises":
            with pytest.raises(RuntimeError):
                cli.run(config)
        else:
            assert cli.run(config) == (0 if outcome == "exit-0" else 1)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False]


def _lenient_extract_of_broken_source(tmp_path):
    source = tmp_path / "src"
    source.mkdir()
    (source / "Broken.java").write_text(
        "package p;\nclass A { void f() { int x = 1; # } }\nclass B { void g( { } }\nclass C { void h() {} }\n",
        encoding="utf-8",
    )
    return cli.RunConfig(out_dir=tmp_path / "out", input_dir=source, strict=False, stage=cli.STAGE_EXTRACT), 0


def _summarize_exported_model(tmp_path):
    extracted = tmp_path / "extracted"
    assert cli.run(cli.RunConfig(out_dir=extracted, input_dir=FIXTURES / "drawing-shapes", stage=cli.STAGE_EXTRACT)) == 0
    config = cli.RunConfig(
        out_dir=tmp_path / "out", xml_path=extracted / "model.xml", stage=cli.STAGE_SUMMARIZE, layout="per-identifier"
    )
    return config, 0


def _failing_write(tmp_path):
    (tmp_path / "out").write_text("a file where the output directory goes", encoding="utf-8")
    return cli.RunConfig(out_dir=tmp_path / "out", input_dir=FIXTURES / "drawing-shapes"), 1


CYCLE_FREE_RUNS = {
    "full-strict": lambda tmp_path: (cli.RunConfig(out_dir=tmp_path / "out", input_dir=FIXTURES / "drawing-shapes"), 0),
    "lenient-extract-with-errors": _lenient_extract_of_broken_source,
    "summarize-exported-model": _summarize_exported_model,
    "failed-write": _failing_write,
}


@pytest.mark.parametrize("case", sorted(CYCLE_FREE_RUNS))
def test_a_run_makes_no_reference_cycles(case, tmp_path, capsys):
    config, expected_exit = CYCLE_FREE_RUNS[case](tmp_path)
    capsys.readouterr()
    # run, not main: argparse's parser is itself cyclic.
    gc.collect()
    gc.disable()
    try:
        assert cli.run(config) == expected_exit
        assert gc.collect() == 0
    finally:
        gc.enable()
    if case == "lenient-extract-with-errors":
        stderr = capsys.readouterr().err
        assert "illegal character '#'" in stderr
        assert "skipping to next top-level declaration" in stderr


# Output must not depend on the interpreter's string hash seed, which orders
# sets and decides dict collisions.
HASH_SEED_RUNS = {
    **{
        f"{project}-{layout}": ["--in", str(FIXTURES / project), "--layout", layout]
        for project in ("drawing-shapes", "nanoxml-like", "argouml-like")
        for layout in ("combined", "per-identifier")
    },
    "lenient-extract-with-warnings": ["--in", "src", "--mode", "lenient", "--stage", "extract"],
}


def _tree_bytes(root):
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("case", sorted(HASH_SEED_RUNS))
def test_output_does_not_depend_on_the_hash_seed(case, tmp_path):
    source_path = Path(cli.__file__).resolve().parents[1]
    results = []
    for seed in ("0", "1"):
        workdir = tmp_path / f"seed-{seed}"
        (workdir / "src").mkdir(parents=True)
        (workdir / "src" / "W.java").write_text(
            "package p;\nimport q.R;\nclass W extends V { int f; void m(R r) { r.g(f).h(); } }\n"
            "interface I {}\nclass X { void n( { } }\nclass Y { W w; void k() { w.m(null); this.w.f = 1; } }\n",
            encoding="utf-8",
        )
        environment = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(source_path)}
        completed = subprocess.run(
            [sys.executable, "-m", "codesum.cli", *HASH_SEED_RUNS[case], "--out", "out"],
            cwd=workdir, env=environment, capture_output=True,
        )
        results.append((completed.returncode, completed.stdout, completed.stderr, _tree_bytes(workdir / "out")))
    assert results[0] == results[1]
    code, stdout, stderr, outputs = results[0]
    assert code == 0 and stdout == b"" and outputs
    if case == "lenient-extract-with-warnings":
        assert b"warnings: 2" in stderr


def _start_up_imports(prefix):
    """What a fresh interpreter prints for the modules named ``prefix...``
    that ``import codesum.cli`` left in ``sys.modules``."""
    source_path = Path(cli.__file__).resolve().parents[1]
    script = f"import sys, codesum.cli; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(source_path)}, capture_output=True, text=True,
    )
    return completed.returncode, completed.stdout, completed.stderr


def test_start_up_does_not_import_element_tree():
    assert _start_up_imports("xml.etree") == (0, "[]\n", "")


def test_start_up_does_not_import_dataclasses():
    assert _start_up_imports("dataclasses") == (0, "[]\n", "")
