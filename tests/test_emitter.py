"""Documents, layouts, file naming, and the writer."""

import errno
import os
from pathlib import Path

import pytest

from codesum.emitter import COMBINED, PER_IDENTIFIER, plan_emission, summarize_project, write_plan
from codesum.model import (
    AccessLevel,
    ClassDecl,
    CodeModel,
    MethodDecl,
    PackageDecl,
    ParameterDecl,
)
from codesum.summarizer import RenderingConfig, class_sentences, method_sentences

CONFIG = RenderingConfig()


def test_each_body_joins_its_sentences_with_single_spaces(drawing_shapes_model):
    summaries = iter(summarize_project(drawing_shapes_model, CONFIG))
    for package in drawing_shapes_model.packages:
        for cls in package.classes:
            assert next(summaries).body == " ".join(class_sentences(cls, CONFIG))
            for method in cls.methods:
                assert next(summaries).body == " ".join(method_sentences(method, CONFIG))
    assert next(summaries, None) is None


def test_documents_follow_model_order_class_then_its_methods(drawing_shapes_model):
    summaries = summarize_project(drawing_shapes_model, CONFIG)
    assert len(summaries) == 17
    assert [(d.subject_kind, d.subject_path) for d in summaries] == [
        ("class", "coreElements.MyLine"),
        ("method", "coreElements.MyLine.MyLine(int, int, int, int, Color)"),
        ("method", "coreElements.MyLine.draw(Graphics)"),
        ("class", "coreElements.MyOval"),
        ("method", "coreElements.MyOval.MyOval(int, int, int, int, Color)"),
        ("method", "coreElements.MyOval.draw(Graphics)"),
        ("class", "coreElements.MyShape"),
        ("method", "coreElements.MyShape.MyShape(int, int, int, int, Color)"),
        ("method", "coreElements.MyShape.getX1()"),
        ("method", "coreElements.MyShape.getY1()"),
        ("method", "coreElements.MyShape.getX2()"),
        ("method", "coreElements.MyShape.getY2()"),
        ("method", "coreElements.MyShape.getColor()"),
        ("method", "coreElements.MyShape.setColor(Color)"),
        ("class", "mainPackage.drawingShapes"),
        ("method", "mainPackage.drawingShapes.drawingShapes()"),
        ("method", "mainPackage.drawingShapes.main(String)"),
    ]


def test_combined_layout_format(drawing_shapes_model, tmp_path):
    summaries = summarize_project(drawing_shapes_model, CONFIG)
    paths = write_plan(plan_emission(summaries, COMBINED, tmp_path))
    assert [Path(path) for path in paths] == [tmp_path / "summary.txt"]
    content = Path(paths[0]).read_text(encoding="utf-8")
    assert content.startswith("== class coreElements.MyLine ==\n")
    assert "\n\n== method coreElements.MyLine.draw(Graphics) ==\n" in content
    assert content.endswith(".\n")
    blocks = [f"== {d.subject_kind} {d.subject_path} ==\n{d.body}\n" for d in summaries]
    assert content == "\n".join(blocks)


def test_combined_layout_with_no_documents_writes_an_empty_file(tmp_path):
    summaries = summarize_project(CodeModel("empty", ()), CONFIG)
    write_plan(plan_emission(summaries, COMBINED, tmp_path))
    assert (tmp_path / "summary.txt").read_text(encoding="utf-8") == ""


def test_a_plan_for_the_working_directory_stays_relative(drawing_shapes_model, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    summaries = summarize_project(drawing_shapes_model, CONFIG)
    for out_dir in (Path(""), Path(".")):
        planned = plan_emission(summaries, PER_IDENTIFIER, out_dir) + plan_emission(summaries, COMBINED, out_dir)
        assert not [path for path, _ in planned if os.path.isabs(path)]
    write_plan(planned + [("bare.txt", "bare\n")])
    assert (tmp_path / "summary.txt").is_file()
    assert (tmp_path / "classes" / "coreElements.MyLine.txt").is_file()
    assert (tmp_path / "bare.txt").read_text(encoding="utf-8") == "bare\n"


def test_unknown_layout_is_rejected(drawing_shapes_model, tmp_path):
    summaries = summarize_project(drawing_shapes_model, CONFIG)
    with pytest.raises(ValueError) as raised:
        plan_emission(summaries, "other", tmp_path)
    assert str(raised.value) == "unknown layout 'other'"


def test_per_identifier_layout_files(drawing_shapes_model, tmp_path):
    summaries = summarize_project(drawing_shapes_model, CONFIG)
    paths = write_plan(plan_emission(summaries, PER_IDENTIFIER, tmp_path))
    relative = sorted(Path(p).relative_to(tmp_path).as_posix() for p in paths)
    assert relative == [
        "classes/coreElements.MyLine.txt",
        "classes/coreElements.MyOval.txt",
        "classes/coreElements.MyShape.txt",
        "classes/mainPackage.drawingShapes.txt",
        "methods/coreElements.MyLine.MyLine.txt",
        "methods/coreElements.MyLine.draw.txt",
        "methods/coreElements.MyOval.MyOval.txt",
        "methods/coreElements.MyOval.draw.txt",
        "methods/coreElements.MyShape.MyShape.txt",
        "methods/coreElements.MyShape.getColor.txt",
        "methods/coreElements.MyShape.getX1.txt",
        "methods/coreElements.MyShape.getX2.txt",
        "methods/coreElements.MyShape.getY1.txt",
        "methods/coreElements.MyShape.getY2.txt",
        "methods/coreElements.MyShape.setColor.txt",
        "methods/mainPackage.drawingShapes.drawingShapes.txt",
        "methods/mainPackage.drawingShapes.main.txt",
    ]
    paths = write_plan(plan_emission(summaries, PER_IDENTIFIER, tmp_path))
    by_path = {path: document for path, document in zip(paths, summaries)}
    for path, document in by_path.items():
        assert Path(path).read_text(encoding="utf-8") == document.body + "\n"


def _overload_model(parameter_types_by_index):
    methods = tuple(
        MethodDecl(
            name="foo",
            access_level=AccessLevel.PUBLIC,
            return_type="void",
            declared_class="C",
            parameters=tuple(ParameterDecl(f"p{i}", t) for i, t in enumerate(types)),
        )
        for types in parameter_types_by_index
    )
    cls = ClassDecl(name="C", access_level=AccessLevel.PUBLIC, declared_package="p", methods=methods)
    return CodeModel("demo", (PackageDecl("p", (cls,)),))


def test_overloaded_methods_get_parameter_type_suffixes(tmp_path):
    model = _overload_model([(), ("int",), ("int", "String[]")])
    summaries = summarize_project(model, CONFIG)
    paths = write_plan(plan_emission(summaries, PER_IDENTIFIER, tmp_path))
    names = sorted(Path(p).name for p in paths if "methods" in Path(p).parts)
    assert names == ["p.C.foo.txt", "p.C.foo_int.txt", "p.C.foo_int_String--.txt"]


def test_unique_methods_get_no_suffix(tmp_path):
    model = _overload_model([("int", "char")])
    paths = write_plan(plan_emission(summarize_project(model, CONFIG), PER_IDENTIFIER, tmp_path))
    method_files = [Path(p).name for p in paths if Path(p).parent.name == "methods"]
    assert method_files == ["p.C.foo.txt"]


def test_identical_signatures_collide_with_an_error(tmp_path):
    model = _overload_model([("int",), ("int",)])
    with pytest.raises(ValueError, match="collision"):
        write_plan(plan_emission(summarize_project(model, CONFIG), PER_IDENTIFIER, tmp_path))
    # Nothing may be left behind when planning fails.
    assert list(tmp_path.iterdir()) == []


def test_a_collision_names_both_subjects_and_the_shared_path(tmp_path):
    model = _overload_model([("int",), ("int",)])
    with pytest.raises(ValueError) as raised:
        plan_emission(summarize_project(model, CONFIG), PER_IDENTIFIER, tmp_path)
    assert str(raised.value) == (
        "summary file name collision: 'p.C.foo(int)' and 'p.C.foo(int)' "
        f"both map to {tmp_path.as_posix()}/methods/p.C.foo_int.txt"
    )


def test_file_names_sanitize_markup_characters(tmp_path):
    cls = ClassDecl(name="List<String>", access_level=AccessLevel.PUBLIC, declared_package="p")
    model = CodeModel("demo", (PackageDecl("p", (cls,)),))
    paths = write_plan(plan_emission(summarize_project(model, CONFIG), PER_IDENTIFIER, tmp_path))
    assert [Path(p).name for p in paths] == ["p.List-String-.txt"]


def test_emit_is_deterministic(drawing_shapes_model, tmp_path):
    summaries = summarize_project(drawing_shapes_model, CONFIG)
    first = tmp_path / "first"
    second = tmp_path / "second"
    write_plan(plan_emission(summaries, COMBINED, first))
    write_plan(plan_emission(summaries, COMBINED, second))
    assert (first / "summary.txt").read_bytes() == (second / "summary.txt").read_bytes()


def test_write_plan_removes_only_the_directories_it_made(tmp_path):
    (tmp_path / "kept").mkdir()
    (tmp_path / "blocked").write_text("in the way", encoding="utf-8")
    planned = [
        (tmp_path / "new" / "deeper" / "a.txt", "a\n"),
        (tmp_path / "kept" / "b.txt", "b\n"),
        (tmp_path / "blocked" / "c.txt", "c\n"),
    ]
    with pytest.raises(FileExistsError):
        write_plan(planned)
    assert sorted(path.name for path in tmp_path.rglob("*")) == ["blocked", "kept"]


def _files(root):
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in root.rglob("*") if path.is_file()}


def test_short_writes_give_identical_files(drawing_shapes_model, tmp_path, monkeypatch):
    summaries = summarize_project(drawing_shapes_model, CONFIG)
    # Longer than one encoding slice, with code points of every UTF-8 width.
    large = "aé€𝄞" * 20_000
    whole, short = tmp_path / "whole", tmp_path / "short"
    write_plan(plan_emission(summaries, PER_IDENTIFIER, whole) + [(whole / "large.txt", large)])
    real_write = os.write
    with monkeypatch.context() as patch:
        patch.setattr(os, "write", lambda descriptor, data: real_write(descriptor, data[:7]))
        write_plan(plan_emission(summaries, PER_IDENTIFIER, short) + [(short / "large.txt", large)])
    assert _files(short) == _files(whole)
    assert _files(whole)["large.txt"] == large.encode("utf-8")


def test_a_longer_target_is_cut_to_length(tmp_path):
    target = tmp_path / "summary.txt"
    target.write_text("old content that is much longer than the new one\n" * 20, encoding="utf-8")
    write_plan([(target, "new\n")])
    assert target.read_bytes() == b"new\n"


@pytest.mark.parametrize(
    "old, new",
    [
        (b"old\n", "new content, longer than the old\n"),
        (b"abcdef\n", "ghijkl\n"),
        # 9 bytes: more than the new content's 6 characters, fewer than its 11 bytes.
        (b"x" * 9, "\u00e9" * 5 + "\n"),
    ],
    ids=["shorter", "equal-length", "between-characters-and-bytes"],
)
def test_a_target_no_longer_than_its_new_content_is_not_cut(tmp_path, monkeypatch, old, new):
    target = tmp_path / "summary.txt"
    target.write_bytes(old)
    cuts = []
    real_ftruncate = os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda descriptor, size: cuts.append(size) or real_ftruncate(descriptor, size))
    write_plan([(target, new)])
    assert target.read_bytes() == new.encode("utf-8")
    assert cuts == []


def test_rerunning_over_an_identical_tree_updates_every_mtime(drawing_shapes_model, tmp_path):
    summaries = summarize_project(drawing_shapes_model, CONFIG)
    empty = summarize_project(CodeModel("empty", ()), CONFIG)
    planned = plan_emission(summaries, PER_IDENTIFIER, tmp_path) + plan_emission(empty, COMBINED, tmp_path)
    write_plan(planned)
    before = _files(tmp_path)
    assert before["summary.txt"] == b""
    for path, _ in planned:
        os.utime(path, ns=(10**9, 10**9))
    write_plan(planned)
    assert _files(tmp_path) == before
    assert [path for path, _ in planned if Path(path).stat().st_mtime_ns <= 10**9] == []


def _open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_write_plan_leaks_no_file_descriptor(drawing_shapes_model, tmp_path, monkeypatch):
    planned = plan_emission(summarize_project(drawing_shapes_model, CONFIG), PER_IDENTIFIER, tmp_path / "out")
    opened = _open_descriptors()
    write_plan(planned)
    assert _open_descriptors() == opened

    blocked = Path(planned[5][0])
    blocked.unlink()
    blocked.mkdir()
    with pytest.raises(IsADirectoryError):
        write_plan(planned)
    assert _open_descriptors() == opened
    blocked.rmdir()

    def full_disk(descriptor, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    with monkeypatch.context() as patch, pytest.raises(OSError, match="No space left on device"):
        patch.setattr(os, "write", full_disk)
        write_plan(planned)
    assert _open_descriptors() == opened
