"""Joins each subject's sentences into a one-paragraph document and writes
the documents out.

Two layouts are supported: ``combined`` writes every paragraph into
``summary.txt`` with a header line per subject, ``per-identifier`` writes one
file per class and per method under ``classes/`` and ``methods/``. Output is
UTF-8 with LF newlines and is byte-identical across runs on the same model.
"""

from __future__ import annotations

import contextlib
import os
import re
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from .model import CodeModel
from .summarizer import RenderingConfig, class_sentences, method_sentences

COMBINED = "combined"
PER_IDENTIFIER = "per-identifier"

_UNSAFE_FILENAME_CHARS = re.compile(r"[^A-Za-z0-9_.\-]")

# Code points encoded at a time when a file is written.
_ENCODE_SLICE = 64 * 1024


class SummaryDocument(NamedTuple):
    """One subject's paragraph."""

    subject_kind: str  # "class" or "method"
    package: str
    class_name: str
    method_name: str | None
    parameter_types: tuple[str, ...]
    body: str

    @property
    def subject_path(self) -> str:
        path = f"{self.package}.{self.class_name}"
        if self.method_name is not None:
            path += f".{self.method_name}({', '.join(self.parameter_types)})"
        return path


def summarize_project(model: CodeModel, config: RenderingConfig) -> tuple[SummaryDocument, ...]:
    """One document per class and per method, in model traversal order: each
    class first, then its methods."""
    documents: list[SummaryDocument] = []
    for package in model.packages:
        package_name = package.name
        for cls in package.classes:
            class_name = cls.name
            body = " ".join(class_sentences(cls, config))
            documents.append(SummaryDocument("class", package_name, class_name, None, (), body))
            for method in cls.methods:
                parameter_types = tuple([declared_type for _, declared_type in method.parameters])
                body = " ".join(method_sentences(method, config))
                documents.append(SummaryDocument("method", package_name, class_name, method.name, parameter_types, body))
    return tuple(documents)


def _sanitize(component: str) -> str:
    return _UNSAFE_FILENAME_CHARS.sub("-", component)


def plan_emission(summaries: tuple[SummaryDocument, ...], layout: str, out_dir: Path) -> list[tuple[str, str]]:
    """Map every document to its target path and exact file content.

    Raises ValueError on an unknown layout or when two documents map to the
    same path; nothing is written, so callers can abort with a clean tree.
    """
    root = os.path.join(os.fspath(out_dir), "")  # ends in a separator
    if layout == COMBINED:
        # One join over each document's header, body and separator copies
        # each body once.
        parts: list[str] = []
        for document in summaries:
            parts += (f"== {document.subject_kind} {document.subject_path} ==\n", document.body, "\n\n")
        if parts:
            parts[-1] = "\n"
        return [(os.path.join(root, "summary.txt"), "".join(parts))]

    if layout != PER_IDENTIFIER:
        raise ValueError(f"unknown layout {layout!r}")

    methods = Counter((d.package, d.class_name, d.method_name) for d in summaries if d.subject_kind == "method")
    planned: list[tuple[str, str]] = []
    # Keyed as the file system compares names: without case on Windows.
    used: dict[str, SummaryDocument] = {}
    for document in summaries:
        # One unpacking reads the fields faster than six attribute lookups.
        kind, package, class_name, method_name, parameter_types, body = document
        if kind == "class":
            path = f"{root}classes/{_sanitize(f'{package}.{class_name}')}.txt"
        else:
            name = f"{package}.{class_name}.{method_name}"
            if parameter_types and methods[package, class_name, method_name] > 1:
                name += "_" + "_".join(parameter_types)
            path = f"{root}methods/{_sanitize(name)}.txt"
        other = used.setdefault(os.path.normcase(path), document)
        if other is not document:
            raise ValueError(
                f"summary file name collision: {other.subject_path!r} and {document.subject_path!r} "
                f"both map to {Path(path).as_posix()}"
            )
        planned.append((path, body + "\n"))
    return planned


def write_plan(planned: list[tuple[str, str]]) -> list[str]:
    """Write planned files as UTF-8; takes ``str`` paths and returns them in
    plan order, as given.

    Three steps, one file at a time:

    1. Every parent directory is made.
    2. Every target is opened for writing without truncating it; a target
       that does not exist yet is then created, exclusively, so a dangling
       symbolic link fails as missing. Whatever the operating system would
       refuse (a file where a directory goes, a directory where a file goes,
       a missing permission) fails here, before any byte is written.
    3. Each file is written over its old bytes, and cut to the new length
       only when it was longer. A write, or for an empty file the cut,
       updates every file's mtime on a rerun.

    A failure in step 1 or 2 leaves the tree as it was: the files step 2
    created and the directories step 1 made are removed, innermost first,
    and the first error in plan order propagates. A failure in step 3 (disk
    full, an I/O error) is raised against its path after the same cleanup,
    but the files that existed before keep what step 3 wrote to them: the
    one it failed on may hold new bytes followed by part of its old ones.
    """
    made: list[str] = []
    created: list[str] = []
    try:
        for directory in dict.fromkeys(os.path.dirname(path) or os.curdir for path, _ in planned):
            made += reversed([parent for parent in (directory, *Path(directory).parents) if not os.path.exists(parent)])
            os.makedirs(directory, exist_ok=True)
        for path, _ in planned:
            try:
                descriptor = os.open(path, os.O_WRONLY)
            except FileNotFoundError as missing:
                try:
                    descriptor = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                except FileExistsError:  # a dangling symbolic link
                    raise missing from None
                created.append(path)
            os.close(descriptor)
        for path, content in planned:
            _overwrite(path, content)
    except OSError:
        for path in created:
            with contextlib.suppress(OSError):
                os.unlink(path)
        for directory in reversed(made):
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise
    return [path for path, _ in planned]


def _overwrite(path: str, content: str) -> None:
    """Write ``content`` over the existing file ``path`` and cut off any old
    bytes past its end.

    The content is encoded a slice at a time, so a large file never holds
    its whole encoding in memory. An error is raised against ``path``.
    """
    try:
        descriptor = os.open(path, os.O_WRONLY)
        try:
            size = 0
            for start in range(0, len(content), _ENCODE_SLICE):
                data = memoryview(content[start : start + _ENCODE_SLICE].encode("utf-8"))
                size += len(data)
                while data:
                    data = data[os.write(descriptor, data) :]
            # Only an empty file gets no write, so only the cut updates its mtime.
            if size == 0 or os.fstat(descriptor).st_size > size:
                os.ftruncate(descriptor, size)
        finally:
            os.close(descriptor)
    except OSError as exc:
        if exc.filename is None:
            exc.filename = path
        raise
