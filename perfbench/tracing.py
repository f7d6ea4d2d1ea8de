"""In-process tracing of one codesum run, from outside the package.

``Tracer`` replaces, for the duration of a ``with`` block, each public
function that ``cli.run`` calls into another module with a wrapper that
records a span (name, start, end, parent) and the counts taken at that
boundary. ``layer_metrics`` turns one traced run into the per-layer metrics.
Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import pathlib
import statistics
from time import perf_counter

# Span names whose duration contains other spans and is therefore not a
# layer of its own.
CONTAINERS = frozenset({"cli.main", "extractor.parse_project"})

# Unit of every per-layer metric, in the order cli.run reaches them.
PER_LAYER = {
    "extractor.discover_s": "s",
    "extractor.read_s": "s",
    "extractor.read_bytes": "bytes",
    "lexer.tokenize_s": "s",
    "lexer.tokens": "count",
    "lexer.tokens_per_s": "tokens/s",
    "lexer.file_p99_ms": "ms",
    "lexer.diagnostics": "count",
    "parser.parse_s": "s",
    "parser.tokens_per_s": "tokens/s",
    "parser.file_p99_ms": "ms",
    "parser.diagnostics": "count",
    "extractor.build_s": "s",
    "extractor.methods": "count",
    "extractor.accesses": "count",
    "extractor.invocations": "count",
    "extractor.unresolved_share": "share",
    "model.validate_s": "s",
    "xml_io.read_s": "s",
    "xml_io.import_s": "s",
    "xml_io.import_mb_per_s": "MB/s",
    "xml_io.export_s": "s",
    "xml_io.export_bytes": "bytes",
    "emitter.summarize_s": "s",
    "emitter.documents": "count",
    "emitter.summary_chars": "chars",
    "emitter.plan_s": "s",
    "emitter.write_s": "s",
    "emitter.files_written": "count",
    "emitter.bytes_written": "bytes",
    "trace.total_s": "s",
    "trace.unaccounted_s": "s",
    "trace.overhead_s": "s",
    "probe.crashes": "count",
}


class Tracer:
    """Spans and boundary counts of one run, kept in memory."""

    def __init__(self, cli, extractor):
        self.cli, self.extractor = cli, extractor
        self.spans: list[tuple[str, float, float, str | None]] = []
        self.file_ms: dict[str, list[float]] = {"lexer.tokenize": [], "parser.parse": []}
        self.counts = {"extractor.read_bytes": 0, "lexer.tokens": 0, "lexer.diagnostics": 0,
                       "parser.tokens": 0, "parser.diagnostics": 0}
        self.results: dict[str, tuple] = {}
        self._stack: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        cli, extractor = self.cli, self.extractor
        # In the order cli.run makes the calls.
        self._wrap(cli, "parse_project", "extractor.parse_project")
        self._wrap(extractor, "discover_source_files", "extractor.discover")
        self._wrap(pathlib.Path, "read_text", self._read_label, self._count_read)
        self._wrap(extractor, "tokenize", "lexer.tokenize", self._count_tokenize)
        self._wrap(extractor, "parse_compilation_unit", "parser.parse", self._count_parse)
        self._wrap(extractor, "build_model", "extractor.build", self._keep)
        self._wrap(cli, "import_xml", "xml_io.import", self._keep)
        self._wrap(cli, "export_xml", "xml_io.export", self._keep)
        self._wrap(cli, "summarize_project", "emitter.summarize", self._keep)
        self._wrap(cli, "plan_emission", "emitter.plan")
        self._wrap(cli, "write_plan", "emitter.write", self._keep)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def span(self, name: str, function, *args):
        """Call ``function`` inside a span of its own."""
        return self._wrapped(name, function, None)(*args)

    # ------------------------------------------------------------------

    def _read_label(self) -> str:
        return "extractor.read" if self._stack and self._stack[-1] == "extractor.parse_project" else "xml_io.read"

    def _wrap(self, owner: object, attribute: str, name, count=None) -> None:
        original = getattr(owner, attribute)
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, self._wrapped(name, original, count))

    def _wrapped(self, name, function, count):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            label = name() if callable(name) else name
            parent = self._stack[-1] if self._stack else None
            self._stack.append(label)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((label, start, end, parent))
            if count is not None:
                count(label, end - start, args, result)
            return result

        return traced

    def _count_read(self, label, seconds, args, text) -> None:
        if label == "extractor.read":
            self.counts["extractor.read_bytes"] += len(text.encode("utf-8"))

    def _count_tokenize(self, label, seconds, args, result) -> None:
        tokens, diagnostics = result
        self.counts["lexer.tokens"] += len(tokens)
        self.counts["lexer.diagnostics"] += len(diagnostics)
        self.file_ms[label].append(seconds * 1000)

    def _count_parse(self, label, seconds, args, result) -> None:
        self.counts["parser.tokens"] += len(args[0])
        self.counts["parser.diagnostics"] += len(result[1])
        self.file_ms[label].append(seconds * 1000)

    def _keep(self, label, seconds, args, result) -> None:
        self.results[label] = (args, result)


def _p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _per_second(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, validate_model) -> dict[str, float]:
    """Per-layer metrics of one traced run, except trace.overhead_s and probe.crashes.

    ``model.validate_s`` times one standalone ``validate_model`` call on the
    run's final model, built or imported, outside the traced total.
    """
    busy: dict[str, float] = {}
    for name, start, end, _ in tracer.spans:
        busy[name] = busy.get(name, 0.0) + (end - start)
    total = busy["cli.main"]
    layers = sum(seconds for name, seconds in busy.items() if name not in CONTAINERS)
    counts = tracer.counts
    metrics = {
        "extractor.discover_s": busy.get("extractor.discover", 0.0),
        "extractor.read_s": busy.get("extractor.read", 0.0),
        "extractor.read_bytes": counts["extractor.read_bytes"],
        "lexer.tokenize_s": busy.get("lexer.tokenize", 0.0),
        "lexer.tokens": counts["lexer.tokens"],
        "lexer.tokens_per_s": _per_second(counts["lexer.tokens"], busy.get("lexer.tokenize", 0.0)),
        "lexer.file_p99_ms": _p99(tracer.file_ms["lexer.tokenize"]),
        "lexer.diagnostics": counts["lexer.diagnostics"],
        "parser.parse_s": busy.get("parser.parse", 0.0),
        "parser.tokens_per_s": _per_second(counts["parser.tokens"], busy.get("parser.parse", 0.0)),
        "parser.file_p99_ms": _p99(tracer.file_ms["parser.parse"]),
        "parser.diagnostics": counts["parser.diagnostics"],
        "extractor.build_s": busy.get("extractor.build", 0.0),
        "xml_io.read_s": busy.get("xml_io.read", 0.0),
        "xml_io.import_s": busy.get("xml_io.import", 0.0),
        "xml_io.export_s": busy.get("xml_io.export", 0.0),
        "emitter.summarize_s": busy.get("emitter.summarize", 0.0),
        "emitter.plan_s": busy.get("emitter.plan", 0.0),
        "emitter.write_s": busy.get("emitter.write", 0.0),
        "trace.total_s": total,
        "trace.unaccounted_s": total - layers,
    }

    model = None
    methods = accesses = invocations = unresolved = 0
    if "extractor.build" in tracer.results:
        model = tracer.results["extractor.build"][1][0]
        for package in model.packages:
            for cls in package.classes:
                for method in cls.methods:
                    methods += 1
                    accesses += len(method.attribute_accesses)
                    invocations += len(method.method_invocations)
                    unresolved += sum(1 for a in method.attribute_accesses if a.resolved_type == "unknown")
                    unresolved += sum(1 for i in method.method_invocations if i.accessed_in == "external")
    metrics["extractor.methods"] = methods
    metrics["extractor.accesses"] = accesses
    metrics["extractor.invocations"] = invocations
    metrics["extractor.unresolved_share"] = unresolved / (accesses + invocations) if accesses + invocations else 0.0

    imported_bytes = 0
    if "xml_io.import" in tracer.results:
        args, (model, _) = tracer.results["xml_io.import"]
        imported_bytes = len(args[0].encode("utf-8"))
    metrics["xml_io.import_mb_per_s"] = _per_second(imported_bytes / 1e6, metrics["xml_io.import_s"])
    exported = tracer.results.get("xml_io.export")
    metrics["xml_io.export_bytes"] = len(exported[1].encode("utf-8")) if exported else 0

    summaries = tracer.results.get("emitter.summarize")
    metrics["emitter.documents"] = len(summaries[1]) if summaries else 0
    metrics["emitter.summary_chars"] = sum(len(d.body) for d in summaries[1]) if summaries else 0
    written = tracer.results.get("emitter.write")
    metrics["emitter.files_written"] = len(written[1]) if written else 0
    metrics["emitter.bytes_written"] = (
        sum(len(content.encode("utf-8")) for _, content in written[0][0]) if written else 0
    )

    metrics["model.validate_s"] = 0.0
    if model is not None:
        start = perf_counter()
        validate_model(model)
        metrics["model.validate_s"] = perf_counter() - start
    return metrics
