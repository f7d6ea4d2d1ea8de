"""Benchmark for codesum: three seeded batch workloads, timed from outside.

    python3 perfbench/run.py                  # every workload, timed and traced
    python3 perfbench/run.py --workload full-fixture --seed 3 --seconds 20 --trace 0

Run from a checkout of the repository; codesum runs from its ``src/``.
Each invocation generates its inputs from ``--seed``, runs codesum once
untimed as the reference, runs the crash probe, and then for ``--seconds``
repeats the workload, each run writing over the reference run's output:

* ``--trace 0``: starts one ``codesum`` process at a time and reads its wall
  time, CPU time and peak RSS from ``os.wait4``; ``setup_s`` is the median
  time a fresh interpreter takes to import ``codesum.cli``.
* ``--trace 1``: runs ``cli.main`` in this process, alternately traced and
  untraced, and reports the per-layer metrics of ``tracing.PER_LAYER``.

Every run passes the correctness gate or counts as failed. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when a check failed and 2
when the checkout holds no codesum sources. Inputs and outputs live under
``.perfbench-work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gen
import tracing
from snapshots import check_snapshots

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
WORK = ROOT / ".perfbench-work"
DIGESTS = BENCH / "digests.json"

# What the installed ``codesum`` console script runs, and its import alone.
ENTRY = "import sys; from codesum.cli import main; sys.exit(main())"
IMPORT_ONLY = "import codesum.cli"

SETUP_SAMPLES = 11
MIN_RUNS = 3
# Largest share of the traced total that the layer spans may leave
# unaccounted (argument parsing, diagnostic printing, the report line).
UNACCOUNTED_TOLERANCE = 0.05

# Unit of each end-to-end metric; each reports the median of its samples.
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "mb_per_s": "MB/s", "peak_rss_mb": "MB"}

# Other tenants of a shared machine slow every process on it, in bursts of
# seconds and in phases of minutes that moved full-fixture's median wall time
# by a quarter between invocations. Timings are therefore reported at a
# reference speed: each is scaled by CALIBRATION_S over the median wall time
# of a fixed job, a fresh interpreter importing standard-library modules,
# run between the timed runs so that it slows with them.
CALIBRATION_S = 0.06
CALIBRATION_SAMPLES = 3  # per timed run
CALIBRATION = "import argparse, dataclasses, enum, json, pathlib, re, xml.dom.minidom, xml.etree.ElementTree"


@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(code: str, args: list[str], logs: Path) -> Child:
    """Run ``python -c code args`` against the checkout's sources and wait for it."""
    out_log, err_log = logs / "stdout.log", logs / "stderr.log"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_log), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_log), flags, 0o644),
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", code, *args], env, file_actions=actions)
    # wait4 gives this child's own usage; RUSAGE_CHILDREN would keep the
    # high-water RSS of every child so far.
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return Child(
        exit_code=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        stdout=out_log.read_text(encoding="utf-8", errors="replace"),
        stderr=err_log.read_text(encoding="utf-8", errors="replace"),
    )


def check_output(exit_code: int, stdout: str, stderr: str, report: str) -> list[str]:
    """The gate every run passes: clean exit, silent stdout, the oracle's counts."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if stdout:
        problems.append("output on stdout")
    lines = stderr.splitlines()
    actual = lines[-2] if len(lines) >= 2 else ""
    if actual != report:
        problems.append(f"report line {actual!r}, expected {report!r}")
    return problems


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted((p for p in root.rglob("*") if p.is_file()), key=lambda p: p.as_posix()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# workloads


@dataclass
class Prepared:
    args: list[str]  # codesum arguments of one timed run
    out: Path
    report: str  # the first report line the oracle expects
    input_files: int
    input_mb: float
    digest: str  # output tree of the untimed reference run
    problems: list[str]


def _reference_run(args: list[str], out: Path, report: str, work: Path) -> tuple[str, list[str]]:
    child = run_child(ENTRY, args, work)
    return tree_digest(out), check_output(child.exit_code, child.stdout, child.stderr, report)


def prepare_full_fixture(work: Path, seed: int) -> Prepared:
    src, out = work / "src", work / "out"
    oracle = gen.generate_full_fixture(FIXTURES, src, seed)
    args = ["--in", str(src), "--out", str(out), "--project", "fixtures",
            "--stage", "full", "--layout", "combined", "--mode", "strict"]
    digest, problems = _reference_run(args, out, oracle.report_line(), work)
    problems += check_snapshots(out, "combined", gen.fixture_prefixes(seed))
    return Prepared(args, out, oracle.report_line(), oracle.files, oracle.bytes / 1e6, digest, problems)


def prepare_summarize_split(work: Path, seed: int) -> Prepared:
    """Export the full-fixture model untimed; the timed runs summarize it.

    The reference is a ``--stage full --layout per-identifier`` run on the
    same sources: extract then summarize must write the same summaries.
    """
    src, full, out, model_xml = work / "src", work / "full", work / "out", work / "model.xml"
    oracle = gen.generate_full_fixture(FIXTURES, src, seed)
    full_args = ["--in", str(src), "--out", str(full), "--project", "fixtures",
                 "--stage", "full", "--layout", "per-identifier", "--mode", "strict"]
    child = run_child(ENTRY, full_args, work)
    problems = check_output(child.exit_code, child.stdout, child.stderr, oracle.report_line())
    if (full / "model.xml").is_file():
        (full / "model.xml").rename(model_xml)
    full_digest = tree_digest(full)
    problems += check_snapshots(full, "per-identifier", gen.fixture_prefixes(seed))

    args = ["--xml", str(model_xml), "--out", str(out), "--stage", "summarize", "--layout", "per-identifier"]
    digest, summarize_problems = _reference_run(args, out, oracle.report_line(), work)
    problems += summarize_problems
    if digest != full_digest:
        problems.append("summaries differ from the --stage full --layout per-identifier run")
    size = model_xml.stat().st_size if model_xml.is_file() else 0
    return Prepared(args, out, oracle.report_line(), 1, size / 1e6, digest, problems)


def prepare_lenient_dense(work: Path, seed: int) -> Prepared:
    src, out = work / "src", work / "out"
    oracle = gen.generate_lenient_dense(src, seed)
    args = ["--in", str(src), "--out", str(out), "--project", "dense", "--stage", "extract", "--mode", "lenient"]
    digest, problems = _reference_run(args, out, oracle.report_line(), work)
    return Prepared(args, out, oracle.report_line(), oracle.files, oracle.bytes / 1e6, digest, problems)


WORKLOADS = {
    "full-fixture": prepare_full_fixture,
    "summarize-split": prepare_summarize_split,
    "lenient-dense": prepare_lenient_dense,
}


def crash_probe(work: Path) -> int:
    """Lenient runs of the known crash shapes, untimed; how many end in a traceback."""
    crashes = 0
    for name, source in gen.crash_probe_sources().items():
        project = work / "probe" / name
        (project / "src").mkdir(parents=True)
        (project / "src" / "Probe.java").write_text(source, encoding="utf-8")
        args = ["--in", str(project / "src"), "--out", str(project / "out"), "--stage", "extract", "--mode", "lenient"]
        crashes += "Traceback" in run_child(ENTRY, args, project).stderr
    return crashes


# ----------------------------------------------------------------------
# measuring


def check_rewritten(prepared: Prepared, since_ns: int) -> list[str]:
    """A timed run's output tree must equal the reference and be wholly rewritten.

    Timed runs write over the reference run's files instead of into an empty
    directory. On an ext4 volume mounted with ``discard``, a summarize-split
    run that created its 7,500 files anew, after the last run's were removed
    or renamed aside, spent 1.9 to 2.9 s in the kernel and took 2.4 to 3.9 s
    (first quartile); overwriting them took 0.25 to 0.32 s and 1.1 to 1.5 s.
    Any file this run did not write is older than ``since_ns``.
    """
    problems = []
    if tree_digest(prepared.out) != prepared.digest:
        problems.append("output differs from the reference run")
    stale = sum(1 for p in prepared.out.rglob("*") if p.is_file() and p.stat().st_mtime_ns < since_ns)
    if stale:
        problems.append(f"{stale} output files were not rewritten")
    return problems


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def measure(prepared: Prepared, work: Path, seconds: float, log) -> tuple[dict[str, float], int, int]:
    """Timed child runs; returns the end-to-end metrics, runs attempted and failed."""
    setup: list[Child] = []
    samples: list[Child] = []
    calibration: list[float] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_RUNS or time.perf_counter() < deadline:
        # Set-up and calibration samples spread over the window like the runs.
        calibration += [run_child(CALIBRATION, [], work).wall_s for _ in range(CALIBRATION_SAMPLES)]
        setup.append(run_child(IMPORT_ONLY, [], work))
        started = time.time_ns()
        child = run_child(ENTRY, prepared.args, work)
        problems = check_output(child.exit_code, child.stdout, child.stderr, prepared.report)
        problems = problems or check_rewritten(prepared, started)
        if problems:
            failed += 1
            log(f"run {len(samples) + 1} failed: {'; '.join(problems)}")
        samples.append(child)
    while len(setup) < SETUP_SAMPLES:
        calibration.append(run_child(CALIBRATION, [], work).wall_s)
        setup.append(run_child(IMPORT_ONLY, [], work))
    failed += sum(1 for child in setup if child.exit_code != 0)

    scale = CALIBRATION_S / statistics.median(calibration)
    raw = _quartiles([child.wall_s for child in samples])
    log(f"  calibration median {statistics.median(calibration):.4f} s, timings scaled by {scale:.4f}; "
        f"unscaled wall_s p25 {raw[0]:.4f}  median {raw[1]:.4f}  p75 {raw[2]:.4f}")
    series = {
        "setup_s": [child.wall_s * scale for child in setup],
        "wall_s": [child.wall_s * scale for child in samples],
        "cpu_s": [child.cpu_s * scale for child in samples],
        "peak_rss_mb": [child.peak_rss_mb for child in samples],
    }
    series["mb_per_s"] = [prepared.input_mb / wall for wall in series["wall_s"]]
    metrics = {}
    for name, unit in END_TO_END.items():
        low, metrics[name], high = _quartiles(series[name])
        log(f"  {name:<12} median {metrics[name]:.4f} {unit:<5} p25 {low:.4f}  p75 {high:.4f}  n={len(series[name])}")
    return metrics, len(samples) + len(setup), failed


def trace(prepared: Prepared, work: Path, seconds: float, log) -> tuple[dict[str, float], int, int]:
    """In-process runs, alternately traced and untraced; returns per-layer medians."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import codesum.cli as cli
    import codesum.extractor as extractor
    from codesum.model import validate_model

    def run_once(traced: bool) -> tuple[float, list[str], tracing.Tracer]:
        gc.collect()  # every run starts from the same heap, free of the last run's objects
        started = time.time_ns()
        tracer = tracing.Tracer(cli, extractor)
        stdout, stderr = io.StringIO(), io.StringIO()
        exit_code, total = 1, 0.0
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if traced:
                    with tracer:
                        exit_code = tracer.span("cli.main", cli.main, prepared.args)
                    total = tracer.spans[-1][2] - tracer.spans[-1][1]
                else:
                    start = time.perf_counter()
                    exit_code = cli.main(prepared.args)
                    total = time.perf_counter() - start
        except Exception as exc:  # an uncaught error is a failed run, not a benchmark crash
            stderr.write(f"Traceback: {exc!r}\n")
        problems = check_output(exit_code, stdout.getvalue(), stderr.getvalue(), prepared.report)
        problems = problems or check_rewritten(prepared, started)
        return total, problems, tracer

    run_once(traced=False)  # imports and first-call caches, untimed
    runs: list[dict[str, float]] = []
    untraced: list[float] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted < 2 * MIN_RUNS or time.perf_counter() < deadline:
        for traced in (True, False):
            total, problems, tracer = run_once(traced)
            attempted += 1
            if traced and not problems:
                metrics = tracing.layer_metrics(tracer, validate_model)
                del tracer
                if metrics["trace.unaccounted_s"] > UNACCOUNTED_TOLERANCE * metrics["trace.total_s"]:
                    problems.append(
                        f"layer spans leave {metrics['trace.unaccounted_s']:.4f} s of "
                        f"{metrics['trace.total_s']:.4f} s unaccounted"
                    )
                runs.append(metrics)
            elif not traced:
                untraced.append(total)
            if problems:
                failed += 1
                log(f"{'traced' if traced else 'untraced'} run failed: {'; '.join(problems)}")

    if not runs:
        return {}, attempted, failed
    medians = {name: statistics.median(run[name] for run in runs) for name in runs[0]}
    medians["trace.overhead_s"] = medians["trace.total_s"] - statistics.median(untraced)
    total = medians["trace.total_s"]
    for name in tracing.PER_LAYER:
        if name in medians:
            share = f"  share {medians[name] / total:.3f}" if tracing.PER_LAYER[name] == "s" else ""
            log(f"  {name:<28} {medians[name]:.6g} {tracing.PER_LAYER[name]}{share}")
    log(f"  traced runs: {len(runs)}; layer spans cover the traced total within {UNACCOUNTED_TOLERANCE:.0%}")
    return medians, attempted, failed


def run_workload(name: str, seed: int, seconds: float, traced: bool, log) -> dict:
    work = WORK / f"{name}-{seed}-{'trace' if traced else 'time'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepared = WORKLOADS[name](work, seed)
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(name, {}).get(str(seed))
        if recorded is None:
            log(f"{name}: no output digest recorded for seed {seed}; runs are checked against the reference run")
        elif recorded != prepared.digest:
            prepared.problems.append(f"output digest {prepared.digest} differs from the one recorded for seed {seed}")
        for problem in prepared.problems:
            log(f"{name}: reference run: {problem}")
        crashes = crash_probe(work)
        log(f"{name} seed={seed} {'traced' if traced else 'timed'}: {prepared.input_files} input files, "
            f"{prepared.input_mb:.3f} MB; probe.crashes {crashes}; work dir {WORK}; "
            "one child at a time; cpu pinning: none")
        if traced:
            values, attempted, failed = trace(prepared, work, seconds, log)
            values["probe.crashes"] = crashes
            units = tracing.PER_LAYER
        else:
            values, attempted, failed = measure(prepared, work, seconds, log)
            units = END_TO_END
        attempted += 1
        failed += bool(prepared.problems)
        log(f"  failed_share {failed / attempted:.3f} ({failed}/{attempted})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once no other invocation's directory is left
    return {
        "correct": failed == 0 and set(values) >= set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items() if metric in values},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: timed, then traced")
    args = parser.parse_args(argv)
    if not (SRC / "codesum" / "cli.py").is_file():
        print(f"error: no codesum sources under {SRC}", file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, flush=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    results = {(name, traced): run_workload(name, args.seed, args.seconds, traced, log) for name in names for traced in modes}
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {f"{name}/{metric}": value for (name, _), result in results.items()
                        for metric, value in result["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
