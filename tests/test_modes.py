"""Strict mode is lenient mode cut at the first problem.

A differential test over seeded inputs: for the lexer, fixture files with
characters inserted that the grammar rejects or reads specially; for the
parser, ``_mutation_corpus()``. Strict diagnostics are lenient ones up to the
first problem, that one as an error without lenient's recovery note; strict
mode keeps a stage's result exactly when lenient found no problem, and then
keeps lenient's.
"""

import random

from codesum.diagnostics import Diagnostic, error, has_errors
from codesum.lexer import tokenize
from codesum.parser import RECOVERY_NOTE, parse_compilation_unit

from conftest import FIXTURES, declarations, in_mode
from test_parser import _mutation_corpus

# Spelled out, not imported, so that the oracle does not share the code under test.
_NOTE = " (skipping to next top-level declaration)"

# Quotes, comment openers, lone ASCII characters, non-ASCII digits that
# ``str.isdigit`` accepts, a symbol, a letter and a bare carriage return.
_INSERTED = ['"', "'", "/*", "\\", "#", "²", "٣", "→", "é", "\r"]


def _lexed(source: str, file: str, strict: bool):
    """The token texts and offsets, or None where the mode drops them, and the diagnostics."""
    tokens, found = tokenize(source, file)
    diagnostics, kept = in_mode(found, strict)
    if not kept:
        return None, diagnostics
    return (tokens.texts, list(map(tokens.positions.offset, range(len(tokens))))), diagnostics


def _parsed(tokens, file: str, strict: bool):
    """The unit's declarations, or None where the mode drops it, and the diagnostics."""
    unit, found = parse_compilation_unit(tokens, file)
    diagnostics, kept = in_mode(found, strict, RECOVERY_NOTE)
    return declarations(unit if kept else None), diagnostics


def _strict_from_lenient(lenient: list[Diagnostic], is_problem) -> tuple[list[Diagnostic], bool]:
    """Lenient diagnostics up to the first problem, that one as an error
    without the note; and whether there was a problem."""
    for index, diagnostic in enumerate(lenient):
        if is_problem(diagnostic):
            problem = error(diagnostic.message.removesuffix(_NOTE), diagnostic.file, diagnostic.line, diagnostic.column)
            return lenient[:index] + [problem], True
    return lenient, False


def _check(stage, stage_input, file: str, is_problem) -> bool:
    """Whether lenient mode found a problem; asserts the oracle on the way."""
    strict_result, strict_diagnostics = stage(stage_input, file, True)
    lenient_result, lenient_diagnostics = stage(stage_input, file, False)
    assert not has_errors(lenient_diagnostics), file
    expected, problem = _strict_from_lenient(lenient_diagnostics, is_problem)
    assert strict_diagnostics == expected, file
    assert (strict_result is None) == problem, file
    if not problem:
        assert strict_result == lenient_result, file
    return problem


def _lexer_mutants(seed: int = 15, per_file: int = 200):
    """``per_file`` seeded mutants of every fixture file, each with one to
    three of ``_INSERTED`` put at random offsets."""
    rng = random.Random(seed)
    for path in sorted(FIXTURES.rglob("*.java")):
        name = path.relative_to(FIXTURES).as_posix()
        source = path.read_text(encoding="utf-8")
        for _ in range(per_file):
            mutant = source
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(mutant) + 1)
                mutant = mutant[:at] + rng.choice(_INSERTED) + mutant[at:]
            yield name, mutant


def test_strict_lexing_is_lenient_lexing_cut_at_the_first_problem():
    problems = [_check(_lexed, source, name, lambda diagnostic: True) for name, source in _lexer_mutants()]
    # Most mutants have a problem, and some have none: a character in a comment or a literal.
    assert len(problems) == 1400 and 100 < problems.count(False) < 1000


def test_strict_parsing_is_lenient_parsing_cut_at_the_first_problem():
    def is_problem(diagnostic: Diagnostic) -> bool:
        return diagnostic.message.endswith(_NOTE)

    problems = [_check(_parsed, tokens, name, is_problem) for name, tokens in _mutation_corpus()]
    assert len(problems) == 2100 and 50 < problems.count(False) < 2000
