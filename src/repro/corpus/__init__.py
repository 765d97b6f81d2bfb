"""Test-program corpus: program model, seeds, and the random generator."""

from .generator import (
    CoverageDeduper,
    ProgramGenerator,
    StreamStats,
    build_corpus,
    stream_corpus,
)
from .program import Arg, Call, ConstArg, ResultArg, TestProgram, prog
from .seeds import seed_list, seed_programs
from .store import CorpusWriter, iter_corpus

__all__ = [
    "Arg",
    "Call",
    "ConstArg",
    "CorpusWriter",
    "CoverageDeduper",
    "ProgramGenerator",
    "ResultArg",
    "StreamStats",
    "TestProgram",
    "build_corpus",
    "iter_corpus",
    "stream_corpus",
    "prog",
    "seed_list",
    "seed_programs",
]
