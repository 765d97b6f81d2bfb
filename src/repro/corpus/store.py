"""On-disk corpus storage — the syzkaller ``corpus.db`` stand-in.

A corpus directory holds one ``<hash>.prog`` text file per program (the
human-readable serialization) plus an ``index.txt`` that fixes the corpus
order, so campaigns are reproducible from disk.  Programs that fail to
parse are reported, not silently dropped — a corrupted corpus should be
loud.

A corpus directory has one writer and one reader, and both *stream*:
:class:`CorpusWriter` admits a generation stream incrementally,
appending to the index as it goes — reopening the writer on an existing
directory resumes it, skipping the hashes already present, so an
interrupted deterministic generation run finishes into a byte-identical
directory — and :func:`iter_corpus` yields programs one at a time
straight off the index (a 100k-program corpus never sits in memory as a
list on the load path).
"""

from __future__ import annotations

import os
from typing import Iterator, List, Optional, Set, Tuple

from .program import TestProgram

_INDEX_NAME = "index.txt"
_SUFFIX = ".prog"


def _iter_index_names(directory: str) -> Iterator[str]:
    index_path = os.path.join(directory, _INDEX_NAME)
    if os.path.exists(index_path):
        with open(index_path) as handle:
            for line in handle:
                name = line.strip()
                if name:
                    yield name
    else:
        yield from sorted(name for name in os.listdir(directory)
                          if name.endswith(_SUFFIX))


def iter_corpus(directory: str,
                errors: Optional[List[Tuple[str, str]]] = None
                ) -> Iterator[TestProgram]:
    """Stream a corpus directory in index order.

    Corrupt entries (unreadable, unparseable, or hash-mismatched) are
    skipped and reported into *errors*; a missing or unreadable
    directory, or an index that does not decode, is itself one error
    entry, not an exception — a damaged store degrades to whatever
    loads, loudly.
    """
    errors = errors if errors is not None else []
    try:
        names = list(_iter_index_names(directory))
    except (OSError, UnicodeDecodeError) as error:
        errors.append((directory, str(error)))
        return
    for name in names:
        path = os.path.join(directory, name)
        try:
            with open(path) as handle:
                program = TestProgram.parse(handle.read())
        except (OSError, ValueError) as error:
            errors.append((name, str(error)))
            continue
        expected = name[:-len(_SUFFIX)]
        if program.hash_hex != expected:
            errors.append(
                (name, f"content hash {program.hash_hex} != filename"))
            continue
        yield program


class CorpusWriter:
    """Incremental, resumable corpus writer.

    Opening a writer on a directory that already holds a corpus resumes
    it: hashes listed in the existing index are skipped on
    :meth:`add` and new programs append to the index.  Because
    generation is deterministic, interrupting a streamed run and
    resuming it with the same parameters reproduces the prefix already
    on disk (each add a no-op) and then appends the missing tail —
    the final directory is byte-identical to an uninterrupted run.
    """

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        self._directory = directory
        self._known: Set[str] = set()
        index_path = os.path.join(directory, _INDEX_NAME)
        if os.path.exists(index_path):
            for name in _iter_index_names(directory):
                self._known.add(name[:-len(_SUFFIX)])
        self._index = open(index_path, "a")
        #: Programs appended by this writer (resume skips not counted).
        self.added = 0
        #: Adds skipped because the hash was already on disk.
        self.skipped = 0

    @property
    def count(self) -> int:
        """Total programs in the directory (pre-existing + added)."""
        return len(self._known)

    def add(self, program: TestProgram) -> bool:
        """Persist *program*; False when it was already present."""
        if program.hash_hex in self._known:
            self.skipped += 1
            return False
        name = program.hash_hex + _SUFFIX
        with open(os.path.join(self._directory, name), "w") as handle:
            handle.write(program.serialize() + "\n")
        self._index.write(name + "\n")
        self._index.flush()
        self._known.add(program.hash_hex)
        self.added += 1
        return True

    def close(self) -> None:
        self._index.close()

    def __enter__(self) -> "CorpusWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
