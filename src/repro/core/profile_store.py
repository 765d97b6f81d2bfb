"""On-disk profile cache: skip re-profiling unchanged programs.

Profiling dominates campaign cost (4 snapshot-restored runs per program,
§6.5), and a program's profile is a pure function of (program, kernel
build, container setup).  Like the paper's non-determinism cache ("KIT
saves this … to disk for each test program to reduce the need to rerun
the test program in future testing campaigns"), this store keys each
profile by the program hash *and* a machine fingerprint, so switching
kernels or container flags invalidates exactly what it must.

Profiles are pickled; the fingerprint covers the kernel version, the
bug-flag set, the jump-label config, and both containers' namespace
flags.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from typing import List, Optional, Sequence

from ..corpus.program import TestProgram
from ..vm.machine import Machine, MachineConfig
from .profile import ProgramProfile, Profiler


def machine_fingerprint(config: MachineConfig) -> str:
    """A stable digest of everything that shapes a profile."""
    parts = [
        config.kernel.version,
        f"jump_label={config.kernel.jump_label}",
        ",".join(config.bugs.enabled()),
        f"sender={config.sender.unshare_flags:#x}"
        f":{config.sender.pivot_root}:{config.sender.uid}",
        f"receiver={config.receiver.unshare_flags:#x}"
        f":{config.receiver.pivot_root}:{config.receiver.uid}",
    ]
    return hashlib.sha1("|".join(parts).encode()).hexdigest()[:16]


class ProfileStore:
    """Directory-backed cache of :class:`ProgramProfile` objects.

    Entries fan out into 256 subdirectories keyed by the first two hex
    digits of the program hash, so a 100k-profile cache never piles into
    one directory.  Old flat-layout caches keep working: ``get`` falls
    back to the legacy path, and ``put`` always writes the sharded one.
    """

    def __init__(self, directory: str, fingerprint: str):
        self._directory = os.path.join(directory, fingerprint)
        os.makedirs(self._directory, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Entries/bytes this store wrote (CampaignStats telemetry).
        self.entries_written = 0
        self.bytes_written = 0

    def _path(self, program: TestProgram) -> str:
        return os.path.join(self._directory, program.hash_hex[:2],
                            f"{program.hash_hex}.profile")

    def _legacy_path(self, program: TestProgram) -> str:
        return os.path.join(self._directory, f"{program.hash_hex}.profile")

    def get(self, program: TestProgram) -> Optional[ProgramProfile]:
        path = self._path(program)
        if not os.path.exists(path):
            path = self._legacy_path(program)  # pre-sharding caches
        if not os.path.exists(path):
            self.misses += 1
            return None
        try:
            with open(path, "rb") as handle:
                profile = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError):
            self.misses += 1
            return None
        self.hits += 1
        return profile

    def put(self, profile: ProgramProfile) -> None:
        # Atomic publish: parallel profiling workers and campaigns
        # running side by side share this directory, and a reader must
        # never see a torn pickle.  The temp name carries the pid, since
        # thread idents repeat across processes.
        path = self._path(profile.program)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp_path = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp_path, "wb") as handle:
            pickle.dump(profile, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_path, path)
        self.entries_written += 1
        self.bytes_written += os.path.getsize(path)


class CachingProfiler:
    """A :class:`~repro.core.profile.Profiler` with an on-disk cache."""

    def __init__(self, machine: Machine, directory: str):
        self._profiler = Profiler(machine)
        self._store = ProfileStore(directory,
                                   machine_fingerprint(machine.config))

    @property
    def runs_executed(self) -> int:
        return self._profiler.runs_executed

    @property
    def store(self) -> ProfileStore:
        return self._store

    def profile(self, program: TestProgram, index: int = 0) -> ProgramProfile:
        cached = self._store.get(program)
        if cached is not None:
            # Re-stamp the corpus index: it is campaign-relative.
            cached.index = index
            return cached
        profile = self._profiler.profile(program, index)
        self._store.put(profile)
        return profile

    def profile_corpus(self, corpus: Sequence[TestProgram]
                       ) -> List[ProgramProfile]:
        return [self.profile(program, index)
                for index, program in enumerate(corpus)]
