"""Static interference analysis over the simulated kernel's source.

KIT computes the syscall -> kernel-state access relation *dynamically*,
by profiling memory accesses (paper §4.1).  This package computes the
same relation *statically*: an abstract interpreter walks the ``ast`` of
every syscall handler, resolves attribute chains to a canonical
kernel-state location lattice, and emits per-syscall read/write sets.

On top of the access maps sit two consumers:

* :mod:`repro.analysis.escape` — the namespace-escape lint, which flags
  handlers touching global state without a namespace guard and
  statically rediscovers the injected bugs of :mod:`repro.kernel.bugs`;
* :mod:`repro.analysis.races` — the lockset race analyzer, joining
  held-lockset-annotated access maps across syscall pairs into ranked
  static race-pair candidates.

See docs/ANALYSIS.md for the lattice, the lint rules, and suppression.
"""

from .accessmap import AccessMap, SyscallSummary, extract_access_map
from .escape import EscapeFinding, EscapeLinter, rediscover_bugs
from .locations import (
    BROADCAST,
    GLOBAL,
    INIT,
    NAMESPACE,
    TASK,
    Access,
    StateLocation,
)
from .races import (
    RaceCandidate,
    RaceRediscoveryReport,
    find_race_candidates,
    rediscover_races,
)
from .report import AnalysisReport, analyze, render_json, render_text

__all__ = [
    "Access",
    "AccessMap",
    "AnalysisReport",
    "BROADCAST",
    "EscapeFinding",
    "EscapeLinter",
    "analyze",
    "GLOBAL",
    "INIT",
    "NAMESPACE",
    "RaceCandidate",
    "RaceRediscoveryReport",
    "StateLocation",
    "SyscallSummary",
    "TASK",
    "extract_access_map",
    "find_race_candidates",
    "render_json",
    "render_text",
    "rediscover_bugs",
    "rediscover_races",
]
