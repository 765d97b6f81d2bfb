"""Random, resource-aware test program generation.

The stand-in for syzkaller as a corpus producer (§4.1 "KIT takes a set of
kernel test programs … which can be generated by external tools such as
fuzzers").  The generator understands the syzlang-lite declarations: it
draws argument values from the declared domains and wires file
descriptors / IPC ids produced by earlier calls into later ones, the way
syzkaller's resource-aware mutation does.

:func:`stream_corpus` assembles a corpus as an *iterator*: the
hand-written seeds, mutated seed variants, syscall-profile-mined
diversifier programs, and freshly generated random programs, admitted
by one rule: a program whose content hash is new.  Everything is
deterministic given the seed value, and :func:`build_corpus` is the
materialized view of the same stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set

from ..kernel.syscalls.decl import DECLS, ArgSpec, SyscallDecl
from .program import Arg, Call, ConstArg, ResultArg, TestProgram
from .seeds import seed_list

#: Longest random program, before producer calls are synthesized.
MAX_PROGRAM_LENGTH = 6
#: Mutation-chain length grown from each hand-written seed.
MUTANTS_PER_SEED = 3
#: Candidates the diversifier draws per syscall no program uses yet.
DIVERSIFY_PER_SYSCALL = 2
#: Generic fd argument accepts any of these produced kinds.
_FD_KINDS = ("fd_file", "fd_io_uring", "sock")


def _compatible(arg_resource: str, produced: str) -> bool:
    if arg_resource == "fd":
        return produced in _FD_KINDS
    return arg_resource == produced


class ProgramGenerator:
    """Deterministic random program generator.

    ``focus`` restricts generation to the named syscalls (plus any
    producers needed to satisfy their resource arguments) — the analogue
    of syzkaller's ``enable_syscalls``, used to aim a corpus at one
    subsystem.
    """

    def __init__(self, seed: int = 0, focus: Optional[Sequence[str]] = None):
        self._rng = random.Random(seed)
        all_decls = list(DECLS.all())
        if focus is not None:
            wanted = set(focus)
            unknown = wanted - set(DECLS.names())
            if unknown:
                raise ValueError(f"unknown focus syscalls: {sorted(unknown)}")
            all_decls = [d for d in all_decls if d.name in wanted]
            if not all_decls:
                raise ValueError("focus selects no syscalls")
        self._weighted = [(d, d.weight) for d in all_decls]
        self._producers: Dict[str, List[SyscallDecl]] = {}
        # Producers come from the full registry: a focused corpus still
        # needs socket()/open() to satisfy fd arguments.
        for decl in DECLS.all():
            if decl.ret_resource is not None:
                self._producers.setdefault(decl.ret_resource, []).append(decl)

    # -- generation ----------------------------------------------------------

    def generate(self, length: Optional[int] = None) -> TestProgram:
        target = length or self._rng.randint(1, MAX_PROGRAM_LENGTH)
        calls: List[Call] = []
        #: produced resource kind -> result indices.
        resources: Dict[str, List[int]] = {}
        while len(calls) < target:
            decl = self._pick_decl()
            self._emit_call(decl, calls, resources)
        return TestProgram(calls)

    def _pick_decl(self) -> SyscallDecl:
        total = sum(weight for __, weight in self._weighted)
        point = self._rng.uniform(0, total)
        for decl, weight in self._weighted:
            point -= weight
            if point <= 0:
                return decl
        return self._weighted[-1][0]

    def _emit_call(self, decl: SyscallDecl, calls: List[Call],
                   resources: Dict[str, List[int]]) -> None:
        args: List[Arg] = []
        for spec in decl.args:
            args.append(self._make_arg(spec, calls, resources))
        calls.append(Call(decl.name, tuple(args)))
        if decl.ret_resource is not None:
            resources.setdefault(decl.ret_resource, []).append(len(calls) - 1)

    def _make_arg(self, spec: ArgSpec, calls: List[Call],
                  resources: Dict[str, List[int]]) -> Arg:
        if spec.kind in ("fd", "res"):
            candidates = [
                index
                for kind, indices in resources.items()
                if _compatible(spec.resource, kind)
                for index in indices
            ]
            if candidates:
                return ResultArg(self._rng.choice(candidates))
            # Try to synthesize a producer first, like syzkaller does.
            producer = self._find_producer(spec.resource)
            if producer is not None and self._rng.random() < 0.85:
                self._emit_call(producer, calls, resources)
                return ResultArg(len(calls) - 1)
            return ConstArg(self._rng.choice((0, 3, 99)))  # likely-EBADF value
        if spec.kind in ("int", "flags"):
            if spec.choices:
                return ConstArg(self._rng.choice(spec.choices))
            return ConstArg(self._rng.randint(0, 8))
        # str / path
        if spec.choices:
            return ConstArg(self._rng.choice(spec.choices))
        return ConstArg("x")

    def _find_producer(self, resource: str) -> Optional[SyscallDecl]:
        matches = [
            decl
            for kind, decls in self._producers.items()
            if _compatible(resource, kind)
            for decl in decls
        ]
        if not matches:
            return None
        return self._rng.choice(matches)

    # -- mutation -------------------------------------------------------------

    def mutate(self, program: TestProgram) -> TestProgram:
        """One random mutation: tweak an arg, drop, duplicate, or extend."""
        live = program.live_call_indices()
        operations = ["tweak", "extend"]
        if len(live) > 1:
            operations += ["drop", "duplicate"]
        operation = self._rng.choice(operations)
        if operation == "tweak" and live:
            return self._tweak_arg(program, self._rng.choice(live))
        if operation == "drop":
            return program.without_call(self._rng.choice(live))
        if operation == "duplicate":
            index = self._rng.choice(live)
            calls = list(program.calls)
            calls.append(calls[index])
            return TestProgram(calls)
        # extend
        extension = self.generate(length=1)
        return program.concatenate(extension)

    def _tweak_arg(self, program: TestProgram, index: int) -> TestProgram:
        call = program.calls[index]
        if call is None or call.name not in DECLS or not call.args:
            return program
        decl = DECLS.get(call.name)
        position = self._rng.randrange(len(call.args))
        spec = decl.args[position]
        if spec.kind in ("fd", "res") or not spec.choices:
            return program
        new_args = list(call.args)
        new_args[position] = ConstArg(self._rng.choice(spec.choices))
        calls = list(program.calls)
        calls[index] = Call(call.name, tuple(new_args))
        return TestProgram(calls)


@dataclass
class StreamStats:
    """Telemetry of one streamed generation run."""

    #: Programs admitted into the corpus (== what the stream yielded).
    emitted: int = 0
    #: Candidate programs considered (seeds, mutants, diversifier, random).
    candidates: int = 0
    #: Candidates dropped as exact content-hash duplicates.
    duplicate_drops: int = 0
    #: Admitted programs contributed by the syscall diversifier.
    diversified: int = 0


def stream_corpus(size: int, seed: int = 0, diversify: bool = False,
                  stats: Optional[StreamStats] = None
                  ) -> Iterator[TestProgram]:
    """Stream a deterministic corpus of up to *size* unique programs.

    Admission order is a pure function of the arguments — resuming or
    abandoning the stream early never changes which programs come out
    or in what order.  With *diversify* off this is exactly the
    :func:`build_corpus` sequence.

    Phases, in order: hand-written seeds; per-seed mutation chains;
    (optional) the syscall diversifier — for every declared syscall no
    admitted program has used yet, a focused sub-generator seeded from
    the syscall name contributes candidates, mining the admitted
    programs' syscall profiles the way sandbox miners profile
    containers; random generation until *size* programs are admitted
    or the attempt budget (``size * 20``) runs out.
    """
    generator = ProgramGenerator(seed=seed)
    stats = stats if stats is not None else StreamStats()
    seen: Set[str] = set()
    used_syscalls: Set[str] = set()

    def admit(program: TestProgram) -> Optional[TestProgram]:
        stats.candidates += 1
        if len(program) == 0:
            return None
        if program.hash_hex in seen:
            stats.duplicate_drops += 1
            return None
        seen.add(program.hash_hex)
        stats.emitted += 1
        used_syscalls.update(call.name for call in program.calls
                             if call is not None)
        return program

    def finished() -> bool:
        return stats.emitted >= size

    for program in seed_list():
        if finished():
            return
        admitted = admit(program)
        if admitted is not None:
            yield admitted
    for program in seed_list():
        current = program
        for __ in range(MUTANTS_PER_SEED):
            current = generator.mutate(current)
            if finished():
                return
            admitted = admit(current)
            if admitted is not None:
                yield admitted
    if diversify:
        for name in sorted(set(DECLS.names()) - used_syscalls):
            if finished():
                return
            # String-seeded like faults/plan.py: stable per syscall,
            # independent of how many syscalls precede it.
            focused = ProgramGenerator(seed=f"diversify:{seed}:{name}",
                                       focus=[name])
            for __ in range(DIVERSIFY_PER_SYSCALL):
                if finished():
                    return
                admitted = admit(focused.generate())
                if admitted is not None:
                    stats.diversified += 1
                    yield admitted
    attempts = 0
    while not finished() and attempts < size * 20:
        attempts += 1
        admitted = admit(generator.generate())
        if admitted is not None:
            yield admitted


def build_corpus(size: int, seed: int = 0) -> List[TestProgram]:
    """Assemble a deterministic corpus of roughly *size* unique programs.

    The materialized view of :func:`stream_corpus` with diversification
    off, so existing campaign fingerprints are untouched.
    """
    return list(stream_corpus(size, seed=seed))
