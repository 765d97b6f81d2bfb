"""Tracing perturbs no syscall result.

The profiler runs each container twice per program, untraced for the
syscall trace and traced for the memory accesses (§4.1.1), because on
real hardware instrumentation may change what the calls return.  In
this kernel model it must not: a kernel change that lets tracing leak
into results would make the two runs disagree, and this property fails
loudly.  It is the premise for taking the records from the traced run.
"""

from __future__ import annotations

from repro.corpus import build_corpus
from repro.kernel import KernelTracer
from repro.vm import Machine
from repro.vm.machine import RECEIVER, SENDER

#: Every 25th program of the seed-1 corpus: 40 programs and 80 container
#: pairs of runs per preset, under 1 s over all presets on a 2-vCPU host.
SAMPLE = build_corpus(1000, seed=1)[::25]


def test_plain_and_traced_records_are_equal(preset_config):
    machine = Machine(preset_config)
    for program in SAMPLE:
        for container in (SENDER, RECEIVER):
            machine.reset()
            plain = machine.run(container, program)
            machine.reset()
            machine.attach_tracer(KernelTracer())
            traced = machine.run(container, program, profile=True)
            machine.attach_tracer(None)
            assert traced.accesses
            assert plain.records == traced.records, (container, program)
