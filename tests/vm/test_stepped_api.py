"""Tests for the step-wise executor API and the public package surface."""

import pytest

import repro
import repro.core
import repro.corpus
import repro.kernel
import repro.vm
from repro.corpus.program import prog
from repro.kernel import Kernel
from repro.vm.executor import Executor, SteppedExecution


@pytest.fixture
def kernel():
    return Kernel()


class TestSteppedExecution:
    def test_step_until_done(self, kernel):
        task = kernel.spawn_task()
        session = SteppedExecution(Executor(kernel, task),
                                   prog(("getpid",), ("gethostname",)))
        assert session.step() and not session.done
        assert session.step() and session.done
        assert not session.step()

    def test_result_matches_plain_run(self, kernel):
        program = prog(("socket", 2, 1, 6), ("getsockname", "r0"))
        task_a = kernel.spawn_task()
        plain = Executor(kernel, task_a).run(program)

        fresh = Kernel()
        task_b = fresh.spawn_task()
        session = SteppedExecution(Executor(fresh, task_b), program)
        while session.step():
            pass
        stepped = session.result()
        assert [r.retval for r in plain.live_records()] == \
            [r.retval for r in stepped.live_records()]

    def test_partial_result_snapshot(self, kernel):
        task = kernel.spawn_task()
        session = SteppedExecution(Executor(kernel, task),
                                   prog(("getpid",), ("getpid",)))
        session.step()
        partial = session.result()
        assert len(partial.records) == 1
        session.step()
        assert len(session.result().records) == 2
        # The earlier snapshot is unaffected (defensive copies).
        assert len(partial.records) == 1

    def test_holes_are_stepped_through(self, kernel):
        task = kernel.spawn_task()
        program = prog(("getpid",), ("getpid",)).without_call(0)
        session = SteppedExecution(Executor(kernel, task), program)
        session.step()
        assert session.result().records[0] is None

    def test_interleaving_two_sessions(self, kernel):
        """Two tasks' sessions advance independently on one kernel."""
        first = SteppedExecution(Executor(kernel, kernel.spawn_task()),
                                 prog(("getpid",), ("getpid",)))
        second = SteppedExecution(Executor(kernel, kernel.spawn_task()),
                                  prog(("gethostname",),))
        first.step()
        second.step()
        first.step()
        assert first.done and second.done


class TestPublicApi:
    @pytest.mark.parametrize("module", [repro, repro.core, repro.corpus,
                                        repro.kernel, repro.vm])
    def test_all_names_resolve(self, module):
        for name in module.__all__:
            assert getattr(module, name, None) is not None, \
                f"{module.__name__}.{name} missing"

    def test_top_level_version(self):
        assert repro.__version__

    def test_no_duplicate_exports(self):
        for module in (repro, repro.core, repro.corpus, repro.kernel,
                       repro.vm):
            assert len(module.__all__) == len(set(module.__all__)), \
                module.__name__


class TestProcLoadavgStat:
    def test_loadavg_varies_with_boot_offset(self):
        from repro.kernel.clock import DEFAULT_BOOT_NS

        outputs = set()
        for offset in (0, 1, 2):
            kernel = Kernel()
            kernel.clock.rebase(DEFAULT_BOOT_NS + offset * 10**9)
            task = kernel.spawn_task()
            outputs.add(kernel.procfs.render(task, "loadavg"))
        assert len(outputs) > 1

    def test_stat_tracks_ticks(self, kernel):
        task = kernel.spawn_task()
        before = kernel.procfs.render(task, "stat")
        kernel.timer_tick(10)
        after = kernel.procfs.render(task, "stat")
        assert before != after
