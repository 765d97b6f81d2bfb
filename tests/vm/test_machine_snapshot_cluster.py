"""Unit tests for machines, snapshots, and the process shard pool."""

import pytest

from repro.corpus.program import prog
from repro.corpus.seeds import seed_programs
from repro.kernel import linux_5_13
from repro.kernel.clock import DEFAULT_BOOT_NS
from repro.kernel.namespaces import NamespaceType
from repro.vm import (
    ContainerConfig,
    Machine,
    MachineConfig,
    Snapshot,
    fork_available,
    run_sharded,
)


class TestSnapshot:
    def test_restore_is_isolated_from_original(self, machine_513):
        machine_513.reset()
        kernel_a = machine_513.snapshot.restore()
        kernel_b = machine_513.snapshot.restore()
        task_a = kernel_a.tasks.all_tasks()[0]
        kernel_a.sched.sys_setpriority(task_a, 0, 0, 10)
        task_b = kernel_b.tasks.all_tasks()[0]
        assert kernel_b.sched.sys_getpriority(task_b, 0, 0) == 20

    def test_restore_with_boot_offset_rebases_clock(self, machine_513):
        kernel = machine_513.snapshot.restore(boot_offset_ns=123)
        assert kernel.clock.boot_offset_ns == 123

    def test_restored_kernel_has_no_tracer(self, machine_513):
        from repro.kernel import KernelTracer

        machine_513.reset()
        machine_513.attach_tracer(KernelTracer())
        blob = Snapshot.take(machine_513.kernel)
        assert blob.restore().tracer is None
        machine_513.attach_tracer(None)

    def test_size_is_reasonable(self, machine_513):
        # Snapshots should stay small (fast restores are the §6.5 lever).
        assert machine_513.snapshot.size_bytes < 200_000


class TestMachine:
    def test_containers_have_fresh_namespaces(self, machine_513):
        machine_513.reset()
        sender = machine_513.sender_task
        receiver = machine_513.receiver_task
        for ns_type in NamespaceType:
            assert not sender.nsproxy.shares_with(receiver.nsproxy, ns_type)

    def test_private_tmp_mounted(self, machine_513):
        machine_513.reset()
        kernel = machine_513.kernel
        sender_tmp = machine_513.sender_task.nsproxy.get(
            NamespaceType.MNT).find_mount("/tmp").sb
        host_tmp = kernel.init_mnt_ns.find_mount("/tmp").sb
        assert sender_tmp is not host_tmp

    def test_host_mount_ns_variant_shares_tmp(self):
        config = MachineConfig(
            sender=ContainerConfig("sender").host_mount_ns())
        machine = Machine(config)
        kernel = machine.kernel
        sender_ns = machine.sender_task.nsproxy.get(NamespaceType.MNT)
        assert sender_ns is kernel.init_mnt_ns

    def test_reset_restores_pristine_state(self, machine_513):
        machine_513.reset()
        machine_513.run("sender", prog(("socket", 17, 3, 3),))
        machine_513.reset()
        result = machine_513.run("receiver", seed_programs()["read_ptype"])
        assert "packet_rcv" not in result.records[1].details["data"]

    def test_identical_runs_produce_identical_records(self, machine_513):
        program = seed_programs()["read_sockstat"]
        machine_513.reset()
        first = machine_513.run("receiver", program)
        machine_513.reset()
        second = machine_513.run("receiver", program)
        assert first.records[1].details == second.records[1].details

    def test_unknown_container_rejected(self, machine_513):
        with pytest.raises(ValueError):
            machine_513.task_for("thirdparty")

    def test_boot_offset_changes_time_dependent_results(self, machine_513):
        program = seed_programs()["read_uptime"]
        machine_513.reset(boot_offset_ns=DEFAULT_BOOT_NS)
        first = machine_513.run("receiver", program)
        machine_513.reset(boot_offset_ns=DEFAULT_BOOT_NS + 7 * 10**9)
        second = machine_513.run("receiver", program)
        assert first.records[1].details != second.records[1].details


@pytest.mark.skipif(not fork_available(),
                    reason="process shards require fork")
class TestCluster:
    def test_results_ordered_by_job_id(self):
        config = MachineConfig(bugs=linux_5_13())
        payloads = [prog(("getpid",),) for __ in range(8)]

        def runner(machine, program):
            machine.reset()
            return machine.run("receiver", program).records[0].retval

        results = run_sharded(config, payloads, runner, workers=3).results
        assert [r.job_id for r in results] == list(range(8))
        assert all(r.error is None for r in results)

    def test_worker_errors_are_reported_not_raised(self):
        config = MachineConfig()

        def runner(machine, payload):
            raise RuntimeError("boom")

        results = run_sharded(config, [1, 2], runner, workers=2).results
        assert all("boom" in r.error for r in results)

    def test_workers_share_the_job_queue(self):
        """Two shards are granted chunks of one affinity-ordered job
        list; the merge hides who ran what."""
        config = MachineConfig()

        def runner(machine, payload):
            return payload * 2

        results = run_sharded(config, list(range(10)), runner,
                              workers=2).results
        assert [r.outcome for r in results] == [i * 2 for i in range(10)]
        assert {r.worker for r in results} == {0, 1}

    def test_single_worker_mode(self):
        config = MachineConfig()
        report = run_sharded(config, [1], lambda m, p: p, workers=1)
        assert report.results[0].outcome == 1
        assert report.shards_spawned == 1
