"""Tests for the profile cache, on-disk cache writers, markdown rendering,
and surface docs."""

import os

import pytest

from repro.core.nondet import NondetStore
from repro.core.pipeline import CampaignConfig, Kit
from repro.core.profile_store import (
    CachingProfiler,
    ProfileStore,
    machine_fingerprint,
)
from repro.core.render_md import campaign_markdown, save_campaign_markdown
from repro.corpus.seeds import seed_list, seed_programs
from repro.kernel import KernelConfig, fixed_kernel, linux_5_13
from repro.kernel.syscalls import DECLS
from repro.kernel.syscalls.describe import describe_syscall, surface_markdown
from repro.vm import ContainerConfig, Machine, MachineConfig


class TestMachineFingerprint:
    def test_stable(self):
        assert machine_fingerprint(MachineConfig()) == \
            machine_fingerprint(MachineConfig())

    def test_bugs_change_it(self):
        assert machine_fingerprint(MachineConfig(bugs=linux_5_13())) != \
            machine_fingerprint(MachineConfig(bugs=fixed_kernel()))

    def test_jump_label_changes_it(self):
        assert machine_fingerprint(
            MachineConfig(kernel=KernelConfig(jump_label=True))) != \
            machine_fingerprint(MachineConfig())

    def test_container_flags_change_it(self):
        host = MachineConfig(sender=ContainerConfig("sender").host_mount_ns())
        assert machine_fingerprint(host) != machine_fingerprint(MachineConfig())


class TestProfileStore:
    def test_cache_roundtrip(self, tmp_path):
        machine = Machine(MachineConfig(bugs=linux_5_13()))
        profiler = CachingProfiler(machine, str(tmp_path))
        program = seed_programs()["tcp_socket"]
        first = profiler.profile(program)
        assert profiler.store.misses == 1
        second = profiler.profile(program)
        assert profiler.store.hits == 1
        assert second.sender.total_accesses() == first.sender.total_accesses()

    def test_cached_profile_skips_runs(self, tmp_path):
        machine = Machine(MachineConfig(bugs=linux_5_13()))
        CachingProfiler(machine, str(tmp_path)).profile_corpus(seed_list()[:5])
        fresh = CachingProfiler(Machine(MachineConfig(bugs=linux_5_13())),
                                str(tmp_path))
        fresh.profile_corpus(seed_list()[:5])
        assert fresh.runs_executed == 0

    def test_index_is_restamped(self, tmp_path):
        machine = Machine(MachineConfig(bugs=linux_5_13()))
        profiler = CachingProfiler(machine, str(tmp_path))
        program = seed_programs()["tcp_socket"]
        profiler.profile(program, index=0)
        cached = profiler.profile(program, index=7)
        assert cached.index == 7

    def test_corrupted_entry_reprofiled(self, tmp_path):
        machine = Machine(MachineConfig(bugs=linux_5_13()))
        profiler = CachingProfiler(machine, str(tmp_path))
        program = seed_programs()["tcp_socket"]
        profiler.profile(program)
        victim = profiler.store._path(program)
        with open(victim, "wb") as handle:
            handle.write(b"garbage")
        fresh = CachingProfiler(Machine(MachineConfig(bugs=linux_5_13())),
                                str(tmp_path))
        profile = fresh.profile(program)
        assert profile.sender.total_accesses() > 0

    def test_pipeline_integration(self, tmp_path):
        base = dict(machine=MachineConfig(bugs=linux_5_13()),
                    corpus=seed_list()[:10], profile_dir=str(tmp_path))
        first = Kit(CampaignConfig(**base)).run()
        second = Kit(CampaignConfig(**base)).run()
        assert first.stats.profile_runs > 0
        assert second.stats.profile_runs == 0
        assert first.bugs_found() == second.bugs_found()


def _profile_store_put(directory):
    profiler = CachingProfiler(Machine(MachineConfig(bugs=linux_5_13())),
                               directory)
    profile = profiler.profile(seed_programs()["tcp_socket"])
    return lambda: profiler.store.put(profile)


def _nondet_store_put(directory):
    store = NondetStore(directory)
    return lambda: store.put("prog-hash", frozenset({("pread64", 0)}))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("make_put", [_profile_store_put, _nondet_store_put],
                         ids=["profile-store", "nondet-store"])
def test_forked_writers_use_distinct_temp_files(tmp_path, monkeypatch,
                                                make_put):
    # Forked shards and side-by-side campaigns share one cache
    # directory, and a forked process keeps its parent's thread ident:
    # the temp name must still tell the two writers apart.
    put = make_put(str(tmp_path))
    temps = []
    real_replace = os.replace

    def recording_replace(src, dst):
        temps.append(src)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports via the pipe
        try:
            put()
            os.write(write_fd, temps[-1].encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        child_temp = pipe.read()
    os.waitpid(pid, 0)
    put()
    assert child_temp and child_temp != temps[-1]


class TestCampaignMarkdown:
    @pytest.fixture(scope="class")
    def campaign(self):
        config = CampaignConfig(machine=MachineConfig(bugs=linux_5_13()),
                                corpus=seed_list())
        return Kit(config).run()

    def test_contains_summary_and_groups(self, campaign):
        text = campaign_markdown(campaign)
        assert "## Summary" in text
        assert "## Groups" in text
        assert "AGG-RS" in text

    def test_every_group_has_a_section(self, campaign):
        text = campaign_markdown(campaign)
        assert text.count("### Group ") == campaign.groups.agg_rs_count

    def test_reports_include_programs(self, campaign):
        text = campaign_markdown(campaign)
        assert "# sender" in text and "# receiver" in text

    def test_save_writes_file(self, campaign, tmp_path):
        path = str(tmp_path / "report.md")
        save_campaign_markdown(campaign, path, title="Nightly")
        with open(path) as handle:
            assert handle.read().startswith("# Nightly")


class TestSurfaceDocs:
    def test_every_declared_syscall_documented(self):
        text = surface_markdown()
        for name in DECLS.names():
            assert f"| `{name}` |" in text

    def test_signature_format(self):
        decl = DECLS.get("bind")
        signature = describe_syscall(decl)
        assert signature.startswith("bind(fd: fd<sock>")

    def test_producers_show_return_kind(self):
        assert describe_syscall(DECLS.get("socket")).endswith("-> sock")

    def test_resource_kinds_cross_referenced(self):
        text = surface_markdown()
        assert "- `sock`: produced by" in text

    def test_checked_in_copy_is_current(self):
        """docs/SYSCALLS.md must match the registry (regenerate via
        `kit-repro syscalls --output docs/SYSCALLS.md`)."""
        here = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        path = os.path.join(here, "docs", "SYSCALLS.md")
        with open(path) as handle:
            assert handle.read() == surface_markdown()
