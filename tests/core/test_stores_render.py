"""Tests for the per-program fact store, markdown rendering, and
surface docs."""

import hashlib
import json
import os
import pickle

import pytest

from repro.core.factstore import FactStore, machine_fingerprint
from repro.core.nondet import NondetAnalyzer, NondetStore
from repro.core.pipeline import CampaignConfig, Kit
from repro.core.profile import Profiler
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


def _facts(directory):
    config = MachineConfig(bugs=linux_5_13())
    return FactStore(directory, machine_fingerprint(config))


def _profiler(directory):
    return Profiler(Machine(MachineConfig(bugs=linux_5_13())),
                    _facts(directory))


def _entry_path(root, program, kind):
    fingerprint = machine_fingerprint(MachineConfig(bugs=linux_5_13()))
    return os.path.join(str(root), fingerprint, program.hash_hex[:2],
                        f"{program.hash_hex}.{kind}")


class TestProfileStore:
    def test_cache_roundtrip(self, tmp_path):
        profiler = _profiler(str(tmp_path))
        program = seed_programs()["tcp_socket"]
        first = profiler.profile(program)
        assert profiler.store.misses == 1
        second = profiler.profile(program)
        assert profiler.store.hits == 1
        assert second == first

    def test_cached_profile_skips_runs(self, tmp_path):
        _profiler(str(tmp_path)).profile_corpus(seed_list()[:5])
        fresh = _profiler(str(tmp_path))
        fresh.profile_corpus(seed_list()[:5])
        assert fresh.runs_executed == 0

    def test_index_is_restamped(self, tmp_path):
        profiler = _profiler(str(tmp_path))
        program = seed_programs()["tcp_socket"]
        profiler.profile(program, index=0)
        cached = profiler.profile(program, index=7)
        assert cached.index == 7

    def test_corrupted_entry_reprofiled(self, tmp_path):
        profiler = _profiler(str(tmp_path))
        program = seed_programs()["tcp_socket"]
        profiler.profile(program)
        with open(_entry_path(tmp_path, program, "profile"), "wb") as handle:
            handle.write(b"garbage")
        profile = _profiler(str(tmp_path)).profile(program)
        assert profile.sender.total_accesses() > 0

    def test_pipeline_integration(self, tmp_path):
        base = dict(machine=MachineConfig(bugs=linux_5_13()),
                    corpus=seed_list()[:10], cache_dir=str(tmp_path))
        first = Kit(CampaignConfig(**base)).run()
        second = Kit(CampaignConfig(**base)).run()
        assert first.stats.profile_runs > 0
        assert second.stats.profile_runs == 0
        assert second.stats.nondet_runs == 0
        assert first.bugs_found() == second.bugs_found()


#: A seed whose receiver has non-det marks, so both kinds hold a
#: non-empty fact.
_PROGRAM = "read_uptime"


def _profile_fact(directory):
    profiler = _profiler(directory)
    return profiler.profile(seed_programs()[_PROGRAM]), profiler


def _nondet_fact(directory):
    analyzer = NondetAnalyzer(Machine(MachineConfig(bugs=linux_5_13())),
                              NondetStore(_facts(directory)))
    return analyzer.nondet_paths(seed_programs()[_PROGRAM]), analyzer


_FACT_KINDS = {"profile": _profile_fact, "nondet": _nondet_fact}


def _truncate(data):
    return data[:len(data) // 2]


def _flip_middle_bit(data):
    middle = len(data) // 2
    return data[:middle] + bytes([data[middle] ^ 0x01]) + data[middle + 1:]


def _repeat_middle_run(data):
    # A splice whose every byte still comes from the valid entry.
    middle = len(data) // 2
    return data[:middle] + data[middle - 64:]


def _valid_digest_over(payload):
    """A well-formed entry whose payload no decoder accepts."""
    def damage(_data):
        return hashlib.sha256(payload).digest() + payload
    return damage


@pytest.mark.parametrize("damage", [
    _truncate, _flip_middle_bit, _repeat_middle_run,
    _valid_digest_over(b"[[0, 1], [2"),
    _valid_digest_over(b'{"ab": 1}'),
    _valid_digest_over(b'"xy"'),
    _valid_digest_over(b'[[0, "2"]]'),
    _valid_digest_over(b"[[true]]"),
    _valid_digest_over(b"[" * 100_000),
], ids=["truncate", "bit-flip", "splice", "torn-json", "object", "string",
        "string-step", "bool-step", "deep-nesting"])
@pytest.mark.parametrize("kind", sorted(_FACT_KINDS))
def test_damaged_entry_reads_as_miss(tmp_path, kind, damage):
    """Every kind shares one rule: a damaged entry is a miss, never a
    verdict, and the recomputed fact rewrites it."""
    compute = _FACT_KINDS[kind]
    clean, cold = compute(str(tmp_path))
    victim = _entry_path(tmp_path, seed_programs()[_PROGRAM], kind)
    with open(victim, "rb") as handle:
        data = handle.read()
    with open(victim, "wb") as handle:
        handle.write(damage(data))
    fact, fresh = compute(str(tmp_path))
    assert (fresh.store.hits, fresh.store.misses) == (0, 1)
    assert fact == clean
    assert fresh.runs_executed == cold.runs_executed > 0
    fact, warm = compute(str(tmp_path))
    assert (warm.store.hits, warm.store.misses) == (1, 0)
    assert fact == clean and warm.runs_executed == 0


def test_entries_in_the_pickle_layout_read_as_misses(tmp_path):
    """Cache directories written before the fact store read as misses:
    a digest plus pickle at ``<fp>/<ab>/<hash>.profile`` and a flat
    ``<hash>.nondet.json``."""
    program = seed_programs()[_PROGRAM]
    blob = pickle.dumps(Profiler(Machine(MachineConfig(
        bugs=linux_5_13()))).profile(program))
    victim = _entry_path(tmp_path, program, "profile")
    os.makedirs(os.path.dirname(victim))
    with open(victim, "wb") as handle:
        handle.write(hashlib.sha256(blob).digest() + blob)
    with open(tmp_path / f"{program.hash_hex}.nondet.json", "w") as handle:
        json.dump([[0]], handle)
    for kind, compute in sorted(_FACT_KINDS.items()):
        clean, __ = compute(str(tmp_path / "cold"))
        fact, fresh = compute(str(tmp_path))
        assert (fresh.store.hits, fresh.store.misses) == (0, 1), kind
        assert fact == clean and fresh.runs_executed > 0, kind


def _profile_store_put(directory):
    profiler = _profiler(directory)
    program = seed_programs()["tcp_socket"]
    profile = profiler.profile(program)
    return lambda: profiler.store.put(
        program.hash_hex, "profile",
        {"sender": profile.sender.to_json(),
         "receiver": profile.receiver.to_json()})


def _nondet_store_put(directory):
    store = NondetStore(_facts(directory))
    return lambda: store.put("prog-hash", frozenset({("pread64", 0)}))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("make_put", [_profile_store_put, _nondet_store_put],
                         ids=["profile-store", "nondet-store"])
def test_forked_writers_use_distinct_temp_files(tmp_path, monkeypatch,
                                                make_put):
    # Forked shards and side-by-side campaigns share one cache
    # directory, and a forked process keeps its parent's thread ident:
    # the temp name must still tell the two writers apart.  Both kinds
    # reach disk through FactStore.put.
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
