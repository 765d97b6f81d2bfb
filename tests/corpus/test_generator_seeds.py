"""Unit tests for the corpus generator and the seed programs."""

import pytest

from repro.corpus.generator import ProgramGenerator, build_corpus
from repro.corpus.program import ConstArg, ResultArg, TestProgram
from repro.corpus.seeds import seed_list, seed_programs
from repro.kernel import Kernel, linux_5_13
from repro.kernel.syscalls import DECLS
from repro.vm import Machine, MachineConfig


class TestGenerator:
    def test_deterministic_given_seed(self):
        first = [ProgramGenerator(seed=5).generate() for __ in range(10)]
        second = [ProgramGenerator(seed=5).generate() for __ in range(10)]
        assert first == second

    def test_different_seeds_differ(self):
        a = [ProgramGenerator(seed=1).generate() for __ in range(5)]
        b = [ProgramGenerator(seed=2).generate() for __ in range(5)]
        assert a != b

    def test_generated_calls_are_declared(self):
        generator = ProgramGenerator(seed=3)
        for __ in range(50):
            for call in generator.generate():
                assert call.name in DECLS

    def test_generated_arity_matches_decls(self):
        generator = ProgramGenerator(seed=4)
        for __ in range(50):
            for call in generator.generate():
                assert len(call.args) == len(DECLS.get(call.name).args)

    def test_result_references_point_backwards(self):
        generator = ProgramGenerator(seed=6)
        for __ in range(100):
            program = generator.generate()
            for index, call in enumerate(program.calls):
                for ref in call.references():
                    assert ref < index

    def test_result_references_point_at_compatible_producers(self):
        generator = ProgramGenerator(seed=7)
        for __ in range(100):
            program = generator.generate()
            for call in program.calls:
                decl = DECLS.get(call.name)
                for spec, arg in zip(decl.args, call.args):
                    if spec.kind in ("fd", "res") and isinstance(arg, ResultArg):
                        producer = DECLS.get(program.calls[arg.index].name)
                        assert producer.ret_resource is not None

    def test_mutation_produces_valid_programs(self):
        generator = ProgramGenerator(seed=8)
        program = generator.generate(length=4)
        for __ in range(30):
            program = generator.mutate(program)
            for call in program.calls:
                if call is not None:
                    assert call.name in DECLS

    def test_explicit_length_respected(self):
        generator = ProgramGenerator(seed=9)
        # Resource synthesis may insert producer calls, so length is a floor.
        assert len(generator.generate(length=3)) >= 3


class TestBuildCorpus:
    def test_deterministic(self):
        assert build_corpus(50, seed=1) == build_corpus(50, seed=1)

    def test_contains_seeds_first(self):
        corpus = build_corpus(100, seed=1)
        seeds = seed_list()
        assert corpus[:len(seeds)] == seeds

    def test_no_duplicates(self):
        corpus = build_corpus(150, seed=2)
        assert len({p.hash_hex for p in corpus}) == len(corpus)

    def test_reaches_requested_size(self):
        assert len(build_corpus(200, seed=4)) == 200


class TestSeeds:
    def test_seed_names_are_unique_programs(self):
        seeds = seed_programs()
        hashes = [p.hash_hex for p in seeds.values()]
        assert len(set(hashes)) == len(hashes)

    def test_seed_coverage_of_bug_surfaces(self):
        seeds = seed_programs()
        for required in ("packet_socket", "read_ptype",
                         "flowlabel_register_exclusive", "flowlabel_send",
                         "flowlabel_connect", "rds_bind", "read_sockstat",
                         "read_protocols", "socket_cookie", "sctp_assoc",
                         "prio_set_user", "prio_get", "netdev_add",
                         "uevent_listen", "ipvs_add", "read_ip_vs",
                         "conntrack_max_write", "conntrack_max_read",
                         "tmp_write", "iouring_tmp_list"):
            assert required in seeds, required

    @pytest.mark.parametrize("name", sorted(seed_programs()))
    def test_every_seed_executes_without_harness_errors(self, name,
                                                        machine_513):
        """Seeds may return errnos but must never crash the executor."""
        machine_513.reset()
        result = machine_513.run("receiver", seed_programs()[name])
        assert len(result.records) == len(seed_programs()[name])

    def test_sender_side_seeds_succeed(self, machine_513):
        """The bug-trigger seeds must actually succeed syscall-by-syscall."""
        seeds = seed_programs()
        for name in ("packet_socket", "flowlabel_register_exclusive",
                     "rds_bind", "tcp_socket", "socket_cookie", "sctp_assoc",
                     "netdev_add", "ipvs_add", "conntrack_max_write",
                     "msgq_stat", "crypto_take_ref"):
            machine_513.reset()
            result = machine_513.run("sender", seeds[name])
            for record in result.live_records():
                assert record.ok, (name, record)
