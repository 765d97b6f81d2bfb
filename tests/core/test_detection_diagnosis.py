"""Unit tests for detection (§4.3) and diagnosis (Algorithm 2, §4.4)."""

import pytest

from repro.core.detection import Detector, Outcome
from repro.core.diagnosis import Diagnoser
from repro.core.generation import TestCase
from repro.core.spec import default_specification
from repro.corpus.program import prog
from repro.corpus.seeds import seed_programs
from repro.kernel import fixed_kernel, known_bug_kernel, linux_5_13
from repro.vm import Machine, MachineConfig


@pytest.fixture(scope="module")
def detector_513():
    machine = Machine(MachineConfig(bugs=linux_5_13()))
    return Detector(machine, default_specification())


@pytest.fixture(scope="module")
def detector_fixed():
    machine = Machine(MachineConfig(bugs=fixed_kernel()))
    return Detector(machine, default_specification())


def case(sender, receiver):
    return TestCase(0, 1, sender, receiver)


def seed_case(sender_name, receiver_name):
    seeds = seed_programs()
    return case(seeds[sender_name], seeds[receiver_name])


class TestDetectionOutcomes:
    def test_no_interference_passes(self, detector_513):
        result = detector_513.check_case(seed_case("get_hostname", "read_ptype"))
        assert result.outcome is Outcome.PASS

    def test_bug1_reported(self, detector_513):
        result = detector_513.check_case(seed_case("packet_socket", "read_ptype"))
        assert result.outcome is Outcome.REPORT
        assert result.report.interfered_indices == [1]

    def test_bug2_reported(self, detector_513):
        result = detector_513.check_case(
            seed_case("flowlabel_register_exclusive", "flowlabel_send"))
        assert result.outcome is Outcome.REPORT

    def test_bug3_reported(self, detector_513):
        result = detector_513.check_case(seed_case("rds_bind", "rds_bind"))
        assert result.outcome is Outcome.REPORT

    def test_bug5_and_8_reported(self, detector_513):
        result = detector_513.check_case(seed_case("udp_send", "read_sockstat"))
        assert result.outcome is Outcome.REPORT

    def test_bug6_reported(self, detector_513):
        result = detector_513.check_case(
            seed_case("socket_cookie", "socket_cookie"))
        assert result.outcome is Outcome.REPORT

    def test_fixed_kernel_reports_nothing(self, detector_fixed):
        for sender, receiver in (
            ("packet_socket", "read_ptype"),
            ("flowlabel_register_exclusive", "flowlabel_send"),
            ("rds_bind", "rds_bind"),
            ("tcp_socket", "read_sockstat"),
            ("socket_cookie", "socket_cookie"),
            ("sctp_assoc", "sctp_assoc"),
            ("udp_send", "read_protocols"),
        ):
            result = detector_fixed.check_case(seed_case(sender, receiver))
            assert result.outcome is Outcome.PASS, (sender, receiver)

    def test_nondet_divergence_filtered(self, detector_513):
        """stat of a proc file diverges only in clock-driven fields once a
        sender has run (time advanced) — the filter must absorb it."""
        result = detector_513.check_case(seed_case("tcp_socket", "stat_proc"))
        assert result.outcome in (Outcome.PASS, Outcome.FILTERED_NONDET)

    def test_unprotected_divergence_filtered(self, detector_513):
        result = detector_513.check_case(seed_case("crypto_take_ref",
                                                   "read_crypto"))
        assert result.outcome is Outcome.FILTERED_RESOURCE

    def test_bug_f_masked_by_nondet_filter(self):
        machine = Machine(MachineConfig(bugs=known_bug_kernel("F")))
        detector = Detector(machine, default_specification())
        result = detector.check_case(seed_case("udp_send", "read_nf_conntrack"))
        assert result.outcome is Outcome.FILTERED_NONDET
        assert result.raw_diff_count > 0

    def test_report_carries_trace_evidence(self, detector_513):
        result = detector_513.check_case(seed_case("packet_socket", "read_ptype"))
        report = result.report
        assert report.diffs
        assert report.sender_records and report.receiver_with_records
        rendered = report.render()
        assert "sender program" in rendered
        assert "interfered receiver calls" in rendered

    def test_interference_set_matches_check_case(self, detector_513):
        seeds = seed_programs()
        indices = detector_513.interference_set(seeds["packet_socket"],
                                                seeds["read_ptype"])
        assert indices == {1}

    def test_baseline_caching_reduces_runs(self, detector_513):
        baselines = detector_513.runner.baselines
        hits, misses = baselines.hits, baselines.misses
        detector_513.check_case(seed_case("packet_socket", "read_ptype"))
        detector_513.check_case(seed_case("packet_socket_ip", "read_ptype"))
        # Two cases, but the receiver-alone baseline is shared: at most
        # the first computes it, and the second is served.
        assert baselines.misses <= misses + 1
        assert baselines.hits >= hits + 1


class TestDiagnosis:
    def test_culprit_pair_identified(self, detector_513):
        result = detector_513.check_case(seed_case("packet_socket", "read_ptype"))
        culprits = Diagnoser(detector_513).diagnose(result.report)
        assert len(culprits) == 1
        assert culprits[0].sender_index == 0  # the socket() call
        assert culprits[0].receiver_index == 1  # the pread64

    def test_culprit_among_noise_calls(self, detector_513):
        """Only the packet socket call is responsible; getpid noise is not."""
        seeds = seed_programs()
        noisy_sender = prog(("getpid",),).concatenate(
            seeds["packet_socket"]).concatenate(prog(("gethostname",),))
        result = detector_513.check_case(case(noisy_sender, seeds["read_ptype"]))
        culprits = Diagnoser(detector_513).diagnose(result.report)
        assert [c.sender_index for c in culprits] == [1]

    def test_first_interfered_receiver_call_reported(self, detector_513):
        """Dependent downstream divergence collapses onto the first call."""
        seeds = seed_programs()
        result = detector_513.check_case(
            seed_case("flowlabel_register_exclusive", "flowlabel_send"))
        culprits = Diagnoser(detector_513).diagnose(result.report)
        assert culprits
        assert culprits[0].receiver_index == min(result.report.interfered_indices)

    def test_two_independent_culprits(self, detector_513):
        """A sender triggering two unrelated bugs yields two culprit pairs:
        the packet socket (bug #1) and the exclusive-label registration
        (bug #2) each mask a different receiver divergence."""
        seeds = seed_programs()
        sender = seeds["packet_socket"].concatenate(
            seeds["flowlabel_register_exclusive"])
        receiver = seeds["read_ptype"].concatenate(seeds["flowlabel_send"])
        result = detector_513.check_case(case(sender, receiver))
        culprits = Diagnoser(detector_513).diagnose(result.report)
        assert len(culprits) == 2
        sender_indices = {c.sender_index for c in culprits}
        assert sender_indices == {0, 2}  # socket(AF_PACKET) and setsockopt

    def test_one_call_explaining_all_divergence_is_single_culprit(self,
                                                                  detector_513):
        """Two divergent receiver calls, one root cause: a packet socket
        moves both the ptype list (bug #1) and the global socket counter
        (bug #5), so Algorithm 2 must attribute both to one sender call."""
        seeds = seed_programs()
        sender = seeds["packet_socket"].concatenate(seeds["tcp_socket"])
        receiver = seeds["read_ptype"].concatenate(seeds["read_sockstat"])
        result = detector_513.check_case(case(sender, receiver))
        culprits = Diagnoser(detector_513).diagnose(result.report)
        assert [c.sender_index for c in culprits] == [0]

    def test_diagnosis_rerun_accounting(self, detector_513):
        result = detector_513.check_case(seed_case("packet_socket", "read_ptype"))
        diagnoser = Diagnoser(detector_513)
        diagnoser.diagnose(result.report)
        assert diagnoser.reruns >= 1

    def test_report_culprits_stored_on_report(self, detector_513):
        result = detector_513.check_case(seed_case("packet_socket", "read_ptype"))
        report = result.report
        Diagnoser(detector_513).diagnose(report)
        assert report.culprit_pairs
