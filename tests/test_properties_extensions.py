"""Property-based tests for the extension modules (minimize, bounds,
schedules, persistence)."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import PathProfile
from repro.core.minimize import dependency_closure, prefix_through, reduce_to
from repro.core.schedule import (
    ALL_STRATEGIES,
    GRANULARITY_KFUNC,
    GRANULARITY_SYSCALL,
    SEQUENTIAL,
    STRATEGY_RANDOM,
    STRATEGY_SYSTEMATIC,
    ScheduleId,
    SchedulePolicy,
    schedule_points,
)
from repro.core.trace_ast import TraceNode
from repro.corpus.program import Call, ConstArg, ResultArg, TestProgram

# -- program strategies -----------------------------------------------------

_names = st.text(alphabet=string.ascii_lowercase + "_", min_size=1, max_size=8)


@st.composite
def programs_with_refs(draw):
    length = draw(st.integers(min_value=1, max_value=10))
    calls = []
    for index in range(length):
        arity = draw(st.integers(0, 3))
        args = []
        for __ in range(arity):
            if index > 0 and draw(st.booleans()):
                args.append(ResultArg(draw(st.integers(0, index - 1))))
            else:
                args.append(ConstArg(draw(st.integers(0, 100))))
        calls.append(Call(draw(_names), tuple(args)))
    return TestProgram(calls)


class TestClosureProperties:
    @given(programs_with_refs(), st.data())
    def test_closure_contains_keep(self, program, data):
        keep = data.draw(st.sets(st.integers(0, len(program) - 1), min_size=1))
        assert set(keep) <= dependency_closure(program, keep)

    @given(programs_with_refs(), st.data())
    def test_closure_is_closed_under_references(self, program, data):
        keep = data.draw(st.sets(st.integers(0, len(program) - 1), min_size=1))
        closure = dependency_closure(program, keep)
        for index in closure:
            call = program.calls[index]
            if call is not None:
                assert set(call.references()) <= closure

    @given(programs_with_refs(), st.data())
    def test_closure_is_monotone(self, program, data):
        small = data.draw(st.sets(st.integers(0, len(program) - 1), min_size=1))
        extra = data.draw(st.sets(st.integers(0, len(program) - 1)))
        assert dependency_closure(program, small) <= \
            dependency_closure(program, small | extra)

    @given(programs_with_refs(), st.data())
    def test_reduce_to_keeps_exactly_the_closure(self, program, data):
        keep = data.draw(st.sets(st.integers(0, len(program) - 1), min_size=1))
        reduced = reduce_to(program, keep)
        assert set(reduced.live_call_indices()) == \
            dependency_closure(program, keep)

    @given(programs_with_refs(), st.integers(0, 9))
    def test_prefix_through_is_a_prefix(self, program, last):
        last = min(last, len(program) - 1)
        reduced = prefix_through(program, last)
        assert all(index <= last for index in reduced.live_call_indices())
        for index in range(last + 1):
            assert reduced.calls[index] == program.calls[index]


class TestBoundsProperties:
    _leaf_values = st.one_of(
        st.integers(-10**6, 10**6).map(str),
        st.floats(allow_nan=False, allow_infinity=False,
                  min_value=-1e6, max_value=1e6).map(str),
        st.text(alphabet=string.ascii_letters, min_size=1, max_size=10),
    )

    @given(st.lists(_leaf_values, min_size=1, max_size=10),
           st.floats(min_value=0.0, max_value=1.0))
    def test_observed_values_never_violate(self, values, margin):
        """The defining soundness property: anything the profile has seen
        is inside the envelope, at any non-negative margin."""
        profile = PathProfile()
        for value in values:
            profile.observe(TraceNode("x", value))
        for value in values:
            assert not profile.violates(TraceNode("x", value), margin)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=8))
    def test_observed_child_counts_never_violate(self, counts):
        profile = PathProfile()
        nodes = []
        for count in counts:
            node = TraceNode("x", "x")
            node.children = [TraceNode("c", "c") for __ in range(count)]
            nodes.append(node)
            profile.observe(node)
        for node in nodes:
            assert not profile.violates(node, margin=0.0)

    @given(st.lists(st.integers(-100, 100).map(str), min_size=2,
                    max_size=10))
    def test_wider_margin_never_adds_violations(self, values):
        profile = PathProfile()
        for value in values[:-1]:
            profile.observe(TraceNode("x", value))
        probe = TraceNode("x", values[-1])
        if not profile.violates(probe, margin=0.1):
            assert not profile.violates(probe, margin=0.5)


class TestScheduleProperties:
    _ids = st.builds(ScheduleId, strategy=st.sampled_from(ALL_STRATEGIES),
                     granularity=st.sampled_from(
                         (GRANULARITY_KFUNC, GRANULARITY_SYSCALL)),
                     seed=st.integers(0, 99), depth=st.integers(1, 4),
                     index=st.integers(0, 40))

    @given(st.integers(0, 50))
    def test_sequential_counts(self, horizon):
        sequential = ScheduleId.parse(SEQUENTIAL)
        assert sequential.encode() == SEQUENTIAL
        assert schedule_points(sequential, horizon) == frozenset()

    @given(_ids, st.integers(1, 12))
    def test_round_robin_counts(self, schedule, horizon):
        assert ScheduleId.parse(schedule.encode()) == schedule
        points = schedule_points(schedule, horizon)
        if points is None:  # past the systematic enumeration
            assert schedule.strategy == STRATEGY_SYSTEMATIC
            return
        assert points <= frozenset(range(1, horizon + 1))
        assert points == schedule_points(schedule, horizon)
        if schedule.strategy != STRATEGY_RANDOM:
            assert 1 <= len(points) <= schedule.depth

    @given(st.sampled_from(ALL_STRATEGIES), st.integers(1, 30),
           st.integers(1, 4), st.integers(1, 12))
    def test_default_set_valid_and_unique(self, strategy, budget, depth,
                                          horizon):
        policy = SchedulePolicy(strategy=strategy, budget=budget,
                                depth=depth)
        chosen = policy.schedule_ids(horizon)
        point_sets = [points for __, points in chosen]
        assert len(chosen) <= budget
        assert len(set(point_sets)) == len(point_sets)
        assert frozenset() not in point_sets
        for schedule, points in chosen:
            # The replay contract: the id alone re-derives the points.
            assert schedule_points(schedule, horizon) == points
            assert points <= frozenset(range(1, horizon + 1))
