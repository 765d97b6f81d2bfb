"""Shared fixtures and helpers for the KIT reproduction test suite."""

from __future__ import annotations

import pytest

from repro.core.known_bugs import SCENARIOS, scenario_machine_config
from repro.kernel import Kernel, KernelConfig, fixed_kernel, linux_5_13
from repro.kernel.bugs import race_kernel
from repro.kernel.errno import SyscallError
from repro.kernel.namespaces import ALL_NAMESPACE_FLAGS
from repro.vm import Machine, MachineConfig


class SyscallHarness:
    """Terse syscall invocation against a kernel, errno-aware."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel

    def __call__(self, task, name, *args):
        """Invoke; returns (retval, details); errors return (-errno, {})."""
        try:
            result = self.kernel.syscall(task, name, list(args))
            return result.retval, result.details
        except SyscallError as error:
            return -error.errno, {}

    def must(self, task, name, *args):
        """Invoke; raises on errno; returns (retval, details)."""
        result = self.kernel.syscall(task, name, list(args))
        return result.retval, result.details


@pytest.fixture
def kernel_fixed() -> Kernel:
    """A fully-patched kernel."""
    return Kernel(bugs=fixed_kernel())


@pytest.fixture
def kernel_513() -> Kernel:
    """Linux 5.13 with the nine Table-2 bugs."""
    return Kernel(bugs=linux_5_13())


@pytest.fixture
def two_containers(kernel_513):
    """(kernel, sender_task, receiver_task), each fully unshared."""
    sender = kernel_513.spawn_task(comm="sender")
    receiver = kernel_513.spawn_task(comm="receiver")
    kernel_513.unshare(sender, ALL_NAMESPACE_FLAGS)
    kernel_513.unshare(receiver, ALL_NAMESPACE_FLAGS)
    return kernel_513, sender, receiver


@pytest.fixture
def two_containers_fixed(kernel_fixed):
    sender = kernel_fixed.spawn_task(comm="sender")
    receiver = kernel_fixed.spawn_task(comm="receiver")
    kernel_fixed.unshare(sender, ALL_NAMESPACE_FLAGS)
    kernel_fixed.unshare(receiver, ALL_NAMESPACE_FLAGS)
    return kernel_fixed, sender, receiver


@pytest.fixture
def sc(kernel_513) -> SyscallHarness:
    return SyscallHarness(kernel_513)


@pytest.fixture(scope="session")
def machine_513() -> Machine:
    """Session-shared buggy machine; tests must reset() before use."""
    return Machine(MachineConfig(bugs=linux_5_13()))


@pytest.fixture(scope="session")
def machine_fixed() -> Machine:
    """Session-shared patched machine; tests must reset() before use."""
    return Machine(MachineConfig(bugs=fixed_kernel()))


#: The 5.13 target, the patched and race-only kernels, and the
#: known-bug machines A–G (Table 3 and §6.2).
PRESETS = {"5.13": linux_5_13, "fixed": fixed_kernel, "race": race_kernel}


@pytest.fixture(params=[*PRESETS, *sorted(SCENARIOS)])
def preset_config(request) -> MachineConfig:
    """The machine config of each kernel preset in turn."""
    if request.param in SCENARIOS:
        return scenario_machine_config(SCENARIOS[request.param])
    return MachineConfig(bugs=PRESETS[request.param]())
