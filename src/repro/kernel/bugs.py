"""The injected-bug registry.

Every functional interference bug the paper reports (Table 2), reproduces
(Table 3), or declares out of reach (§6.2) is modelled as a boolean flag
that switches a specific kernel code path between its vulnerable and its
patched form.  The flag placements mirror each bug's documented root
cause — see the docstrings in the subsystem modules.

Presets bundle the flags into "kernel versions":

* :func:`linux_5_13` — the paper's main target: all nine Table-2 bugs.
  (Documented 5.13 bugs such as D/F are disabled, mirroring §5.2's
  container tuning that keeps known interference out of new-bug runs.)
* :func:`known_bug_kernel` — one historical kernel per Table-3 row.
* :func:`fixed_kernel` — everything patched; the true-negative baseline.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple


@dataclass(frozen=True)
class BugFlags:
    """One boolean per modelled bug; all False = fully patched kernel."""

    # -- Table 2: new bugs found by KIT in Linux 5.13 ----------------------
    #: #1 — /proc/net/ptype shows packet_type of other namespaces.
    ptype_leak: bool = False
    #: #2/#4 — ipv6_flowlabel_exclusive static key is global.
    flowlabel_exclusive_global: bool = False
    #: #3 — RDS bind table keyed without the namespace.
    rds_bind_global: bool = False
    #: #5 — /proc/net/sockstat 'sockets: used' counter is global.
    sockstat_used_global: bool = False
    #: #6 — socket cookie allocator is global.
    socket_cookie_global: bool = False
    #: #7 — SCTP association ID space is global.
    sctp_assoc_id_global: bool = False
    #: #8/#9 — per-protocol memory accounting is global (sockstat mem /
    #: /proc/net/protocols memory).
    proto_mem_global: bool = False

    # -- Table 3: known historical bugs ------------------------------------
    #: A — setpriority(PRIO_USER) crosses PID namespaces (Linux 4.4).
    prio_user_crosses_pidns: bool = False
    #: B — netdev queue uevents broadcast to all namespaces (Linux 3.14).
    uevent_broadcast_all_ns: bool = False
    #: C — /proc/net/ip_vs dumps services of all namespaces (Linux 4.15).
    ipvs_proc_no_ns_check: bool = False
    #: D — nf_conntrack_max sysctl is global (Linux 5.13, CVE-2021-38209).
    conntrack_max_global: bool = False
    #: E — io_uring resolves paths in the init mount ns (5.6, CVE-2020-29373).
    iouring_wrong_mnt_ns: bool = False

    # -- §6.2: bugs functional interference testing cannot detect ----------
    #: F — /proc/net/nf_conntrack dumps other namespaces' entries, but the
    #: file is non-deterministic even without interference.
    conntrack_proc_leak: bool = False
    #: G — unix sock_diag matches sockets of any namespace, but detection
    #: needs the sender's runtime-allocated inode.
    unix_diag_cross_ns: bool = False

    # -- §2.1: historical motivation --------------------------------------
    #: msgctl(IPC_STAT) reports raw global PIDs across PID namespaces.
    msg_stat_global_pid: bool = False

    # -- race-only bugs (§7 concurrency extension) -------------------------
    # Each perturbs global state *within one syscall* and restores it
    # before returning: the two-phase (sequential) pipeline can never
    # observe the window, only a controlled interleaving can
    # (docs/SCHEDULING.md).
    #: T1 — in-flight send memory charged to a global counter and
    #: released before sendto returns; /proc/net/sockstat's FRAG line
    #: exposes the transient value to other namespaces.
    frag_inflight_global: bool = False
    #: T2 — msgget publishes the new queue into a global pending table
    #: before binding it to the namespace (the ipc_addid early-publish
    #: pattern); /proc/sysvipc/msg lists the half-initialized entry.
    msg_pending_global: bool = False
    #: T3 — register_netdev publishes the device name into a global
    #: pending-registration table until registration commits;
    #: /proc/net/dev lists in-flight registrations of every namespace.
    netdev_pending_global: bool = False

    def enabled(self) -> List[str]:
        return [f.name for f in dataclasses.fields(self) if getattr(self, f.name)]

    def copy(self, **overrides: bool) -> "BugFlags":
        return dataclasses.replace(self, **overrides)


@dataclass(frozen=True)
class BugSpec:
    """Shared metadata for one injected bug: a stable id, the canonical
    kernel-state location it corrupts (in the static analyzer's lattice,
    see docs/ANALYSIS.md), and whether the static escape lint is
    expected to rediscover it.

    ``table_refs`` ties the flag back to the paper's numbering: Table-2
    bug numbers and/or Table-3 row letters ("H" is the §2.1 msgctl
    motivation, reported in prose only).
    """

    flag: str
    state_path: str
    table_refs: Tuple[str, ...]
    #: False only for value-level bugs: the buggy and patched kernels
    #: have identical access *sets* and differ in the value written
    #: (e.g. a raw global PID instead of a translated one), which no
    #: access-set analysis can distinguish.
    statically_detectable: bool = True


#: One spec per flag; ids are the flag names (stable across releases).
BUG_SPECS: Tuple[BugSpec, ...] = (
    BugSpec("ptype_leak", "kernel.ptype.ptype_all", ("1",)),
    BugSpec("flowlabel_exclusive_global",
            "kernel.flowlabel.exclusive_global", ("2", "4")),
    BugSpec("rds_bind_global", "kernel.rds.global_binds", ("3",)),
    BugSpec("sockstat_used_global", "kernel.net.sockets_used_global", ("5",)),
    BugSpec("socket_cookie_global", "kernel.net.cookie_next_global", ("6",)),
    BugSpec("sctp_assoc_id_global", "kernel.sctp.assoc_next_global", ("7",)),
    BugSpec("proto_mem_global", "kernel.net.proto_mem_global", ("8", "9")),
    BugSpec("prio_user_crosses_pidns", "kernel.tasks", ("A",)),
    BugSpec("uevent_broadcast_all_ns", "ns:net.uevent_queue", ("B",)),
    BugSpec("ipvs_proc_no_ns_check", "kernel.ipvs.services", ("C",)),
    BugSpec("conntrack_max_global", "kernel.conntrack.global_max", ("D",)),
    BugSpec("iouring_wrong_mnt_ns", "kernel.init_mnt_ns", ("E",)),
    BugSpec("conntrack_proc_leak", "kernel.conntrack.entries", ("F",)),
    BugSpec("unix_diag_cross_ns", "kernel.net.unix.by_ino", ("G",)),
    BugSpec("msg_stat_global_pid", "kernel.tasks", ("H",),
            statically_detectable=False),
    BugSpec("frag_inflight_global", "kernel.net.frag_inflight_global",
            ("T1",)),
    BugSpec("msg_pending_global", "kernel.ipc.msg_pending_global", ("T2",)),
    BugSpec("netdev_pending_global", "kernel.netdev.pending_global", ("T3",)),
)


def bug_spec(flag: str) -> BugSpec:
    for spec in BUG_SPECS:
        if spec.flag == flag:
            return spec
    raise KeyError(flag)


#: Paper bug number -> (flag, short description, resource column of Table 2).
TABLE2_BUGS: Dict[int, Tuple[str, str, str]] = {
    1: ("ptype_leak", "Read /proc/net/ptype shows ptype from other ns", "ptype"),
    2: ("flowlabel_exclusive_global", "Transmit with unregistered flow label fails",
        "IPv6 / flow label"),
    3: ("rds_bind_global", "RDS bind fails across namespaces", "RDS / address"),
    4: ("flowlabel_exclusive_global", "Connect with unregistered flow label fails",
        "IPv6 / flow label"),
    5: ("sockstat_used_global", "Counter in /proc/net/sockstat increases",
        "proto / socket"),
    6: ("socket_cookie_global", "Socket cookie changes", "socket / cookie"),
    7: ("sctp_assoc_id_global", "SCTP association ID changes", "SCTP / assoc_id"),
    8: ("proto_mem_global", "mem counter in /proc/net/sockstat increases",
        "proto / memory"),
    9: ("proto_mem_global", "memory counter in /proc/net/protocols increases",
        "proto / memory"),
}

#: Table 3 row -> (flag, kernel version, namespace).
TABLE3_BUGS: Dict[str, Tuple[str, str, str]] = {
    "A": ("prio_user_crosses_pidns", "4.4", "pid"),
    "B": ("uevent_broadcast_all_ns", "3.14", "net"),
    "C": ("ipvs_proc_no_ns_check", "4.15", "net"),
    "D": ("conntrack_max_global", "5.13", "net"),
    "E": ("iouring_wrong_mnt_ns", "5.6", "mnt"),
    # §6.2 non-detectable rows (not in Table 3, reported in prose):
    "F": ("conntrack_proc_leak", "4.9", "net"),
    "G": ("unix_diag_cross_ns", "4.13", "net"),
}

#: Race-only bug label -> (flag, short description, observing file).
#: These are invisible to sequential two-phase execution by
#: construction; see docs/SCHEDULING.md.
RACE_BUGS: Dict[str, Tuple[str, str, str]] = {
    "T1": ("frag_inflight_global",
           "Transient FRAG counter in /proc/net/sockstat visible cross-ns",
           "/proc/net/sockstat"),
    "T2": ("msg_pending_global",
           "Half-initialized msg queue listed in /proc/sysvipc/msg",
           "/proc/sysvipc/msg"),
    "T3": ("netdev_pending_global",
           "In-flight netdev registration listed in /proc/net/dev",
           "/proc/net/dev"),
}

#: The bug IDs the paper says plain random generation (RAND) still found.
RAND_DETECTABLE = {1, 2, 5, 7, 9}


def fixed_kernel() -> BugFlags:
    """A kernel with every modelled bug patched."""
    return BugFlags()


def linux_5_13() -> BugFlags:
    """Stable Linux 5.13 as KIT tested it: the nine Table-2 bugs present."""
    return BugFlags(
        ptype_leak=True,
        flowlabel_exclusive_global=True,
        rds_bind_global=True,
        sockstat_used_global=True,
        socket_cookie_global=True,
        sctp_assoc_id_global=True,
        proto_mem_global=True,
    )


def known_bug_kernel(bug_id: str) -> BugFlags:
    """The historical kernel containing exactly one Table-3/§6.2 bug."""
    flag, __, __ = TABLE3_BUGS[bug_id.upper()]
    return BugFlags(**{flag: True})


def race_kernel() -> BugFlags:
    """A kernel with every race-only (transient-window) bug present."""
    return BugFlags(**{flag: True for flag, __, __ in RACE_BUGS.values()})


def known_race_kernel(bug_id: str) -> BugFlags:
    """A kernel containing exactly one race-only bug (T1-T3)."""
    flag, __, __ = RACE_BUGS[bug_id.upper()]
    return BugFlags(**{flag: True})


def kernel_version_for(bug_id: str) -> str:
    return TABLE3_BUGS[bug_id.upper()][1]


def table2_flag_names() -> Iterable[str]:
    return sorted({flag for flag, __, __ in TABLE2_BUGS.values()})
