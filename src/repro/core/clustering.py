"""Test case clustering strategies (paper §4.1.2, §6.3).

"KIT clusters test cases that may trigger similar namespace behavior …
If two test cases can cause similar inter-container kernel data flows,
they are likely to trigger the same functional interference bug."

Two heuristics, as in the paper, plus the two baselines of Table 4:

* **DF-IA** — flows with the same write and read *instruction addresses*
  are similar.
* **DF-ST-k** — DF-IA plus the call-stack context of both instructions,
  with the stack depth limited to *k* frames "to avoid cluster
  explosion".
* **DF** — no clustering: every distinct flow is its own cluster (the
  234M-row baseline).
* **RAND** — no data-flow analysis at all; random program pairs (handled
  by the generator, not here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from .dataflow import AccessPoint


class ClusteringStrategy:
    """Projects a data flow's endpoints onto a cluster key."""

    name: str = "abstract"

    def write_key(self, point: AccessPoint) -> Hashable:
        raise NotImplementedError

    def read_key(self, point: AccessPoint) -> Hashable:
        raise NotImplementedError


class DfIaStrategy(ClusteringStrategy):
    """Same write/read instruction addresses => same cluster."""

    name = "df-ia"

    def write_key(self, point: AccessPoint) -> Hashable:
        return point.ip

    def read_key(self, point: AccessPoint) -> Hashable:
        return point.ip


@dataclass
class DfStStrategy(ClusteringStrategy):
    """DF-IA refined by the call-stack context, depth-limited to *depth*."""

    depth: int = 1

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("call stack depth must be >= 1")
        self.name = f"df-st-{self.depth}"

    def write_key(self, point: AccessPoint) -> Hashable:
        return (point.ip, point.stack_suffix(self.depth))

    def read_key(self, point: AccessPoint) -> Hashable:
        return (point.ip, point.stack_suffix(self.depth))


class DfFullStrategy(ClusteringStrategy):
    """No clustering: every distinct flow endpoint pair is unique."""

    name = "df"

    def write_key(self, point: AccessPoint) -> Hashable:
        return (point.prog_index, point.call_index, point.addr, point.ip,
                point.stack)

    def read_key(self, point: AccessPoint) -> Hashable:
        return (point.prog_index, point.call_index, point.addr, point.ip,
                point.stack)


def strategy_by_name(name: str) -> ClusteringStrategy:
    """Resolve a Table-4 strategy name (``df-ia``, ``df-st-2``, ``df``)."""
    normalized = name.lower()
    if normalized == "df-ia":
        return DfIaStrategy()
    if normalized.startswith("df-st-"):
        return DfStStrategy(depth=int(normalized.rsplit("-", 1)[1]))
    if normalized == "df":
        return DfFullStrategy()
    raise ValueError(f"unknown clustering strategy {name!r} "
                     "(rand is a generation mode, not a clustering strategy)")
