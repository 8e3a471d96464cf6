"""Match-action pipeline structure.

Paper section 2: "PISA defines two main parts to packet processing …
a pipeline of match-and-action stages.  The small (~10 MB) switch memory
is split between pipeline stages."

This module gives programs an explicit stage structure:

* a :class:`Stage` owns the stateful objects placed in it and a handler
  run when a packet traverses it;
* a :class:`Pipeline` is a bounded sequence of stages (hardware has a
  fixed stage count) that charges each stage's objects against an equal
  share of the switch memory — the "split between stages" constraint;
* :meth:`Pipeline.as_handler` adapts the pipeline to the switch's
  handler interface.

Programs are free to skip this structure and install plain handlers
(most protocol engines do); the NFs use it so that their stage/memory
layout is explicit and testable.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from repro.net.packet import Packet
from repro.switch.memory import MemoryBudget, OutOfSwitchMemory
from repro.switch.objects import Counter, MatchTable, Meter, RegisterArray

if TYPE_CHECKING:  # pragma: no cover
    from repro.switch.pisa import PisaSwitch

__all__ = ["Stage", "Pipeline", "StageAction"]

#: Typical Tofino-class stage count.
DEFAULT_STAGE_COUNT = 12


class StageAction:
    """What a stage tells the pipeline to do next."""

    CONTINUE = "continue"  # proceed to the next stage
    CONSUME = "consume"    # packet fully handled (forwarded/dropped by stage)
    FALLTHROUGH = "fallthrough"  # stop the pipeline; let default forwarding run


class Stage:
    """One match-action stage: a memory share plus a packet handler."""

    def __init__(self, name: str, index: int, memory_share_bytes: int) -> None:
        self.name = name
        self.index = index
        self.memory = MemoryBudget(memory_share_bytes)
        self.handler: Optional[Callable[[Packet, str], str]] = None
        self.objects: Dict[str, Any] = {}
        self.packets_seen = 0

    # Object factories: allocate from *this stage's* share. --------------
    def register_array(self, name: str, size: int, width_bytes: int, initial: Any = 0) -> RegisterArray:
        obj = RegisterArray(name, size, width_bytes, self.memory, initial=initial)
        self.objects[name] = obj
        return obj

    def match_table(self, name: str, max_entries: int, key_bytes: int, value_bytes: int) -> MatchTable:
        obj = MatchTable(name, max_entries, key_bytes, value_bytes, self.memory)
        self.objects[name] = obj
        return obj

    def meter(self, name: str, size: int, rate_bps: float = 1e9, burst_bytes: int = 64 * 1024) -> Meter:
        obj = Meter(name, size, self.memory, rate_bps=rate_bps, burst_bytes=burst_bytes)
        self.objects[name] = obj
        return obj

    def counter(self, name: str, size: int) -> Counter:
        obj = Counter(name, size, self.memory)
        self.objects[name] = obj
        return obj

    def set_handler(self, handler: Callable[[Packet, str], str]) -> None:
        """Handler returns a :class:`StageAction` constant."""
        self.handler = handler

    def process(self, packet: Packet, from_node: str) -> str:
        self.packets_seen += 1
        if self.handler is None:
            return StageAction.CONTINUE
        return self.handler(packet, from_node)


class Pipeline:
    """A fixed-depth sequence of stages with per-stage memory shares."""

    def __init__(
        self,
        switch: "PisaSwitch",
        num_stages: int = DEFAULT_STAGE_COUNT,
        name: str = "pipeline",
    ) -> None:
        if num_stages <= 0:
            raise ValueError("pipeline must have at least one stage")
        self.switch = switch
        self.name = name
        self.num_stages = num_stages
        # The stage share is carved out of the switch budget up front;
        # objects then allocate inside their stage's share.
        share = switch.memory.free_bytes // num_stages
        switch.memory.allocate(f"pipeline:{name}", share * num_stages)
        self.stages: List[Stage] = [
            Stage(f"{name}.stage{i}", i, share) for i in range(num_stages)
        ]
        self._next_free = 0

    def add_stage(self, stage_name: str) -> Stage:
        """Claim the next free stage; raises when the pipeline is full."""
        if self._next_free >= self.num_stages:
            raise OutOfSwitchMemory(0, 0, f"pipeline {self.name}: no stages left")
        stage = self.stages[self._next_free]
        stage.name = f"{self.name}.{stage_name}"
        self._next_free += 1
        return stage

    def process(self, packet: Packet, from_node: str) -> str:
        """Run the packet through claimed stages in order."""
        for stage in self.stages[: self._next_free]:
            action = stage.process(packet, from_node)
            if action == StageAction.CONTINUE:
                continue
            return action
        return StageAction.FALLTHROUGH

    def as_handler(self) -> Callable[[Packet, str], bool]:
        """Adapt to the switch handler interface (True = consumed)."""

        def handler(packet: Packet, from_node: str) -> bool:
            return self.process(packet, from_node) == StageAction.CONSUME

        return handler

    def memory_used(self) -> int:
        return sum(stage.memory.used_bytes for stage in self.stages)
