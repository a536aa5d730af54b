"""A functional reference executor.

Executes a kernel trace sequentially, warp by warp, with no pipeline at
all — just architectural semantics.  Because warps touch disjoint memory
windows (see :meth:`MemoryModel.thread_address`), this produces the
ground-truth final register and memory images any correct timing model
must match; the property tests compare every design against it to prove
that operand bypassing never changes results (paper SS IV-A's claim that
forwarding is semantics-preserving).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import GPUConfig
from ..errors import SimulationError
from ..isa import Instruction, OpClass
from ..isa.registers import SINK_REGISTER
from ..kernels.trace import KernelTrace
from .memory import MemoryModel
from .regfile import BankedRegisterFile


@dataclass(frozen=True)
class ReferenceResult:
    """Ground-truth architectural state after a kernel trace.

    ``committed`` is the architectural commit stream — one
    ``(warp_id, trace_index, opcode_name)`` triple per dynamic
    instruction, in program order per warp.  A timing model is
    equivalent iff it retires exactly this multiset (predicated-off
    instructions still commit: they consume a slot without producing a
    value), which is what the differential-oracle harness checks
    against the engine's ``commit`` trace events.  ``register_writes``
    counts the values written to real (non-sink) registers; a
    predicated-off instruction writes nothing.
    """

    registers: Dict[Tuple[int, int], int]
    memory: Dict[int, int]
    committed: Tuple[Tuple[int, int, str], ...] = ()
    register_writes: int = 0

    @property
    def instructions(self) -> int:
        """Dynamic instruction count (length of the commit stream)."""
        return len(self.committed)

    def commits_by_warp(self) -> Dict[int, List[Tuple[int, str]]]:
        """The commit stream regrouped per warp, in program order.

        Keys are warp ids; values are ``(trace_index, opcode_name)``
        lists — the shape the differential harness compares engine
        commit events against.
        """
        grouped: Dict[int, List[Tuple[int, str]]] = {}
        for warp_id, index, opcode_name in self.committed:
            grouped.setdefault(warp_id, []).append((index, opcode_name))
        return grouped


def execute_reference(
    trace: KernelTrace,
    config: Optional[GPUConfig] = None,
    memory_seed: int = 0,
    preload: Optional[Dict[int, int]] = None,
) -> ReferenceResult:
    """Run ``trace`` functionally and return the final state.

    Register reads of never-written registers return the same
    deterministic launch-time values the timing model uses, so images
    are directly comparable.
    """
    config = config or GPUConfig()
    memory = MemoryModel(config, seed=memory_seed)
    if preload:
        for address, value in preload.items():
            memory.store(address, value)
    registers: Dict[Tuple[int, int], int] = {}
    predicates: Dict[Tuple[int, int], bool] = {}
    committed: List[Tuple[int, int, str]] = []
    register_writes = 0

    def read_reg(warp_id: int, register_id: int) -> int:
        key = (warp_id, register_id)
        if key not in registers:
            registers[key] = BankedRegisterFile._initial_value(
                warp_id, register_id
            )
        return registers[key]

    for warp in trace:
        for index, inst in enumerate(warp):
            committed.append((warp.warp_id, index, inst.opcode.name))
            if inst.predicate is not None:
                flag = predicates.get((warp.warp_id, inst.predicate.id),
                                      False)
                if inst.predicate.negated:
                    flag = not flag
                if not flag:
                    continue  # predicated off
            operands = [read_reg(warp.warp_id, src.id) for src in inst.sources]
            while len(operands) < 3:
                operands.append(inst.immediate or 0)
            value = _execute_one(inst, warp.warp_id, operands, memory)
            if value is None:
                continue
            if inst.pred_dest is not None:
                predicates[(warp.warp_id, inst.pred_dest.id)] = bool(value)
            if inst.dest is not None and inst.dest != SINK_REGISTER:
                registers[(warp.warp_id, inst.dest.id)] = value & 0xFFFFFFFF
                register_writes += 1

    return ReferenceResult(registers=registers, memory=memory.image_snapshot(),
                           committed=tuple(committed),
                           register_writes=register_writes)


def _execute_one(
    inst: Instruction, warp_id: int, operands, memory: MemoryModel
) -> Optional[int]:
    if inst.is_load:
        return memory.load(memory.thread_address(warp_id, operands[0]))
    if inst.is_store:
        memory.store(memory.thread_address(warp_id, operands[0]), operands[1])
        return None
    if inst.is_control or inst.op_class is OpClass.NOP:
        return None
    if inst.dest is None:
        return None
    if inst.opcode.semantic is None:
        raise SimulationError(f"no semantics for {inst.opcode.name}")
    return inst.opcode.semantic(operands[0], operands[1], operands[2])
