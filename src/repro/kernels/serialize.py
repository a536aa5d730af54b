"""Trace and kernel serialization.

Traces are the interchange format of this library — the analyses, the
timing model, and the SIMT layer all consume them — so they can be
saved and reloaded: exact reproduction of a run without regenerating
workloads, sharing of inputs between machines, and regression pinning
of interesting traces.

The format is plain JSON: one object per instruction, ``uid``-preserving
within a file (shared static instructions across loop iterations stay
shared after a round trip, which the compiler-hint machinery relies on).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Union

from ..errors import KernelError
from ..isa import Instruction, WritebackHint
from ..isa.opcodes import opcode_by_name
from ..isa.registers import Predicate, Register
from ..stats.counters import Counters
from .trace import KernelTrace, WarpTrace

if TYPE_CHECKING:  # avoid the kernels -> gpu import cycle at runtime
    from ..gpu.sm import SimulationResult

#: Format version written into every file.
FORMAT_VERSION = 1

#: Format version of serialized simulation results.
RESULT_FORMAT_VERSION = 1


def _instruction_to_dict(inst: Instruction) -> Dict:
    data: Dict = {"op": inst.opcode.name}
    if inst.dest is not None:
        data["dest"] = inst.dest.id
    if inst.sources:
        data["src"] = [src.id for src in inst.sources]
    if inst.immediate is not None:
        data["imm"] = inst.immediate
    if inst.predicate is not None:
        data["guard"] = [inst.predicate.id, inst.predicate.negated]
    if inst.pred_dest is not None:
        data["pdest"] = inst.pred_dest.id
    if inst.hint is not WritebackHint.BOTH:
        data["hint"] = inst.hint.name
    return data


def _instruction_from_dict(data: Dict) -> Instruction:
    try:
        opcode = opcode_by_name(data["op"])
    except KeyError:
        raise KernelError("instruction record missing 'op'") from None
    guard = None
    if "guard" in data:
        guard = data["guard"]
        if not (isinstance(guard, list) and len(guard) == 2
                and type(guard[0]) is int and isinstance(guard[1], bool)):
            raise KernelError(
                f"instruction guard must be [predicate id, negated], "
                f"got {guard!r}"
            )
        guard = Predicate(guard[0], negated=guard[1])
    hint = WritebackHint[data["hint"]] if "hint" in data else WritebackHint.BOTH
    return Instruction(
        opcode=opcode,
        dest=Register(data["dest"]) if "dest" in data else None,
        sources=tuple(Register(s) for s in data.get("src", ())),
        immediate=data.get("imm"),
        predicate=guard,
        pred_dest=Predicate(data["pdest"]) if "pdest" in data else None,
        hint=hint,
    )


#: Public names for the per-instruction record codec: the external
#: trace-case format (:mod:`repro.kernels.external`) shares it, so one
#: instruction encodes identically in both formats.
instruction_to_dict = _instruction_to_dict
instruction_from_dict = _instruction_from_dict


def trace_to_dict(trace: KernelTrace) -> Dict:
    """Serialize a kernel trace to a JSON-compatible dict.

    Instructions shared between dynamic positions (loop bodies) are
    stored once in an instruction pool and referenced by index.
    """
    pool: List[Dict] = []
    pool_index: Dict[int, int] = {}
    warps = []
    for warp in trace:
        indices = []
        for inst in warp:
            if inst.uid not in pool_index:
                pool_index[inst.uid] = len(pool)
                pool.append(_instruction_to_dict(inst))
            indices.append(pool_index[inst.uid])
        warps.append({"warp_id": warp.warp_id, "instructions": indices})
    return {
        "version": FORMAT_VERSION,
        "name": trace.name,
        "pool": pool,
        "warps": warps,
    }


def trace_from_dict(data: Dict) -> KernelTrace:
    """Rebuild a kernel trace from :func:`trace_to_dict` output."""
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise KernelError(
            f"unsupported trace format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        pool = [_instruction_from_dict(item) for item in data["pool"]]
        warps = [
            WarpTrace(
                warp_id=entry["warp_id"],
                instructions=[pool[index] for index in entry["instructions"]],
            )
            for entry in data["warps"]
        ]
        return KernelTrace(name=data["name"], warps=warps)
    except (KeyError, IndexError, TypeError) as error:
        raise KernelError(f"malformed trace record: {error}") from None


def save_trace(trace: KernelTrace, path: Union[str, Path]) -> None:
    """Write a trace to a JSON file."""
    Path(path).write_text(json.dumps(trace_to_dict(trace)))


def load_trace(path: Union[str, Path]) -> KernelTrace:
    """Read a trace written by :func:`save_trace`."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise KernelError(f"not a trace file: {error}") from None
    return trace_from_dict(data)


# ---------------------------------------------------------------------------
# SimulationResult round-trip (the run-cache payload format)
# ---------------------------------------------------------------------------

def result_to_dict(result: "SimulationResult") -> Dict:
    """Serialize a simulation result to a JSON-compatible dict.

    The register image's ``(warp, register)`` tuple keys and the memory
    image's integer keys are flattened to sorted triple/pair lists so
    the encoding is canonical: equal results serialize to equal JSON.
    """
    return {
        "version": RESULT_FORMAT_VERSION,
        "counters": result.counters.as_dict(),
        "registers": [
            [warp_id, register_id, value]
            for (warp_id, register_id), value
            in sorted(result.register_image.items())
        ],
        "memory": [
            [address, value]
            for address, value in sorted(result.memory_image.items())
        ],
    }


def result_from_dict(data: Dict) -> "SimulationResult":
    """Rebuild a simulation result from :func:`result_to_dict` output."""
    from ..gpu.sm import SimulationResult

    version = data.get("version")
    if version != RESULT_FORMAT_VERSION:
        raise KernelError(
            f"unsupported result format version {version!r} "
            f"(expected {RESULT_FORMAT_VERSION})"
        )
    try:
        counters = Counters(**data["counters"])
        register_image = {
            (int(warp_id), int(register_id)): int(value)
            for warp_id, register_id, value in data["registers"]
        }
        memory_image = {
            int(address): int(value) for address, value in data["memory"]
        }
    except (KeyError, TypeError, ValueError) as error:
        raise KernelError(f"malformed result record: {error}") from None
    return SimulationResult(
        counters=counters,
        register_image=register_image,
        memory_image=memory_image,
    )


def save_result(result: "SimulationResult", path: Union[str, Path]) -> None:
    """Write a simulation result to a JSON file."""
    Path(path).write_text(json.dumps(result_to_dict(result)))


def load_result(path: Union[str, Path]) -> "SimulationResult":
    """Read a result written by :func:`save_result`."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise KernelError(f"not a result file: {error}") from None
    return result_from_dict(data)
