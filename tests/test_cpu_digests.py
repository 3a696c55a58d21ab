"""Pinned bus digests: the CPU interpreter's bit-for-bit oracle.

``tests/data/cpu_bus_digests.json`` holds, for every suite and extended
program at 4000 cycles (and, in the ``slow`` lane, 200 000 cycles), the
:func:`~repro.traces.io.trace_digest` of all four traced buses, the full
:class:`~repro.cpu.RunStats` and the final register file.  The suite
programs execute only half of the ISA and never take the bimodal or
write-back paths, so :data:`ALL_OPS_KERNEL` — a small program that runs
every opcode, takes and falls through every branch kind, writes r0 and
forces dirty evictions — is pinned under five pipeline configurations.

Regenerate the file only when a change is *meant* to alter simulated
values::

    PYTHONPATH=src python tests/test_cpu_digests.py --record
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

from repro.cpu import Machine, PipelineConfig
from repro.cpu.isa import ALL_OPS
from repro.traces.io import trace_digest
from repro.workloads.extended import EXTENDED_WORKLOADS
from repro.workloads.programs import WORKLOADS

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "data", "cpu_bus_digests.json")
RECORD_COMMAND = "PYTHONPATH=src python tests/test_cpu_digests.py --record"

#: Cycle budgets: the tier-1 one and the slow-lane one.
SHORT_CYCLES = 4000
LONG_CYCLES = 200_000

KERNEL_BASE = 0x10000
KERNEL_ALIAS = KERNEL_BASE + 4096  # same direct-mapped sets, other tags
KERNEL_WORDS = 64

#: Every opcode of the ISA, both directions of every branch kind, writes
#: to r0, a divide and remainder by zero and by -1, register shifts past
#: 31, stores that (under ``write_back``) dirty a line which the store to
#: the aliasing region then evicts, and a 512-byte table that fits the
#: default L1 but not a 256-byte one.
ALL_OPS_KERNEL = f"""
        li   r1, {KERNEL_BASE}
        li   r2, {KERNEL_ALIAS}
        li   r20, 0
        li   r21, 3
outer:  li   r3, 0
        li   r4, {KERNEL_WORDS - 2}
inner:  slli r5, r3, 2
        add  r6, r1, r5
        lw   r7, 0(r6)
        lh   r8, 2(r6)
        lhu  r9, 0(r6)
        lb   r10, 1(r6)
        lbu  r11, 3(r6)
        add  r12, r7, r8
        sub  r13, r7, r9
        mul  r14, r7, r10
        mulh r15, r7, r8
        div  r16, r7, r10
        rem  r17, r8, r10
        and  r18, r7, r9
        or   r19, r7, r11
        xor  r22, r7, r8
        sll  r23, r7, r8
        srl  r24, r7, r10
        sra  r25, r7, r8
        slt  r26, r7, r8
        sltu r27, r7, r8
        addi r28, r7, -5
        andi r29, r7, 0xFF
        ori  r29, r29, 0x100
        xori r30, r7, -1
        slli r12, r12, 3
        srli r13, r13, 5
        srai r14, r14, 7
        slti r15, r7, 100
        sltiu r16, r7, 100
        lui  r17, 0x8234
        add  r0, r7, r8
        addi r0, r0, 9
        andi r18, r3, 31
        slli r18, r18, 4
        add  r18, r18, r1
        lw   r0, 2048(r18)
        sw   r12, 0(r6)
        sh   r13, 4(r6)
        sb   r14, 7(r6)
        add  r6, r2, r5
        sw   r15, 0(r6)
        lw   r7, 4(r6)
        andi r5, r7, 1
        beq  r5, r0, b1
        blt  r7, r8, b1
        nop
b1:     bge  r7, r8, b2
        bltu r7, r8, b2
        addi r26, r26, 1
b2:     bgeu r7, r9, b3
        bne  r7, r9, b3
        nop
b3:     call leaf
        jal  r0, tail
leaf:   jalr r30, r31, 0
tail:   call ret0
        addi r3, r3, 1
        bne  r3, r4, inner
        addi r20, r20, 1
        blt  r20, r21, outer
        halt
ret0:   div  r16, r7, r0
        rem  r17, r7, r0
        li   r18, -1
        li   r19, 0x80000000
        div  r16, r19, r18
        rem  r17, r19, r18
        ret
"""

#: The configurations the kernel is pinned under.
KERNEL_CONFIGS = {
    "default": {},
    "bimodal": {"branch_predictor": "bimodal"},
    "write_back": {"write_back": True},
    "assoc2": {"cache_associativity": 2},
    "cache256": {"cache_size_bytes": 256},
}


def _kernel_data():
    """Deterministic kernel data with zero, negative and extreme words."""
    words = []
    for i in range(KERNEL_WORDS + 2):
        value = (i * 2654435761 + 12345) & 0xFFFFFFFF
        if i % 7 == 0:
            value &= 0xFFFF00FF  # byte 1 is zero: a divide by zero
        if i % 5 == 0:
            value |= 0x80000000  # negative as a signed word
        words.append(value)
    words[3] = 0x80000000
    words[4] = 0xFFFFFFFF
    return words


def _summarise(machine: Machine, result) -> dict:
    return {
        "stats": dataclasses.asdict(result.stats),
        "buses": {
            "register": trace_digest(result.register_trace),
            "memory": trace_digest(result.memory_trace),
            "address": trace_digest(result.address_trace),
            "result": trace_digest(result.result_trace),
        },
        "registers": list(machine.last_pipeline.registers),
    }


def run_program(name: str, cycles: int) -> dict:
    """Simulate one suite or extended program (no trace cache)."""
    workload = WORKLOADS.get(name) or EXTENDED_WORKLOADS[name]
    machine = Machine(
        source=workload.source,
        config=PipelineConfig(max_cycles=cycles),
        name=workload.name,
    )
    workload.setup(machine.memory, workload.rng())
    return _summarise(machine, machine.run())


def run_kernel(config_name: str) -> dict:
    """Simulate :data:`ALL_OPS_KERNEL` under one named configuration."""
    machine = Machine(
        source=ALL_OPS_KERNEL,
        config=PipelineConfig(**KERNEL_CONFIGS[config_name]),
        name=f"all-ops/{config_name}",
    )
    machine.memory.store_words(KERNEL_BASE, _kernel_data())
    machine.memory.store_words(KERNEL_ALIAS, _kernel_data()[::-1])
    return _summarise(machine, machine.run())


def _program_names():
    return list(WORKLOADS) + list(EXTENDED_WORKLOADS)


def case_ids():
    """Every pinned case, in file order."""
    ids = [f"program:{name}@{SHORT_CYCLES}" for name in _program_names()]
    ids += [f"program:{name}@{LONG_CYCLES}" for name in _program_names()]
    ids += [f"kernel:{config}" for config in KERNEL_CONFIGS]
    return ids


def simulate(case: str) -> dict:
    kind, _, spec = case.partition(":")
    if kind == "kernel":
        return run_kernel(spec)
    name, _, cycles = spec.partition("@")
    return run_program(name, int(cycles))


def _load():
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def _params():
    return [
        pytest.param(
            case, marks=pytest.mark.slow if case.endswith(f"@{LONG_CYCLES}") else ()
        )
        for case in case_ids()
    ]


@pytest.mark.parametrize("case", _params())
def test_pinned_digests(case):
    expected = _load()["cases"][case]
    assert simulate(case) == expected


def test_file_covers_every_case():
    doc = _load()
    assert doc["recorded_with"] == RECORD_COMMAND
    assert list(doc["cases"]) == case_ids()


def test_kernel_covers_the_isa():
    opcodes = {instr.op for instr in Machine(source=ALL_OPS_KERNEL).program}
    assert opcodes == ALL_OPS


def test_kernel_configs_take_their_paths():
    doc = _load()["cases"]
    assert doc["kernel:default"]["stats"]["halted"]
    assert doc["kernel:bimodal"]["stats"]["branch_mispredictions"] > 0
    assert doc["kernel:write_back"]["stats"]["store_misses"] > 0
    assert doc["kernel:cache256"]["stats"]["load_misses"] > (
        doc["kernel:default"]["stats"]["load_misses"]
    )


def record() -> None:
    """Re-simulate every case and rewrite the pinned file."""
    doc = {
        "recorded_with": RECORD_COMMAND,
        "cases": {case: simulate(case) for case in case_ids()},
    }
    os.makedirs(os.path.dirname(DIGESTS_PATH), exist_ok=True)
    with open(DIGESTS_PATH, "w") as fh:
        fh.write(_format(doc))
    print(f"wrote {len(doc['cases'])} cases to {DIGESTS_PATH}")


def _format(doc: dict) -> str:
    """The pinned file's layout: one line per case."""
    cases = ",\n".join(
        f"  {json.dumps(case)}: {json.dumps(entry)}"
        for case, entry in doc["cases"].items()
    )
    return (
        f'{{\n "recorded_with": {json.dumps(doc["recorded_with"])},\n'
        f' "cases": {{\n{cases}\n }}\n}}\n'
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {RECORD_COMMAND}")
    record()
