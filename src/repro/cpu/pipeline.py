"""Execution pipeline with bus-timing generation (paper Section 4.1).

A single-issue, in-order core with enough timing realism to give the
two traced buses their character:

* **register bus** — the register file's first read port: the value of
  each instruction's first source operand, at its issue cycle.  This
  matches the paper's "register file output to functional units" bus,
  which sees one operand value per pipeline issue.
* **memory bus** — the data bus between the L1 cache and memory: cache
  miss fills burst one block (four words, one per cycle) after the
  memory latency, and write-through stores place the stored word on the
  bus a cycle after they execute.  Between transactions the bus holds
  its last value.

The cache is a direct-mapped, write-through/no-allocate L1 — the
simplest organisation that yields realistic miss streams.  Timing
costs: 1 cycle per instruction, a multiplier latency for mul/div, a
taken-branch penalty, and a full memory round trip on load misses.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import List, Optional

from .buses import BusTimingGenerator
from .isa import Instruction, WORD_MASK, sign_extend, to_signed
from .memory import Memory

__all__ = ["PipelineConfig", "Cache", "DirectMappedCache", "Pipeline", "RunStats"]


@dataclass(frozen=True)
class PipelineConfig:
    """Timing and cache parameters of the core."""

    mul_latency: int = 3  # extra cycles for mul/mulh
    div_latency: int = 12  # extra cycles for div/rem
    branch_penalty: int = 2  # extra cycles for a taken branch or jump
    #: "static" charges the penalty on every taken branch (predict
    #: not-taken); "bimodal" runs a 2-bit-counter predictor and charges
    #: it only on mispredictions.
    branch_predictor: str = "static"
    branch_table_size: int = 256  # bimodal predictor entries
    cache_size_bytes: int = 4096
    cache_block_bytes: int = 16
    cache_associativity: int = 1  # ways per set (1 = direct mapped)
    write_back: bool = False  # False = write-through/no-allocate
    memory_latency: int = 18  # cycles from miss to first fill word
    max_cycles: int = 2_000_000


@dataclass
class RunStats:
    """Counters accumulated over one run."""

    instructions: int = 0
    cycles: int = 0
    loads: int = 0
    stores: int = 0
    load_misses: int = 0
    store_misses: int = 0  # write-back mode only (write-allocate fills)
    taken_branches: int = 0
    branch_mispredictions: int = 0  # bimodal predictor mode only
    halted: bool = False

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def load_miss_rate(self) -> float:
        """Fraction of loads that missed the L1."""
        return self.load_misses / self.loads if self.loads else 0.0


class Cache:
    """Tag store of a set-associative LRU cache (data lives in Memory).

    Supports dirty bits for write-back mode; :meth:`fill` reports the
    block address of any evicted dirty victim so the pipeline can
    schedule its write-back burst.
    """

    def __init__(self, size_bytes: int, block_bytes: int, associativity: int = 1):
        if block_bytes & (block_bytes - 1) or block_bytes < 4:
            raise ValueError(f"block size must be a power of two >= 4, got {block_bytes}")
        if size_bytes % block_bytes:
            raise ValueError("cache size must be a multiple of the block size")
        if associativity < 1 or (size_bytes // block_bytes) % associativity:
            raise ValueError(
                f"associativity {associativity} must divide the line count"
            )
        self.block_bytes = block_bytes
        self.associativity = associativity
        self.num_lines = size_bytes // block_bytes
        self.num_sets = self.num_lines // associativity
        self._block_shift = block_bytes.bit_length() - 1
        # Per set: list of (block, dirty), most-recently-used last.
        self._sets: List[List[List]] = [[] for _ in range(self.num_sets)]

    def _set_for(self, block: int) -> List[List]:
        return self._sets[block % self.num_sets]

    def lookup(self, addr: int) -> bool:
        """True on hit; refreshes LRU order."""
        block = addr >> self._block_shift
        ways = self._sets[block % self.num_sets]
        if ways and ways[-1][0] == block:  # the MRU way: order unchanged
            return True
        for i, way in enumerate(ways):
            if way[0] == block:
                ways.append(ways.pop(i))
                return True
        return False

    def fill(self, addr: int, dirty: bool = False) -> Optional[int]:
        """Install ``addr``'s block; returns an evicted dirty block's
        base byte address, or None."""
        block = addr >> self._block_shift
        ways = self._set_for(block)
        for i, way in enumerate(ways):
            if way[0] == block:
                way[1] = way[1] or dirty
                ways.append(ways.pop(i))
                return None
        victim_writeback = None
        if len(ways) >= self.associativity:
            victim = ways.pop(0)
            if victim[1]:
                victim_writeback = victim[0] << self._block_shift
        ways.append([block, dirty])
        return victim_writeback

    def mark_dirty(self, addr: int) -> bool:
        """Set the dirty bit of ``addr``'s block; True if it was resident."""
        block = addr >> self._block_shift
        for way in self._set_for(block):
            if way[0] == block:
                way[1] = True
                return True
        return False

    def block_base(self, addr: int) -> int:
        """Byte address of the start of ``addr``'s block."""
        return (addr >> self._block_shift) << self._block_shift


class DirectMappedCache(Cache):
    """Backward-compatible direct-mapped (1-way) cache."""

    def __init__(self, size_bytes: int, block_bytes: int):
        super().__init__(size_bytes, block_bytes, associativity=1)


def _signed_lt(a: int, b: int) -> bool:
    return to_signed(a) < to_signed(b)


def _signed_ge(a: int, b: int) -> bool:
    return to_signed(a) >= to_signed(b)


#: Branch conditions over the two (unsigned) register values.
_BRANCH_TESTS = {
    "beq": operator.eq,
    "bne": operator.ne,
    "blt": _signed_lt,
    "bge": _signed_ge,
    "bltu": operator.lt,
    "bgeu": operator.ge,
}

#: Opcode numbers of the predecoded program.  The interpreter tests
#: them in this order, which is the dynamic frequency of each opcode
#: over the workload suite (``add`` 20%, ``lw`` 17%, ...).  ``store``,
#: ``load`` (every load but ``lw``), ``jump`` and ``branch`` group
#: several opcodes into one arm.
_DISPATCH = (
    "add", "lw", "addi", "bne", "store", "srai", "slli", "load", "mul", "beq",
    "sub", "lui", "srli", "andi", "slti", "jump", "branch", "and", "xor",
    "ori", "mulh", "div", "rem", "or", "sll", "srl", "sra", "slt", "sltu",
    "xori", "sltiu", "nop", "halt",
)
_OPCODE = {name: number for number, name in enumerate(_DISPATCH)}

#: Register-file slot that writes to r0 land in; r0 itself stays zero.
_R0_SINK = 32


def _predecode(program: List[Instruction], bimodal: bool) -> List[tuple]:
    """Flatten ``program`` into ``(op, d, s1, s2, imm, ra, rb, dest)``.

    ``op`` is a :data:`_DISPATCH` index.  ``d`` is the write slot (r0
    writes go to :data:`_R0_SINK`), ``s1``/``s2`` the source registers,
    ``ra``/``rb`` the registers driven onto the read port in the issue
    cycle and the next one (0 = none: r0 is never read from the file)
    and ``dest`` the register put on the result bus (0 = none).
    ``imm`` is pre-masked: shift amounts to 5 bits, logical immediates
    to the word, and ``lui`` holds its shifted result.  Grouped opcodes
    carry their variant in a field the group does not use: stores their
    width in ``d``, loads their name in ``s2``, jumps whether they are
    ``jalr`` in ``s2`` and shared-arm branches their test in ``d``.
    """
    decoded = []
    for instr in program:
        name = instr.op
        reads = instr.reads
        ra = reads[0] if reads else 0
        rb = reads[1] if len(reads) > 1 else 0
        dest = instr.writes or 0
        d = instr.rd or _R0_SINK
        s1, s2 = instr.rs1, instr.rs2
        if name in ("sw", "sh", "sb"):
            name, d = "store", {"sw": 4, "sh": 2, "sb": 1}[name]
        elif name in ("lbu", "lh", "lhu", "lb"):
            name, s2 = "load", name
        elif name in _BRANCH_TESTS and (bimodal or name not in ("beq", "bne")):
            name, d = "branch", _BRANCH_TESTS[name]
        elif name in ("jal", "jalr"):
            name, s2 = "jump", name == "jalr"
            if s2 and s1 == instr.rd:
                # The target reads rs1 after the link write, even when
                # both are r0.
                s1 = d
        imm = instr.imm
        if name in ("slli", "srli", "srai"):
            imm &= 31
        elif name in ("andi", "ori", "xori", "sltiu"):
            imm &= WORD_MASK
        elif name == "lui":
            imm = (imm << 16) & WORD_MASK
        decoded.append((_OPCODE[name], d, s1, s2, imm, ra, rb, dest))
    return decoded


class Pipeline:
    """Single-issue in-order core over a decoded program."""

    def __init__(
        self,
        program: List[Instruction],
        memory: Optional[Memory] = None,
        config: Optional[PipelineConfig] = None,
    ):
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.config = config if config is not None else PipelineConfig()
        self.cache = Cache(
            self.config.cache_size_bytes,
            self.config.cache_block_bytes,
            self.config.cache_associativity,
        )
        self.register_bus = BusTimingGenerator("register", 32)
        self.memory_bus = BusTimingGenerator("memory", 32)
        self.address_bus = BusTimingGenerator("address", 32)
        self.result_bus = BusTimingGenerator("result", 32)
        self.registers = [0] * 32
        self.stats = RunStats()

    def run(self) -> RunStats:
        """Execute until ``halt``, program end, or the cycle budget."""
        cfg = self.config
        if cfg.branch_predictor == "bimodal":
            if cfg.branch_table_size & (cfg.branch_table_size - 1):
                raise ValueError("branch_table_size must be a power of two")
            bimodal: Optional[List[int]] = [1] * cfg.branch_table_size
        elif cfg.branch_predictor == "static":
            bimodal = None
        else:
            raise ValueError(
                f"branch_predictor must be 'static' or 'bimodal', "
                f"got {cfg.branch_predictor!r}"
            )
        code = _predecode(self.program, bimodal is not None)
        regs = self.registers + [0]  # + the r0 write sink
        mem = self.memory
        cache = self.cache
        lookup = cache.lookup
        load_word = mem.load_word
        store_word = mem.store_word
        # Events go straight onto the generators' flat lists.
        reg_cycle = self.register_bus.cycles.append
        reg_value = self.register_bus.values.append
        mem_cycle = self.memory_bus.cycles.append
        mem_value = self.memory_bus.values.append
        addr_cycle = self.address_bus.cycles.append
        addr_value = self.address_bus.values.append
        result_cycle = self.result_bus.cycles.append
        result_value = self.result_bus.values.append
        words_per_block = cfg.cache_block_bytes // 4
        memory_latency = cfg.memory_latency
        mul_latency = cfg.mul_latency
        div_latency = cfg.div_latency
        branch_penalty = cfg.branch_penalty
        taken_cost = branch_penalty + 1
        table_mask = cfg.branch_table_size - 1
        write_back = cfg.write_back
        max_cycles = cfg.max_cycles
        mask = WORD_MASK

        def fetch_block(addr: int, at_cycle: int, dirty: bool) -> int:
            """Miss handling: fill burst + optional victim write-back.

            Returns the cycle at which the pipeline may continue.
            """
            base = cache.block_base(addr)
            addr_cycle(at_cycle)
            addr_value(base)
            fill_start = at_cycle + memory_latency
            for i in range(words_per_block):
                mem_cycle(fill_start + i)
                mem_value(load_word(base + 4 * i))
            victim = cache.fill(addr, dirty)
            done = fill_start + words_per_block
            if victim is not None:
                # Dirty eviction drains through the write buffer after
                # the fill; no pipeline stall.
                addr_cycle(done)
                addr_value(victim)
                for i in range(words_per_block):
                    mem_cycle(done + 1 + i)
                    mem_value(load_word(victim + 4 * i))
            return done

        stats = self.stats
        instructions = stats.instructions
        loads = stats.loads
        stores = stats.stores
        load_misses = stats.load_misses
        store_misses = stats.store_misses
        taken_branches = stats.taken_branches
        mispredictions = stats.branch_mispredictions
        cycle = 0
        pc = 0
        n_program = len(code)
        try:
            while 0 <= pc < n_program and cycle < max_cycles:
                op, d, s1, s2, imm, ra, rb, dest = code[pc]
                if ra:
                    reg_cycle(cycle)
                    reg_value(regs[ra])
                if rb:
                    # The port is time-multiplexed: the second operand
                    # uses the next slot.  If the next instruction
                    # issues that same cycle its own first operand
                    # overdrives the port (recorded later, so it wins).
                    reg_cycle(cycle + 1)
                    reg_value(regs[rb])
                instructions += 1

                if op == 0:  # add
                    regs[d] = (regs[s1] + regs[s2]) & mask
                elif op == 1:  # lw
                    addr = (regs[s1] + imm) & mask
                    loads += 1
                    if not lookup(addr):
                        load_misses += 1
                        cycle = fetch_block(addr, cycle, False)
                    regs[d] = load_word(addr)
                elif op == 2:  # addi
                    regs[d] = (regs[s1] + imm) & mask
                elif op == 3:  # bne
                    if regs[s1] != regs[s2]:
                        taken_branches += 1
                        cycle += taken_cost
                        pc = imm
                        continue
                elif op == 4:  # sw, sh, sb (d = access width)
                    addr = (regs[s1] + imm) & mask
                    stores += 1
                    if d == 4:
                        store_word(addr, regs[s2])
                    elif d == 2:
                        mem.store_half(addr, regs[s2])
                    else:
                        mem.store_byte(addr, regs[s2])
                    if write_back:
                        # Write-allocate: fetch on miss, then dirty the line.
                        if not cache.mark_dirty(addr):
                            store_misses += 1
                            cycle = fetch_block(addr, cycle, True)
                    else:
                        # Write-through/no-allocate: the (word-aligned)
                        # updated word goes out through the write buffer
                        # one cycle later.
                        word = addr & ~3
                        addr_cycle(cycle + 1)
                        addr_value(word)
                        mem_cycle(cycle + 1)
                        mem_value(load_word(word))
                elif op == 5:  # srai
                    # Registers hold 32-bit patterns: x ^ 2**31 - 2**31
                    # is to_signed(x).
                    regs[d] = (((regs[s1] ^ 0x80000000) - 0x80000000) >> imm) & mask
                elif op == 6:  # slli
                    regs[d] = (regs[s1] << imm) & mask
                elif op == 7:  # lbu, lh, lhu, lb (s2 = the opcode)
                    addr = (regs[s1] + imm) & mask
                    loads += 1
                    if not lookup(addr):
                        load_misses += 1
                        cycle = fetch_block(addr, cycle, False)
                    if s2 == "lbu":
                        regs[d] = mem.load_byte(addr)
                    elif s2 == "lh":
                        regs[d] = sign_extend(mem.load_half(addr), 16) & mask
                    elif s2 == "lhu":
                        regs[d] = mem.load_half(addr)
                    else:
                        regs[d] = sign_extend(mem.load_byte(addr), 8) & mask
                elif op == 8:  # mul
                    # The low word of a product is sign-agnostic.
                    regs[d] = (regs[s1] * regs[s2]) & mask
                    cycle += mul_latency
                elif op == 9:  # beq
                    if regs[s1] == regs[s2]:
                        taken_branches += 1
                        cycle += taken_cost
                        pc = imm
                        continue
                elif op == 10:  # sub
                    regs[d] = (regs[s1] - regs[s2]) & mask
                elif op == 11:  # lui
                    regs[d] = imm
                elif op == 12:  # srli
                    regs[d] = regs[s1] >> imm
                elif op == 13:  # andi
                    regs[d] = regs[s1] & imm
                elif op == 14:  # slti
                    regs[d] = int(to_signed(regs[s1]) < imm)
                elif op == 15:  # jal, jalr (s2 = is jalr)
                    regs[d] = pc + 1
                    taken_branches += 1
                    cycle += branch_penalty
                    if dest:
                        result_cycle(cycle)
                        result_value(pc + 1)
                    cycle += 1
                    pc = (regs[s1] + imm) & mask if s2 else imm
                    continue
                elif op == 16:  # branch (d = its test)
                    taken = d(regs[s1], regs[s2])
                    if taken:
                        taken_branches += 1
                    if bimodal is not None:
                        slot = pc & table_mask
                        counter = bimodal[slot]
                        if (counter >= 2) != taken:
                            mispredictions += 1
                            cycle += branch_penalty
                        if taken:
                            bimodal[slot] = min(counter + 1, 3)
                        else:
                            bimodal[slot] = max(counter - 1, 0)
                    elif taken:
                        cycle += branch_penalty
                    if taken:
                        cycle += 1
                        pc = imm
                        continue
                elif op == 17:  # and
                    regs[d] = regs[s1] & regs[s2]
                elif op == 18:  # xor
                    regs[d] = regs[s1] ^ regs[s2]
                elif op == 19:  # ori
                    regs[d] = regs[s1] | imm
                elif op == 20:  # mulh
                    product = to_signed(regs[s1]) * to_signed(regs[s2])
                    regs[d] = (product >> 32) & mask
                    cycle += mul_latency
                elif op == 21 or op == 22:  # div, rem
                    dividend = to_signed(regs[s1])
                    divisor = to_signed(regs[s2])
                    if divisor == 0:
                        result = -1 if op == 21 else dividend
                    else:
                        quotient = int(dividend / divisor)  # truncate toward zero
                        result = quotient if op == 21 else dividend - quotient * divisor
                    regs[d] = result & mask
                    cycle += div_latency
                elif op == 23:  # or
                    regs[d] = regs[s1] | regs[s2]
                elif op == 24:  # sll
                    regs[d] = (regs[s1] << (regs[s2] & 31)) & mask
                elif op == 25:  # srl
                    regs[d] = regs[s1] >> (regs[s2] & 31)
                elif op == 26:  # sra
                    regs[d] = (to_signed(regs[s1]) >> (regs[s2] & 31)) & mask
                elif op == 27:  # slt
                    regs[d] = int(to_signed(regs[s1]) < to_signed(regs[s2]))
                elif op == 28:  # sltu
                    regs[d] = int(regs[s1] < regs[s2])
                elif op == 29:  # xori
                    regs[d] = regs[s1] ^ imm
                elif op == 30:  # sltiu
                    regs[d] = int(regs[s1] < imm)
                elif op == 31:  # nop
                    pass
                elif op == 32:  # halt
                    stats.halted = True
                    cycle += 1
                    break
                else:  # pragma: no cover - _predecode emits only these
                    raise NotImplementedError(_DISPATCH[op])

                if dest:
                    # The writeback/result bus ("reorder buffer" traffic in
                    # the paper's abstract): each produced value, in order.
                    result_cycle(cycle)
                    result_value(regs[dest])
                pc += 1
                cycle += 1
        finally:
            self.registers[:] = regs[:32]
            stats.instructions = instructions
            stats.loads = loads
            stats.stores = stores
            stats.load_misses = load_misses
            stats.store_misses = store_misses
            stats.taken_branches = taken_branches
            stats.branch_mispredictions = mispredictions

        stats.cycles = cycle
        return stats
