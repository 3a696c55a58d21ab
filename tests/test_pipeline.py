"""Unit tests for the pipeline: semantics, timing and bus generation."""

import pytest

from repro.cpu import (
    DirectMappedCache,
    Machine,
    Pipeline,
    PipelineConfig,
    assemble,
)


def run(source, setup=None, config=None):
    machine = Machine(source=source, config=config or PipelineConfig())
    if setup:
        setup(machine.memory)
    pipeline = Pipeline(machine.program, machine.memory, machine.config)
    stats = pipeline.run()
    return pipeline, stats


class TestArithmetic:
    def test_add_sub(self):
        pipeline, _ = run("li r1, 7\nli r2, 5\nadd r3, r1, r2\nsub r4, r1, r2\nhalt")
        assert pipeline.registers[3] == 12
        assert pipeline.registers[4] == 2

    def test_wraparound(self):
        pipeline, _ = run("li r1, -1\nli r2, 2\nadd r3, r1, r2\nhalt")
        assert pipeline.registers[3] == 1

    def test_mul_signed(self):
        pipeline, _ = run("li r1, -3\nli r2, 4\nmul r3, r1, r2\nhalt")
        assert pipeline.registers[3] == (-12) & 0xFFFFFFFF

    def test_mulh(self):
        pipeline, _ = run("li r1, 0x10000\nli r2, 0x10000\nmulh r3, r1, r2\nhalt")
        assert pipeline.registers[3] == 1

    def test_div_truncates_toward_zero(self):
        pipeline, _ = run("li r1, -7\nli r2, 2\ndiv r3, r1, r2\nrem r4, r1, r2\nhalt")
        assert pipeline.registers[3] == (-3) & 0xFFFFFFFF
        assert pipeline.registers[4] == (-1) & 0xFFFFFFFF

    def test_div_by_zero(self):
        pipeline, _ = run("li r1, 9\ndiv r3, r1, r0\nrem r4, r1, r0\nhalt")
        assert pipeline.registers[3] == 0xFFFFFFFF
        assert pipeline.registers[4] == 9

    def test_shifts(self):
        pipeline, _ = run(
            "li r1, 0x80000000\nsrli r2, r1, 4\nsrai r3, r1, 4\nslli r4, r1, 1\nhalt"
        )
        assert pipeline.registers[2] == 0x08000000
        assert pipeline.registers[3] == 0xF8000000
        assert pipeline.registers[4] == 0

    def test_comparisons(self):
        pipeline, _ = run(
            "li r1, -1\nli r2, 1\nslt r3, r1, r2\nsltu r4, r1, r2\nhalt"
        )
        assert pipeline.registers[3] == 1  # signed: -1 < 1
        assert pipeline.registers[4] == 0  # unsigned: 0xFFFFFFFF > 1

    def test_r0_stays_zero(self):
        pipeline, _ = run("addi r0, r0, 5\nadd r1, r0, r0\nhalt")
        assert pipeline.registers[0] == 0
        assert pipeline.registers[1] == 0

    def test_logic_ops(self):
        pipeline, _ = run(
            "li r1, 0xF0\nli r2, 0x0F\nor r3, r1, r2\nand r4, r1, r2\nxor r5, r1, r2\nhalt"
        )
        assert pipeline.registers[3] == 0xFF
        assert pipeline.registers[4] == 0x00
        assert pipeline.registers[5] == 0xFF


class TestMemoryOps:
    def test_load_store_word(self):
        pipeline, _ = run("li r1, 0x1000\nli r2, 1234\nsw r2, 0(r1)\nlw r3, 4(r1)\nlw r4, 0(r1)\nhalt")
        assert pipeline.registers[3] == 0
        assert pipeline.registers[4] == 1234

    def test_signed_byte_load(self):
        def setup(mem):
            mem.store_byte(0x1000, 0x80)

        pipeline, _ = run("li r1, 0x1000\nlb r2, 0(r1)\nlbu r3, 0(r1)\nhalt", setup)
        assert pipeline.registers[2] == 0xFFFFFF80
        assert pipeline.registers[3] == 0x80

    def test_halfword_ops(self):
        pipeline, _ = run(
            "li r1, 0x1000\nli r2, 0x8001\nsh r2, 0(r1)\nlh r3, 0(r1)\nlhu r4, 0(r1)\nhalt"
        )
        assert pipeline.registers[3] == 0xFFFF8001
        assert pipeline.registers[4] == 0x8001


class TestControlFlow:
    def test_loop_executes_n_times(self):
        pipeline, _ = run(
            """
            li r1, 10
            li r2, 0
            loop: addi r2, r2, 1
            addi r1, r1, -1
            bne r1, r0, loop
            halt
            """
        )
        assert pipeline.registers[2] == 10

    def test_call_return(self):
        pipeline, _ = run(
            """
            li r1, 5
            call double
            halt
            double: add r1, r1, r1
            ret
            """
        )
        assert pipeline.registers[1] == 10

    def test_branch_variants(self):
        pipeline, _ = run(
            """
            li r1, -1
            li r2, 1
            blt r1, r2, a
            li r10, 99
            a: bltu r1, r2, b
            li r11, 1
            b: halt
            """
        )
        assert pipeline.registers[10] == 0  # signed branch taken
        assert pipeline.registers[11] == 1  # unsigned not taken


class TestTiming:
    def test_taken_branch_pays_penalty(self):
        flat, _ = run("nop\nnop\nnop\nhalt")
        branchy, _ = run("j a\na: nop\nnop\nhalt")
        assert branchy.stats.cycles > flat.stats.cycles

    def test_mul_latency(self):
        cheap, _ = run("li r1, 2\nadd r2, r1, r1\nhalt")
        costly, _ = run("li r1, 2\nmul r2, r1, r1\nhalt")
        assert costly.stats.cycles == cheap.stats.cycles + PipelineConfig().mul_latency

    def test_cache_miss_stalls(self):
        hit_cfg = PipelineConfig(memory_latency=50)
        src = "li r1, 0x1000\nlw r2, 0(r1)\nlw r3, 0(r1)\nhalt"
        pipeline, stats = run(src, config=hit_cfg)
        # one miss (first load), one hit (second)
        assert stats.load_misses == 1
        assert stats.cycles > 50

    def test_max_cycles_caps_run(self):
        config = PipelineConfig(max_cycles=100)
        _, stats = run("loop: j loop", config=config)
        assert not stats.halted
        assert stats.cycles <= 100 + 10

    def test_ipc_and_missrate_properties(self):
        _, stats = run("li r1, 1\nhalt")
        assert 0 < stats.ipc <= 1
        assert stats.load_miss_rate == 0.0


class TestBusGeneration:
    def test_register_bus_sees_operand_values(self):
        pipeline, stats = run("li r1, 42\nadd r2, r1, r1\nhalt")
        trace = pipeline.register_bus.render(stats.cycles)
        assert 42 in list(trace)

    def test_r0_reads_not_driven(self):
        pipeline, stats = run("li r5, 7\nadd r2, r0, r0\nhalt")
        # add reads r0 only; the port must never see an event for it.
        assert pipeline.register_bus.num_events == 0 or all(
            v == 7 for c, v in pipeline.register_bus.events
        )

    def test_memory_bus_carries_store_values(self):
        pipeline, stats = run("li r1, 0x1000\nli r2, 777\nsw r2, 0(r1)\nhalt")
        trace = pipeline.memory_bus.render(stats.cycles)
        assert 777 in list(trace)

    def test_miss_bursts_full_block(self):
        def setup(mem):
            mem.store_words(0x1000, [11, 22, 33, 44])

        pipeline, stats = run("li r1, 0x1000\nlw r2, 0(r1)\nhalt", setup)
        values = set(pipeline.memory_bus.render(stats.cycles))
        assert {11, 22, 33, 44} <= values


class TestCache:
    def test_direct_mapping_conflicts(self):
        cache = DirectMappedCache(1024, 16)
        cache.fill(0)
        assert cache.lookup(0)
        assert cache.lookup(12)  # same block
        cache.fill(1024)  # same index, different tag
        assert not cache.lookup(0)

    def test_block_base(self):
        cache = DirectMappedCache(1024, 16)
        assert cache.block_base(0x1234) == 0x1230

    def test_validates_geometry(self):
        with pytest.raises(ValueError):
            DirectMappedCache(1000, 12)  # block not power of two
        with pytest.raises(ValueError):
            DirectMappedCache(1000, 16)  # size not multiple


class TestMachineFacade:
    def test_requires_exactly_one_program_source(self):
        with pytest.raises(ValueError):
            Machine()
        with pytest.raises(ValueError):
            Machine(source="halt", program=assemble("halt"))

    def test_named_machine_labels_traces(self):
        machine = Machine(source="halt", name="demo")
        result = machine.run()
        assert result.register_trace.name == "demo/register"
        assert result.memory_trace.name == "demo/memory"

    def test_traces_cover_all_cycles(self):
        result = Machine(source="li r1, 3\nadd r2, r1, r1\nhalt").run()
        assert len(result.register_trace) == result.stats.cycles
        assert len(result.memory_trace) == result.stats.cycles
