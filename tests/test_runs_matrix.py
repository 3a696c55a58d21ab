"""Cell identity and matrix construction for resumable runs.

The identity contract: a cell key is a pure function of everything that
determines the cell's *value* — coder, stream content digest,
technology, fault profile, seed — and of nothing that merely affects
*execution* (jobs, timeouts, retries, chaos).  Run configs validate
eagerly so a bad matrix dies before any cell is simulated.
"""

import pytest

from repro.runs import (
    CellSpec,
    RunConfig,
    build_cells,
    cell_key,
    config_digest,
    default_run_id,
)
from repro.runs.matrix import coder_family, make_cell_fn

GEN = "gen:mixed,seed=3,population=2,cycles=256,width=16"


class TestCellIdentity:
    def test_key_is_stable_and_content_sensitive(self):
        spec = CellSpec(
            kind="savings",
            workload="w",
            source=GEN,
            stream=0,
            source_digest="abc",
            coder="window8",
        )
        from dataclasses import replace

        assert cell_key(spec) == cell_key(spec)
        assert cell_key(replace(spec, source_digest="def")) != cell_key(spec)
        assert cell_key(replace(spec, coder="window16")) != cell_key(spec)

    def test_execution_knobs_are_not_identity(self):
        # CellSpec deliberately has no jobs/timeout/retry/chaos fields:
        # the key must agree between any two executions of the cell.
        fields = set(CellSpec.__dataclass_fields__)
        assert fields == {
            "kind",
            "workload",
            "source",
            "stream",
            "source_digest",
            "coder",
            "technology",
            "ber",
            "policy",
            "lam",
            "seed",
        }

    #: One cell per matrix kind and its key, recorded before the key
    #: computation was rewritten: existing run directories resume only
    #: while these bytes stay put.
    PINNED_KEYS = (
        (
            CellSpec(
                kind="savings", workload="mixed/0", source=GEN, stream=0,
                source_digest="a" * 64, coder="window8",
            ),
            "206f470183396d05fa8409786f9b420a2c64da986aa5d118355c70deabab75a9",
        ),
        (
            CellSpec(
                kind="crossover", workload="gcc/register",
                source="suite:gcc/register@4000", stream=0,
                source_digest="b" * 64, coder="window16", technology="0.13um",
            ),
            "019cfab09ebf000407cdd28e3ca1d9feaf67c3fd886d339caf7adfeaae9e9aed",
        ),
        (
            CellSpec(
                kind="table3", workload="swim/register",
                source="suite:swim/register@4000", stream=0,
                source_digest="c" * 64, coder="window8", technology="0.07um",
                lam=1.0,
            ),
            "d716573c3f8b7813e0a9b598a22f740702a22ecf0c6f400611aea68d69c4a9a5",
        ),
        (
            CellSpec(
                kind="faults", workload="mixed/1", source=GEN, stream=1,
                source_digest="d" * 64, coder="last", ber=1e-3,
                policy="reset-both", lam=0.5, seed=7,
            ),
            "1474f55936f2d967a1e997ffebedf2cca321d80c2ba70bc629bddd28430bb185",
        ),
    )

    @pytest.mark.parametrize(
        "spec,key", PINNED_KEYS, ids=[spec.kind for spec, _ in PINNED_KEYS]
    )
    def test_key_bytes_are_pinned(self, spec, key):
        assert cell_key(spec) == key

    def test_coder_family_grouping(self):
        assert coder_family("window8") == "window"
        assert coder_family("window16") == "window"
        assert coder_family("last") == "last"
        assert coder_family("fcm3") == "fcm"


class TestRunConfig:
    def test_unknown_matrix_rejected(self):
        with pytest.raises(ValueError, match="unknown matrix"):
            RunConfig(matrix="everything", sources=(GEN,), coders=("last",))

    def test_crossover_needs_technologies_and_window_coders(self):
        with pytest.raises(ValueError, match="--technologies"):
            RunConfig(matrix="crossover", sources=(GEN,), coders=("window8",))
        with pytest.raises(ValueError, match="windowN"):
            RunConfig(
                matrix="crossover",
                sources=(GEN,),
                coders=("last",),
                technologies=("0.10um",),
            )

    def test_faults_needs_bers_and_policies_in_range(self):
        with pytest.raises(ValueError, match="--ber"):
            RunConfig(matrix="faults", sources=(GEN,), coders=("window8",))
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            RunConfig(
                matrix="faults",
                sources=(GEN,),
                coders=("window8",),
                bers=(2.0,),
                policies=("reset-both",),
            )

    def test_from_dict_round_trips_digest(self):
        config = RunConfig(
            matrix="faults",
            sources=(GEN,),
            coders=("window8",),
            bers=(1e-5, 1e-4),
            policies=("reset-both",),
            seed=3,
        )
        from dataclasses import asdict

        rebuilt = RunConfig.from_dict(asdict(config))
        assert config_digest(rebuilt) == config_digest(config)

    def test_default_run_id_shape(self):
        config = RunConfig(matrix="savings", sources=(GEN,), coders=("last",))
        rid = default_run_id(config)
        assert rid.startswith("savings-")
        assert rid == f"savings-{config_digest(config)[:12]}"


class TestBuildCells:
    def test_savings_order_and_count(self):
        config = RunConfig(
            matrix="savings", sources=(GEN,), coders=("last", "window8")
        )
        cells = build_cells(config)
        assert len(cells) == 4  # 2 streams x 2 coders
        assert [(c.stream, c.coder) for c in cells] == [
            (0, "last"),
            (0, "window8"),
            (1, "last"),
            (1, "window8"),
        ]
        assert len({cell_key(c) for c in cells}) == 4
        assert all(c.source_digest for c in cells)

    def test_gen_stream_digests_are_per_stream_and_stable(self):
        config = RunConfig(matrix="savings", sources=(GEN,), coders=("last",))
        first = build_cells(config)
        again = build_cells(config)
        assert [cell_key(c) for c in first] == [cell_key(c) for c in again]
        assert first[0].source_digest != first[1].source_digest

    def test_bad_coder_fails_before_any_simulation(self):
        config = RunConfig(matrix="savings", sources=(GEN,), coders=("w!ndow",))
        with pytest.raises(ValueError):
            build_cells(config)

    def test_faults_axes_product(self):
        config = RunConfig(
            matrix="faults",
            sources=(GEN,),
            coders=("window8",),
            bers=(1e-5, 1e-4),
            policies=("reset-both", "resync-on-error"),
            streams=1,
        )
        cells = build_cells(config)
        assert len(cells) == 1 * 1 * 2 * 2  # streams x coders x policies x bers
        assert {c.policy for c in cells} == {"reset-both", "resync-on-error"}

    def test_streams_cap_limits_population(self):
        config = RunConfig(
            matrix="savings", sources=(GEN,), coders=("last",), streams=1
        )
        assert len(build_cells(config)) == 1


class TestCellFn:
    def test_savings_cell_value_is_json_ready(self):
        config = RunConfig(matrix="savings", sources=(GEN,), coders=("window8",))
        cell = build_cells(config)[0]
        value = make_cell_fn()(cell)
        assert set(value) == {"savings_pct"}
        assert isinstance(value["savings_pct"], float)

    def test_faults_cell_value_fields(self):
        config = RunConfig(
            matrix="faults",
            sources=(GEN,),
            coders=("window8",),
            bers=(1e-4,),
            policies=("reset-both",),
            streams=1,
        )
        value = make_cell_fn()(build_cells(config)[0])
        assert {"savings_pct", "correct_fraction", "injected_cycles"} <= set(value)

    def test_values_deterministic_across_fresh_executors(self):
        config = RunConfig(matrix="savings", sources=(GEN,), coders=("last",))
        cell = build_cells(config)[0]
        assert make_cell_fn()(cell) == make_cell_fn()(cell)


class TestCrossoverArtifactMemo:
    """Cells of one stream share one record: the trace, its base activity
    and, for crossover cells, one audited encode and one set of activity
    counts per window size.  The record is dropped when the next stream
    starts."""

    CONFIG = RunConfig(
        matrix="crossover",
        sources=(GEN,),
        coders=("window8", "window16"),
        technologies=("0.13um", "0.10um", "0.07um"),
    )
    SAVINGS = RunConfig(
        matrix="savings",
        sources=(GEN,),
        coders=(
            "window8",
            "context8",
            "stride4",
            "last",
            "invert",
            "businvert",
            "codebook",
            "fcm",
            "transition",
        ),
    )
    FAULTS = RunConfig(
        matrix="faults",
        sources=(GEN,),
        coders=("window8", "stride4"),
        bers=(1e-3,),
        policies=("reset-both",),
    )

    def _streams(self, config=CONFIG):
        cells = build_cells(config)
        first = [c for c in cells if c.stream == 0]
        second = [c for c in cells if c.stream == 1]
        assert first and second
        return first, second

    def _count_audits(self, monkeypatch):
        from repro.analysis import crossover

        audits = []
        original = crossover.window_artifacts

        def counting(trace, size):
            audits.append((trace.name, size))
            return original(trace, size)

        monkeypatch.setattr(crossover, "window_artifacts", counting)
        return audits

    def _count_generated(self, monkeypatch):
        from repro.corpus.generator import ParametricGenerator

        generated = []
        original = ParametricGenerator.stream

        def counting(generator, index, cycles=None):
            generated.append(index)
            return original(generator, index, cycles)

        monkeypatch.setattr(ParametricGenerator, "stream", counting)
        return generated

    def test_interleaved_and_skipped_cells_match_fresh_executors(self):
        for config in (self.CONFIG, self.SAVINGS, self.FAULTS):
            a, b = self._streams(config)
            # A, B, A again, with cells skipped as a resumed run skips them.
            order = a[::2] + b + a[1::2] + b[::-1] + a
            execute = make_cell_fn()
            for cell in order:
                assert execute(cell) == make_cell_fn()(cell), cell

    def test_one_audit_per_stream_and_size(self, monkeypatch):
        audits = self._count_audits(monkeypatch)
        a, b = self._streams()
        execute = make_cell_fn()
        for cell in a + b:
            execute(cell)
        assert len(audits) == len(set(audits)) == 4

    def test_memo_holds_one_stream_only(self, monkeypatch):
        audits = self._count_audits(monkeypatch)
        a, b = self._streams()
        execute = make_cell_fn()
        for cell in a + b + a:
            execute(cell)
        # Returning to the first stream re-audits it: its entries were
        # dropped when the second stream started.
        assert len(audits) == 6
        assert audits[4:] == audits[:2]

    def test_one_generation_per_stream_in_build_order(self, monkeypatch):
        generated = self._count_generated(monkeypatch)
        for config in (self.SAVINGS, self.FAULTS):
            execute = make_cell_fn()
            for cell in build_cells(config):
                execute(cell)
        assert generated == [0, 1, 0, 1]

    def test_record_holds_one_stream_only(self, monkeypatch):
        generated = self._count_generated(monkeypatch)
        a, b = self._streams(self.SAVINGS)
        execute = make_cell_fn()
        for cell in a + b + a[:1] + a[1:]:
            execute(cell)
        # Returning to the first stream regenerates it once.
        assert generated == [0, 1, 0]

    def test_savings_cells_count_the_base_stream_once(self, monkeypatch):
        from repro.energy import accounting

        counted = []
        original = accounting.count_activity

        def counting(trace, *args, **kwargs):
            counted.append(trace.width)
            return original(trace, *args, **kwargs)

        # Patched on the module: the cells must look it up there.
        monkeypatch.setattr(accounting, "count_activity", counting)
        cells = build_cells(self.SAVINGS)
        execute = make_cell_fn()
        for cell in cells:
            execute(cell)
        assert len(counted) == len(cells) + 2  # one base count per stream
