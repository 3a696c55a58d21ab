"""The unified workload interface: suite, corpus and generator streams.

A :class:`CorpusWorkload` is *one* stream — a name, a bus width, a
cycle count, and two ways to get the traffic: :meth:`~CorpusWorkload.trace`
(materialized) and :meth:`~CorpusWorkload.chunks` (bounded memory, for
the streaming codec path).  A :class:`WorkloadSource` is a *population*
of them, indexed so a load generator or cluster soak can say "give me
stream ``i``" and get deterministic traffic whether it comes from

* a recorded/imported **corpus** directory (``corpus:DIR`` or
  ``corpus:DIR#stream``),
* the parametric **generator** (``gen:mixed,seed=7,population=10000``),
* or the built-in **suite** (``suite:gcc/register@60000``).

One spec grammar — :func:`parse_workload_source` — serves the CLI
(``repro loadgen --corpus``, ``repro cluster-soak --corpus``, ``repro
run --source``), so every consumer of workload traffic goes through
the same three-way switch, and errors are one-line ``ValueError``\\ s
per the ``repro: error:`` contract.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..traces.streaming import DEFAULT_CHUNK_CYCLES, iter_chunks
from ..traces.trace import BusTrace
from .generator import ParametricGenerator, parse_generator_spec
from .store import CorpusReader

__all__ = [
    "CorpusWorkload",
    "WorkloadSource",
    "parse_workload_source",
]

_GRAMMAR = (
    "expected corpus:DIR[#stream], gen:[profile][,key=value...] or "
    "suite:NAME[/BUS][@cycles]"
)


class CorpusWorkload:
    """One stream of bus traffic, however it is sourced.

    Subclasses fix :attr:`name`, :attr:`width` and :attr:`cycles` at
    construction and implement :meth:`trace`; the default
    :meth:`chunks` slices the materialized trace, and sources with a
    genuine streaming path (raw corpus shards, the generator) override
    it to keep memory bounded.
    """

    def __init__(self, name: str, width: int, cycles: int):
        self.name = name
        self.width = width
        self.cycles = cycles

    def trace(self) -> BusTrace:
        raise NotImplementedError

    def chunks(
        self, chunk_cycles: int = DEFAULT_CHUNK_CYCLES
    ) -> Iterator[BusTrace]:
        return iter_chunks(self.trace(), chunk_cycles)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self.name!r}, width={self.width}, "
            f"cycles={self.cycles})"
        )


class _ShardWorkload(CorpusWorkload):
    """A corpus shard; reads are digest-verified and memory-mapped."""

    def __init__(self, reader: CorpusReader, name: str):
        meta = reader.meta(name)
        super().__init__(name, meta.width, meta.cycles)
        self._reader = reader

    def trace(self) -> BusTrace:
        return self._reader.trace(self.name)

    def chunks(
        self, chunk_cycles: int = DEFAULT_CHUNK_CYCLES
    ) -> Iterator[BusTrace]:
        return self._reader.chunks(self.name, chunk_cycles)


class _GeneratedWorkload(CorpusWorkload):
    """One ``(corpus_seed, index)`` stream of a generator population."""

    def __init__(self, generator: ParametricGenerator, index: int):
        super().__init__(
            generator.stream_name(index), generator.width, generator.cycles
        )
        self._generator = generator
        self._index = index

    def trace(self) -> BusTrace:
        return self._generator.stream(self._index)

    def chunks(
        self, chunk_cycles: int = DEFAULT_CHUNK_CYCLES
    ) -> Iterator[BusTrace]:
        return self._generator.chunks(self._index, chunk_cycles)


class _SuiteWorkload(CorpusWorkload):
    """A built-in suite benchmark's bus trace (cache-memoised)."""

    def __init__(self, workload: str, bus: str, cycles: int):
        from ..workloads.suite import BUS_NAMES

        if bus not in BUS_NAMES:
            raise ValueError(
                f"bus must be one of {sorted(BUS_NAMES)}, got {bus!r}"
            )
        super().__init__(f"{workload}/{bus}", 32, cycles)
        self._workload = workload
        self._bus = bus

    def trace(self) -> BusTrace:
        from ..workloads.suite import _bus_trace

        return _bus_trace(self._workload, self._bus, self.cycles)


class WorkloadSource:
    """An indexed population of :class:`CorpusWorkload` streams.

    ``for_stream(i)`` wraps ``i`` modulo :attr:`size`, so a consumer
    with more clients than the population cycles through it
    deterministically.  :attr:`width` is the population's common bus
    width (a corpus mixing widths refuses to be a source — the serving
    protocol negotiates one width per session population).
    """

    def __init__(self, kind: str, spec: str, streams: List[CorpusWorkload]):
        if not streams:
            raise ValueError(f"workload source {spec!r} holds no streams")
        widths = {w.width for w in streams}
        if len(widths) != 1:
            raise ValueError(
                f"workload source {spec!r} mixes bus widths {sorted(widths)}; "
                f"select one stream with corpus:DIR#stream"
            )
        self.kind = kind
        self.spec = spec
        self.streams = streams
        self.width = streams[0].width

    @property
    def size(self) -> int:
        return len(self.streams)

    def for_stream(self, index: int) -> CorpusWorkload:
        return self.streams[index % self.size]

    def describe(self) -> str:
        return f"{self.spec} ({self.size} streams, width {self.width})"


class _GeneratorSource(WorkloadSource):
    """A generator population — lazy, so 10k streams cost no memory."""

    def __init__(self, spec: str, generator: ParametricGenerator, population: int):
        # Bypass the eager-list constructor: streams are made on demand.
        self.kind = "gen"
        self.spec = spec
        self.generator = generator
        self._population = population
        self.width = generator.width

    @property
    def size(self) -> int:
        return self._population

    @property
    def streams(self) -> List[CorpusWorkload]:  # type: ignore[override]
        raise ValueError(
            f"generator source {self.spec!r} has {self._population} streams; "
            f"iterate via for_stream(index) instead of materializing them"
        )

    def for_stream(self, index: int) -> CorpusWorkload:
        return _GeneratedWorkload(self.generator, index % self._population)

    def describe(self) -> str:
        return (
            f"{self.generator.describe()} "
            f"({self._population} streams, width {self.width})"
        )


def parse_workload_source(spec: str) -> WorkloadSource:
    """Parse a workload-source spec (see the module docstring grammar).

    Raises one-line ``ValueError``\\ s for grammar problems; corpus
    structural problems surface as
    :class:`~repro.corpus.format.CorpusFormatError` /
    ``FileNotFoundError`` from the reader.
    """
    if spec.startswith("corpus:"):
        body = spec[len("corpus:"):]
        directory, _hash, stream = body.partition("#")
        if not directory:
            raise ValueError(f"empty corpus directory in {spec!r}; {_GRAMMAR}")
        reader = CorpusReader(directory)
        names = [stream] if stream else reader.names()
        if stream and stream not in reader.names():
            available = ", ".join(reader.names()) or "<empty corpus>"
            raise ValueError(
                f"no stream {stream!r} in corpus {directory}; available: {available}"
            )
        return WorkloadSource(
            "corpus", spec, [_ShardWorkload(reader, name) for name in names]
        )
    if spec.startswith("gen:"):
        generator, population = parse_generator_spec(spec)
        return _GeneratorSource(spec, generator, population)
    if spec.startswith("suite:"):
        from ..workloads.suite import DEFAULT_CYCLES

        body = spec[len("suite:"):]
        body, _at, cycles_text = body.partition("@")
        workload, _slash, bus = body.partition("/")
        if not workload:
            raise ValueError(f"empty suite workload in {spec!r}; {_GRAMMAR}")
        cycles = DEFAULT_CYCLES
        if cycles_text:
            try:
                cycles = int(cycles_text)
            except ValueError:
                raise ValueError(
                    f"suite cycles must be an integer, got {cycles_text!r}"
                ) from None
            if cycles < 1:
                raise ValueError(f"suite cycles must be >= 1, got {cycles}")
        return WorkloadSource(
            "suite", spec, [_SuiteWorkload(workload, bus or "register", cycles)]
        )
    raise ValueError(f"unrecognized workload spec {spec!r}; {_GRAMMAR}")
