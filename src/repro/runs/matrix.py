"""Cell identity and matrix construction for resumable runs.

A run is a *matrix* of independent cells.  Each cell is identified by a
**content key**: SHA-256 over the canonical JSON of everything that
determines its value — the coder spec, the workload *source digest*
(not the source path, so moving a corpus does not orphan its results),
the technology, the fault profile (BER + recovery policy), the coupling
ratio and the seed.  Two runs that compute the same cell therefore
agree on its key, and a resumed run recognises its own completed work
no matter how it was interrupted.

Execution knobs that cannot change a cell's *value* — ``--jobs``,
watchdog timeouts, retry budgets, chaos scripts, ``--kill-at`` — are
deliberately **excluded** from both the cell key and the config digest:
an interrupted-and-resumed run and an uninterrupted one must agree
byte-for-byte on their aggregate outputs, whatever execution drama
happened along the way.

Four matrix kinds cover the paper's artifacts, each accepting any
workload-source spec (``suite:``, ``corpus:``, ``gen:``) as its
workload axis:

* ``savings`` — streams x coders, normalised energy removed (%);
* ``crossover`` — streams x window sizes x technologies, break-even
  wire length (mm);
* ``table3`` — the crossover matrix plus median aggregates per
  (technology, entries, benchmark class);
* ``faults`` — streams x coders x recovery policies x BERs, net
  savings and recovery statistics on a faulty bus.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..analysis.crossover import CrossoverAnalysis
from ..coding.specs import parse_coder_spec
from ..corpus.workload import WorkloadSource, parse_workload_source
from ..energy import accounting
from ..faults.models import BitFlips, FaultyChannel
from ..faults.policies import resolve_policy
from ..faults.resilient import ResilientTranscoder
from ..traces.trace import BusTrace
from ..wires.technology import technology_by_name
from .ledger import content_digest

__all__ = [
    "MATRICES",
    "CellSpec",
    "RunConfig",
    "build_cells",
    "cell_key",
    "config_digest",
    "default_run_id",
    "make_cell_fn",
]

#: The matrix kinds `repro run` understands.
MATRICES = ("savings", "crossover", "table3", "faults")

_WINDOW_SPEC = re.compile(r"^window(\d+)?$")


@dataclass(frozen=True)
class CellSpec:
    """One cell's complete, content-addressed identity.

    ``source``/``stream`` locate the workload (the source spec string
    re-resolves inside whatever worker runs the cell); ``source_digest``
    is what actually identifies the *traffic*, so the key survives a
    corpus directory being moved and changes when its bytes change.
    """

    kind: str  #: matrix kind (``savings``/``crossover``/``table3``/``faults``)
    workload: str  #: display name of the stream
    source: str  #: workload-source spec the stream resolves through
    stream: int  #: index into the source's population
    source_digest: str  #: content digest of the stream's traffic
    coder: str  #: coder spec, e.g. ``window8``
    technology: str = ""  #: technology node (crossover/table3 cells)
    ber: float = 0.0  #: injected bit-error rate (faults cells)
    policy: str = ""  #: recovery policy name (faults cells)
    lam: float = 1.0  #: coupling ratio for the energy accounting
    seed: int = 0  #: fault-injection seed (faults cells)


def cell_key(spec: CellSpec) -> str:
    """The cell's stable content key (SHA-256 hex).

    ``vars`` of the flat spec is the field dict ``asdict`` would copy.
    """
    return content_digest(vars(spec))


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a matrix's cell values.

    Recorded verbatim in the ledger's ``run_open`` header, so
    ``repro run --resume <id>`` can rebuild the matrix without the
    caller repeating the arguments — and so a resume with *different*
    arguments is refused instead of silently mixing two experiments.
    """

    matrix: str
    sources: Tuple[str, ...]  #: workload-source specs (suite:/corpus:/gen:)
    coders: Tuple[str, ...]
    technologies: Tuple[str, ...] = ()
    bers: Tuple[float, ...] = ()
    policies: Tuple[str, ...] = ()
    lam: float = 1.0
    seed: int = 0
    streams: int = 0  #: per-source stream cap (0 = the whole population)

    def __post_init__(self):
        if self.matrix not in MATRICES:
            raise ValueError(
                f"unknown matrix {self.matrix!r}; choose from {', '.join(MATRICES)}"
            )
        if not self.sources:
            raise ValueError("a run needs at least one workload source")
        if not self.coders:
            raise ValueError("a run needs at least one coder spec")
        if self.matrix in ("crossover", "table3"):
            if not self.technologies:
                raise ValueError(f"{self.matrix} runs need --technologies")
            for coder in self.coders:
                if not _WINDOW_SPEC.match(coder):
                    raise ValueError(
                        f"{self.matrix} runs sweep the window transcoder's "
                        f"dictionary size; coder {coder!r} is not windowN"
                    )
        if self.matrix == "faults":
            if not self.bers:
                raise ValueError("faults runs need at least one --ber value")
            if not self.policies:
                raise ValueError("faults runs need at least one --policies name")
            for ber in self.bers:
                if not 0.0 <= ber < 1.0:
                    raise ValueError(f"--ber values must be in [0, 1), got {ber:g}")
        if self.streams < 0:
            raise ValueError(f"--streams must be >= 0, got {self.streams}")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunConfig":
        """Rebuild a config from a ledger header's ``config`` field."""
        return cls(
            matrix=str(data["matrix"]),
            sources=tuple(data["sources"]),
            coders=tuple(data["coders"]),
            technologies=tuple(data.get("technologies", ())),
            bers=tuple(float(b) for b in data.get("bers", ())),
            policies=tuple(data.get("policies", ())),
            lam=float(data.get("lam", 1.0)),
            seed=int(data.get("seed", 0)),
            streams=int(data.get("streams", 0)),
        )


def config_digest(config: RunConfig) -> str:
    """Content digest of the run configuration."""
    return content_digest(asdict(config))


def default_run_id(config: RunConfig) -> str:
    """The derived run id: matrix name + config digest prefix."""
    return f"{config.matrix}-{config_digest(config)[:12]}"


# -- stream enumeration -----------------------------------------------


def _stream_digest(source: WorkloadSource, spec: str, index: int) -> str:
    """A content digest for one stream of a source.

    * ``corpus`` — the shard's manifest digest (the corpus format
      already seals every shard's masked value bytes);
    * ``gen`` — the generator's description + the stream index (the
      generator contract makes ``(seed, index)`` byte-stable);
    * ``suite`` — the workload's program hash + bus + cycles (the
      simulator is deterministic in those).
    """
    if source.kind == "corpus":
        workload = source.for_stream(index)
        reader = getattr(workload, "_reader", None)
        if reader is not None:
            return reader.meta(workload.name).sha256
        return content_digest(["corpus", spec, workload.name])
    if source.kind == "gen":
        return content_digest(["gen", source.generator.describe(), index])
    workload = source.for_stream(index)
    from ..workloads.suite import program_hash

    base = workload.name.partition("/")[0]
    return content_digest(
        ["suite", base, workload.name, workload.cycles, program_hash(base)]
    )


def _enumerate_streams(
    config: RunConfig,
) -> List[Tuple[str, int, str, str]]:
    """All (source spec, stream index, name, digest) tuples of a run."""
    streams: List[Tuple[str, int, str, str]] = []
    for spec in config.sources:
        source = parse_workload_source(spec)
        count = source.size
        if config.streams:
            count = min(count, config.streams)
        for index in range(count):
            workload = source.for_stream(index)
            streams.append(
                (spec, index, workload.name, _stream_digest(source, spec, index))
            )
    return streams


def _window_entries(coder: str) -> int:
    match = _WINDOW_SPEC.match(coder)
    if not match:
        raise ValueError(f"coder {coder!r} is not a windowN spec")
    return int(match.group(1) or 8)


def build_cells(config: RunConfig) -> List[CellSpec]:
    """The run's full cell list, in canonical matrix order."""
    streams = _enumerate_streams(config)
    cells: List[CellSpec] = []
    if config.matrix == "savings":
        for spec, index, name, digest in streams:
            for coder in config.coders:
                parse_coder_spec(coder)  # fail fast on bad specs
                cells.append(
                    CellSpec(
                        kind="savings",
                        workload=name,
                        source=spec,
                        stream=index,
                        source_digest=digest,
                        coder=coder,
                        lam=config.lam,
                    )
                )
    elif config.matrix in ("crossover", "table3"):
        for spec, index, name, digest in streams:
            for coder in config.coders:
                _window_entries(coder)
                for tech in config.technologies:
                    technology_by_name(tech)  # fail fast on bad names
                    cells.append(
                        CellSpec(
                            kind=config.matrix,
                            workload=name,
                            source=spec,
                            stream=index,
                            source_digest=digest,
                            coder=coder,
                            technology=tech,
                            lam=config.lam,
                        )
                    )
    elif config.matrix == "faults":
        for spec, index, name, digest in streams:
            for coder in config.coders:
                parse_coder_spec(coder)
                for policy in config.policies:
                    resolve_policy(policy)
                    for ber in config.bers:
                        cells.append(
                            CellSpec(
                                kind="faults",
                                workload=name,
                                source=spec,
                                stream=index,
                                source_digest=digest,
                                coder=coder,
                                ber=float(ber),
                                policy=policy,
                                lam=config.lam,
                                seed=config.seed,
                            )
                        )
    # Equal specs are equal keys: no key needs computing here.
    if len(set(cells)) != len(cells):
        raise ValueError(
            "matrix contains duplicate cells (same source stream listed twice?)"
        )
    return cells


# -- cell execution ---------------------------------------------------


def _seed_for(workload: str, policy: str, ber: float, seed: int) -> int:
    """A stable per-cell RNG seed so cells are independently reproducible.

    Hashed with :mod:`hashlib` rather than the built-in ``hash`` so the
    seed survives interpreter restarts and ``PYTHONHASHSEED`` — a
    prerequisite for ``--jobs N`` runs matching serial runs cell for
    cell.
    """
    digest = hashlib.sha256(
        f"{workload}|{policy}|{ber!r}".encode("utf-8")
    ).digest()
    return (int.from_bytes(digest[:4], "big") % (1 << 31)) ^ seed


@dataclass
class _StreamRecord:
    """What every cell of one stream shares, whatever its kind."""

    digest: str  #: the stream's ``source_digest``
    trace: BusTrace
    base_counts: Optional[accounting.ActivityCounts] = None
    #: Crossover analyses per window entry count, priced per technology.
    analyses: Dict[int, CrossoverAnalysis] = field(default_factory=dict)

    def base(self) -> accounting.ActivityCounts:
        """Wire activity of the un-encoded stream, counted once."""
        if self.base_counts is None:
            # Through the module, so wrappers of ``count_activity`` see it.
            self.base_counts = accounting.count_activity(self.trace)
        return self.base_counts


def make_cell_fn() -> Callable[[CellSpec], Dict[str, Any]]:
    """A per-process cell executor with memoised source resolution.

    Fork workers inherit the (empty) memo and populate it lazily, so a
    worker running many cells of the same corpus opens its manifest
    once.  The returned values are small, JSON-ready dicts — floats and
    ``None`` only, no NaN (so canonical JSON round-trips exactly).

    The cells of one stream share a record of its stream-only
    artifacts: the resolved trace, its base wire activity and, for
    crossover cells, the audited window encode and coded activity per
    entry count (priced at each technology).  :func:`build_cells` puts
    a stream's cells next to each other, so the executor keeps only the
    current stream's record and drops it when a cell of another stream
    arrives.
    """
    sources: Dict[str, WorkloadSource] = {}
    record: Optional[_StreamRecord] = None

    def _stream(spec: CellSpec) -> _StreamRecord:
        nonlocal record
        if record is None or record.digest != spec.source_digest:
            record = None  # a new stream: forget the previous one first
            source = sources.get(spec.source)
            if source is None:
                source = parse_workload_source(spec.source)
                sources[spec.source] = source
            trace = source.for_stream(spec.stream).trace()
            record = _StreamRecord(spec.source_digest, trace)
        return record

    def _analysis(spec: CellSpec, stream: _StreamRecord) -> CrossoverAnalysis:
        tech = technology_by_name(spec.technology)
        entries = _window_entries(spec.coder)
        analysis = stream.analyses.get(entries)
        if analysis is None:
            analysis = CrossoverAnalysis(
                stream.trace, tech, entries, base_counts=stream.base()
            )
            stream.analyses[entries] = analysis
        return analysis.with_technology(tech)

    def execute(spec: CellSpec) -> Dict[str, Any]:
        stream = _stream(spec)
        trace = stream.trace
        if spec.kind in ("crossover", "table3"):
            analysis = _analysis(spec, stream)
            crossover = analysis.crossover_length()
            return {
                "crossover_mm": None if crossover is None else float(crossover),
                "ratio_5mm": float(analysis.ratio(5.0)),
            }
        if spec.kind == "savings":
            coder = parse_coder_spec(spec.coder, trace.width)
            coded = accounting.count_activity(coder.encode_trace(trace))
            return {
                "savings_pct": float(
                    accounting.energy_removed(stream.base(), coded, spec.lam)
                )
            }
        if spec.kind == "faults":
            policy = resolve_policy(spec.policy)
            coder = ResilientTranscoder(
                parse_coder_spec(spec.coder, trace.width), policy
            )
            channel = FaultyChannel(
                BitFlips(
                    spec.ber,
                    seed=_seed_for(spec.workload, spec.policy, spec.ber, spec.seed),
                )
            )
            run = coder.run(trace, channel)
            recovery = run.mean_cycles_to_recovery
            physical = accounting.count_activity(run.physical)
            return {
                "savings_pct": float(
                    accounting.energy_removed(stream.base(), physical, spec.lam)
                ),
                "correct_fraction": float(run.correct_fraction),
                "injected_cycles": int(run.injected_cycles),
                "detections": len(run.detections),
                "recoveries": len(run.recoveries),
                "mean_cycles_to_recovery": (
                    None if math.isnan(recovery) else float(recovery)
                ),
            }
        raise ValueError(f"unknown cell kind {spec.kind!r}")

    return execute


def coder_family(coder: str) -> str:
    """The coder spec's family name (``window8`` -> ``window``) —
    the circuit-breaker grouping for poisoned spec families."""
    match = re.match(r"^([a-z]+)", coder)
    return match.group(1) if match else coder


__all__.append("coder_family")
