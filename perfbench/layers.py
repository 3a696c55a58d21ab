"""In-process layer timers for a traced matrix pass.

:class:`LayerTracer` wraps the program's public layer entry points from
the benchmark's side (the program itself is not edited) and keeps every
measurement in memory until :meth:`LayerTracer.report`.  Each wrapper is
a span on one stack: a layer is charged its *self* time, its duration
minus the time of spans opened inside it, so nested layers are never
counted twice and ``e2e - sum(layers)`` is what no layer explains.

Wrapped entry points, by layer:

* cpu -- ``repro.cpu.machine.Machine.run``;
* traces -- ``repro.traces.cache.TraceCache.load`` and ``.store``;
* hardware -- ``repro.analysis.crossover.window_artifacts``, the
  hardware-audited window encode;
* analysis -- ``CrossoverAnalysis.__post_init__``, ``.ratio`` and
  ``.crossover_length``;
* energy -- ``count_activity``, in every module that imported it;
* corpus -- ``ParametricGenerator.stream``;
* coding.<family> -- the family class's ``encode_trace`` (exact class
  only, so the hardware-audited window subclass is not counted twice);
* runs -- the cell function ``make_cell_fn`` returns; its self time is
  the in-cell work no layer above claims.

The pass runs at ``--jobs 1``: the executor then calls every cell in this
process, so the wrappers see all of the work.  The process is thrown away
after one pass, so nothing is ever unpatched.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from metrics import safe_ratio

#: Coder spec per family, as the savings workload runs them.
FAMILY_SPECS = {
    "window": "window8",
    "context": "context8",
    "stride": "stride4",
    "last": "last",
    "invert": "invert",
    "businvert": "businvert",
    "codebook": "codebook",
    "fcm": "fcm",
    "transition": "transition",
}

_ANALYSIS = ("analysis.post_init", "analysis.ratio", "analysis.crossover")


class LayerTracer:
    """Self-time accounting over a stack of wrapped calls."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.cycles: Dict[str, int] = defaultdict(int)
        self.cache_hits = 0
        self.audit_keys: set = set()
        self.generated: set = set()
        self._stack: List[float] = []  # child time of each open span

    def timed(
        self, layer: str, fn: Callable, after: Optional[Callable] = None
    ) -> Callable:
        """Wrap ``fn`` so its self time is charged to ``layer``.

        ``after(result, args)`` runs outside the timed region to record
        counts (cycles, hits) from the call.
        """
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[layer] += elapsed - stack.pop()
                self.calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def patch(
        self, owner: Any, attr: str, layer: str, after: Optional[Callable] = None
    ) -> None:
        setattr(owner, attr, self.timed(layer, getattr(owner, attr), after))

    def install(self) -> None:
        from repro.analysis import crossover
        from repro.coding.specs import parse_coder_spec
        from repro.corpus.generator import ParametricGenerator
        from repro.cpu.machine import Machine
        from repro.energy import accounting, bus_energy
        from repro.runs import executor
        from repro.traces.cache import TraceCache

        def count_cpu(result, _args):
            self.cycles["cpu"] += int(result.stats.cycles)

        def count_hit(result, _args):
            self.cache_hits += result is not None

        def count_audit(_result, args):
            trace, size = args
            self.cycles["hardware"] += len(trace)
            self.audit_keys.add((trace.name, len(trace), size))

        def count_generate(result, args):
            self.cycles["corpus"] += len(result)
            self.generated.add((args[0].describe(), args[1]))

        self.patch(Machine, "run", "cpu", count_cpu)
        self.patch(TraceCache, "load", "traces.load", count_hit)
        self.patch(TraceCache, "store", "traces.store")
        self.patch(crossover, "window_artifacts", "hardware", count_audit)
        for method, layer in zip(("__post_init__", "ratio", "crossover_length"), _ANALYSIS):
            self.patch(crossover.CrossoverAnalysis, method, layer)
        for module in (accounting, bus_energy, crossover):
            self.patch(module, "count_activity", "energy")
        self.patch(ParametricGenerator, "stream", "corpus", count_generate)

        # Capture every original before patching any: one family's class
        # may inherit ``encode_trace`` from another's.
        classes = {f: type(parse_coder_spec(s)) for f, s in FAMILY_SPECS.items()}
        originals = {f: cls.encode_trace for f, cls in classes.items()}
        for family, cls in classes.items():
            layer = f"coding.{family}"
            timed = self.timed(layer, originals[family], self._count_coded(layer))

            def encode_trace(coder, trace, _cls=cls, _timed=timed, _plain=originals[family]):
                return (_timed if type(coder) is _cls else _plain)(coder, trace)

            cls.encode_trace = encode_trace

        make_cell_fn = executor.make_cell_fn
        executor.make_cell_fn = lambda: self.timed("runs.cell", make_cell_fn())

    def _count_coded(self, layer: str) -> Callable:
        def after(_result, args):
            self.cycles[layer] += len(args[1])

        return after

    def report(self, run_wall_s: float, cells: int) -> Dict[str, float]:
        """Layer metrics of one pass whose ``run_matrix`` took ``run_wall_s``."""
        s, n, c = self.self_s, self.calls, self.cycles
        # Every wrapped call happens inside a cell, so the self times add
        # up to the cells' total duration.
        in_cell = sum(s.values())
        out: Dict[str, float] = {
            "cpu.sim_s": s["cpu"],
            "cpu.sim_mcycles_per_s": safe_ratio(c["cpu"] / 1e6, s["cpu"]),
            "traces.cache_load_s": s["traces.load"],
            "traces.cache_store_s": s["traces.store"],
            "traces.cache_lookups": n["traces.load"],
            "traces.cache_hit_ratio": safe_ratio(self.cache_hits, n["traces.load"]),
            "hardware.window_audit_s": s["hardware"],
            "hardware.window_audit_mcycles_per_s": safe_ratio(
                c["hardware"] / 1e6, s["hardware"]
            ),
            "hardware.window_audits": n["hardware"],
            "hardware.window_audit_reuse": safe_ratio(
                len(self.audit_keys), n["hardware"]
            ),
            "analysis.crossover_s": sum(s[layer] for layer in _ANALYSIS),
            "analysis.ratio_calls": safe_ratio(n["analysis.ratio"], cells),
            "energy.count_activity_s": s["energy"],
            "energy.count_activity_calls": n["energy"],
            "corpus.generate_s": s["corpus"],
            "corpus.generate_mcycles_per_s": safe_ratio(
                c["corpus"] / 1e6, s["corpus"]
            ),
            "corpus.generate_reuse": safe_ratio(len(self.generated), n["corpus"]),
            "runs.overhead_s": run_wall_s - in_cell,
            "runs.overhead_frac": safe_ratio(run_wall_s - in_cell, run_wall_s),
            # In-cell time outside every wrapped layer.
            "unattributed_s": s["runs.cell"],
        }
        for family in FAMILY_SPECS:
            layer = f"coding.{family}"
            out[f"{layer}.encode_s"] = s[layer]
            out[f"{layer}.mcycles_per_s"] = safe_ratio(c[layer] / 1e6, s[layer])
        return out


#: Per-layer metrics of the matrix workloads (zero on ``serve``).
LAYER_NAMES = tuple(
    name for name in LayerTracer().report(1.0, 1) if name != "unattributed_s"
)
