"""Spans around calls into adjustkit's layers, taken from outside the package.

The traced run rebinds each public function under the name its caller
looks it up by (``adjustkit.cli.criterion_table``,
``adjustkit.criterion.transform_dataset``, ...) to a wrapper that records a
span: name, layer, start, end, parent span and operation index.  Spans are
kept in memory and written out with the run's result.  Nothing under
``src/`` changes, and the originals are put back when the run ends.

Wrapped calls are all made from the benchmark's own thread (the package's
worker threads run below ``criterion_table``), so one stack of open spans
gives every span its parent.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._open: list[int] = []

    def wrap(self, fn, name: str, layer: str, count=None):
        """Wrapper recording a span per call; count(args, result) -> dict of counters."""

        def traced(*args, **kwargs):
            span = Span(name, layer, time.perf_counter(), 0.0,
                        self._open[-1] if self._open else None, self.op)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                span.counts.update(count(args, result))
            return result

        return traced

    @contextmanager
    def installed(self, points):
        """Rebind every (owner, attribute, name, layer, count) point while active.

        An owner is a module (attribute rebinding) or a dict (item rebinding).
        """
        saved = []
        try:
            for owner, attr, name, layer, count in points:
                original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
                saved.append((owner, attr, original))
                wrapped = self.wrap(original, name, layer, count)
                if isinstance(owner, dict):
                    owner[attr] = wrapped
                else:
                    setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def layer_totals(self) -> dict:
        """Per layer: self seconds, entry calls and summed counters; per span name: self seconds and calls."""
        layers: dict = {}
        names: dict = {}
        for s, own in zip(self.spans, self.self_times()):
            entry = s.parent is None or self.spans[s.parent].layer != s.layer
            lay = layers.setdefault(s.layer, {"s": 0.0, "calls": 0})
            lay["s"] += own
            lay["calls"] += entry
            for key, value in s.counts.items():
                lay[key] = lay.get(key, 0) + value
            nam = names.setdefault(s.name, {"s": 0.0, "calls": 0})
            nam["s"] += own
            nam["calls"] += 1
        return {"layers": layers, "names": names}

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "layer": s.layer, "start": s.start, "end": s.end,
             "parent": s.parent, "op": s.op, **s.counts}
            for s in self.spans
        ]


def trace_points(ak) -> list[tuple]:
    """The rebinding table: where each layer is entered, by whom, and what it counts.

    ``ak`` maps short module names to the imported adjustkit modules.
    """
    cli, criterion, copula = ak["cli"], ak["criterion"], ak["copula"]
    sim_bench, set_analysis = ak["sim_bench"], ak["set_analysis"]

    def table_counts(args, table):
        return {"subsets": int(table.values.size),
                "singular": int(table.metadata.get("singular_blocks", 0))}

    def selected(args, result):
        return {"selected": len(result.selected)}

    def members_in(args, result):
        return {"members": len(args[0])}

    points = [
        # the select and oracle commands are dispatched through this table
        (cli._COMMANDS, "select", "cli.cmd_select", "cli", None),
        (cli._COMMANDS, "oracle", "cli.cmd_oracle", "cli", None),
        (cli, "load_csv", "data_model.load_csv", "data_model",
         lambda args, d: {"rows": d.n}),
        (criterion, "transform_dataset", "copula.transform_dataset", "copula", None),
        # one DegeneratePooling warning is issued per flagged coordinate
        (copula, "fit_copula", "copula.fit_copula", "copula",
         lambda args, tf: {"degenerate": int(tf.degenerate.sum())}),
        (criterion, "group_moments", "inverse_regression.group_moments",
         "inverse_regression", None),
        (criterion, "outcome_candidate", "inverse_regression.outcome_candidate",
         "inverse_regression", None),
        (criterion, "treatment_candidate", "inverse_regression.treatment_candidate",
         "inverse_regression", None),
        (cli, "structure_report", "set_analysis.structure_report", "set_analysis",
         lambda args, rep: {"members": rep.n_members}),
        # structure_report and its helpers look this one up in their own module
        (set_analysis, "locally_minimal", "set_analysis.locally_minimal",
         "set_analysis", None),
        (sim_bench, "locally_minimal", "set_analysis.locally_minimal", "set_analysis",
         members_in),
        (sim_bench, "collider_indices", "set_analysis.collider_indices", "set_analysis",
         members_in),
        (sim_bench, "generate_model", "sim_bench.generate_model", "sim_bench", None),
        (sim_bench, "compute_metrics", "sim_bench.compute_metrics", "sim_bench", None),
    ]
    for module in (cli, sim_bench):
        points += [
            (module, "criterion_table", "criterion.criterion_table", "criterion",
             table_counts),
            (module, "select", "selection.select", "selection", selected),
            (module, "true_collection", "dag_oracle.true_collection", "dag_oracle", None),
        ]
    return points


def layer_metrics(totals: dict, ops: int, cli_bytes: float) -> dict:
    """Per-operation per-layer metrics as named in BENCHMARK.json."""
    layers, names = totals["layers"], totals["names"]

    def lay(layer, key):
        return layers.get(layer, {}).get(key, 0) / ops

    def own(name):
        return names.get(name, {}).get("s", 0.0) / ops

    values = {
        "data_model.load_s": (lay("data_model", "s"), "s"),
        "data_model.rows": (lay("data_model", "rows"), "count"),
        "copula.s": (lay("copula", "s"), "s"),
        "copula.calls": (lay("copula", "calls"), "count"),
        "copula.degenerate": (lay("copula", "degenerate"), "count"),
        "inverse_regression.s": (lay("inverse_regression", "s"), "s"),
        "inverse_regression.calls": (lay("inverse_regression", "calls"), "count"),
        "criterion.s": (lay("criterion", "s"), "s"),
        "criterion.calls": (lay("criterion", "calls"), "count"),
        "criterion.subsets": (lay("criterion", "subsets"), "count"),
        "criterion.singular": (lay("criterion", "singular"), "count"),
        "selection.s": (lay("selection", "s"), "s"),
        "selection.selected": (lay("selection", "selected"), "count"),
        "set_analysis.s": (lay("set_analysis", "s"), "s"),
        "set_analysis.members": (lay("set_analysis", "members"), "count"),
        "dag_oracle.s": (lay("dag_oracle", "s"), "s"),
        "dag_oracle.calls": (lay("dag_oracle", "calls"), "count"),
        "sim_bench.generate_s": (own("sim_bench.generate_model"), "s"),
        "sim_bench.metrics_s": (own("sim_bench.compute_metrics"), "s"),
        "cli.s": (lay("cli", "s"), "s"),
        "cli.bytes": (cli_bytes, "B"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
