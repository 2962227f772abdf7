"""Lightweight experiment bookkeeping for parameter sweeps.

The benchmark harnesses sweep one parameter at a time (cluster count, cache
size, threshold, sampling rate, ...) and record one scalar per point.
:class:`ExperimentSweep` keeps those records, and knows how to render itself
through :mod:`repro.simulation.report` so every benchmark prints a uniform
"paper figure as a text table" block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.simulation.report import format_table


@dataclass(frozen=True)
class ExperimentRecord:
    """One measured point of a sweep."""

    parameters: Dict[str, object]
    metrics: Dict[str, float]


@dataclass
class ExperimentSweep:
    """A named collection of experiment records (one paper figure or table).

    Attributes
    ----------
    name:
        Identifier, e.g. ``"figure6"``.
    description:
        What the sweep reproduces, e.g. the paper's caption.
    records:
        The measured points, in sweep order.
    """

    name: str
    description: str = ""
    records: List[ExperimentRecord] = field(default_factory=list)

    def add(self, parameters: Dict[str, object], metrics: Dict[str, float]) -> ExperimentRecord:
        """Append one record and return it."""
        record = ExperimentRecord(parameters=dict(parameters), metrics=dict(metrics))
        self.records.append(record)
        return record

    def column(self, metric: str) -> List[float]:
        """The values of one metric across all records, in order."""
        return [record.metrics[metric] for record in self.records]

    def to_table(self) -> str:
        """Render all records as an aligned text table (floats to 3 places)."""
        if not self.records:
            return f"{self.name}: (no records)"
        parameter_names = list(self.records[0].parameters)
        metric_names = list(self.records[0].metrics)
        headers = parameter_names + metric_names
        rows = []
        for record in self.records:
            row = [str(record.parameters[p]) for p in parameter_names]
            row += [
                f"{record.metrics[m]:.3f}"
                if isinstance(record.metrics[m], float)
                else str(record.metrics[m])
                for m in metric_names
            ]
            rows.append(row)
        title = self.name if not self.description else f"{self.name} — {self.description}"
        return f"{title}\n" + format_table(headers, rows)
