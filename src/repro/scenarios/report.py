"""The result object of one scenario run, JSON-ready for benchmark artifacts."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass
class ScenarioReport:
    """Everything one windowed scenario replay observed.

    The replay serves the evaluation split query by query and closes a
    measurement window every ``window_queries`` queries; each window's DRAM
    hit rate is the delta of the table's cumulative counters over that
    window, so the series directly renders "hit rate vs time" — the decay
    curve a stale placement produces under drift, and the recovery the
    re-partitioning lifecycle buys back.
    """

    table_name: str
    num_train_queries: int
    num_eval_queries: int
    window_queries: int
    window_hit_rates: List[float] = field(default_factory=list)
    #: Queries served since the live placement last changed, sampled at each
    #: window close (monotone without a lifecycle; saw-toothed with one).
    window_partition_age: List[int] = field(default_factory=list)
    overall_hit_rate: float = 0.0
    #: Mean hit rate over the first quarter of windows (the placement still
    #: matches its training distribution here).
    early_hit_rate: float = 0.0
    #: Mean hit rate over the last quarter of windows (maximum staleness).
    late_hit_rate: float = 0.0
    repartition: Optional[Dict[str, object]] = None

    @property
    def hit_rate_decay(self) -> float:
        """Early-minus-late hit rate: how much the run lost to staleness."""
        return self.early_hit_rate - self.late_hit_rate

    @classmethod
    def quarter_means(cls, windows: List[float]) -> Tuple[float, float]:
        """(early, late) means over the first and last quarter of windows."""
        span = max(1, len(windows) // 4)
        return _mean(windows[:span]), _mean(windows[-span:])

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (rounded — these land in committed artifacts)."""
        payload: Dict[str, object] = {
            "table_name": self.table_name,
            "num_train_queries": self.num_train_queries,
            "num_eval_queries": self.num_eval_queries,
            "window_queries": self.window_queries,
            "window_hit_rates": [round(rate, 6) for rate in self.window_hit_rates],
            "window_partition_age": list(self.window_partition_age),
            "overall_hit_rate": round(self.overall_hit_rate, 6),
            "early_hit_rate": round(self.early_hit_rate, 6),
            "late_hit_rate": round(self.late_hit_rate, 6),
            "hit_rate_decay": round(self.hit_rate_decay, 6),
        }
        if self.repartition is not None:
            payload["repartition"] = self.repartition
        return payload
