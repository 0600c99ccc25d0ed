"""Declarative latency and energy SLOs over the metrics registry.

The paper's deployment claims are latency- *and* energy-denominated
(real-time pedestrian detection inside a TrueNorth-class power
envelope), so objectives here come in both currencies: "99% of
requests complete within 250 ms" and "95% of requests cost at most
10 mJ of simulated energy". An :class:`SLObjective` names a histogram
already being recorded (``serve_latency_seconds``,
``serve_request_energy_nj``), a per-request threshold, and a
compliance target; :func:`evaluate_objectives` reads the histogram's
cumulative buckets and reports, per objective:

- **compliance** — the fraction of requests at or under the threshold,
  measured conservatively from the greatest bucket bound that does not
  exceed the threshold (bucketed data can only under-count compliance,
  never over-count it);
- **error budget** — ``1 - target``, the tolerated bad fraction;
- **burn rate** — ``bad_fraction / error_budget``: 1.0 means the run
  consumed its budget exactly, above 1.0 the objective is burning
  budget faster than tolerated (the standard SRE burn-rate alarm
  signal, scaled to the evaluated run rather than a wall-clock
  window).

:func:`publish_results` exports the verdicts back into the registry
(``slo_requests_total`` / ``slo_bad_requests_total`` counters and the
``slo_burn_rate`` gauge, labeled by objective), and
``python -m repro obs <cmd>`` evaluates objectives against a real
serve or video run and emits the burn-rate report JSON (the ``slo``
value of its ``--output`` document) that the CI ``slo-smoke`` job
validates via :func:`validate_report`.
"""

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import (
    HistogramMetric,
    MetricsRegistry,
    get_registry,
)

REPORT_SCHEMA = "repro.slo/v1"
"""Schema tag stamped on every report (checked by the CI smoke)."""

_SIGNALS = ("latency", "energy")

#: Multiplier from an objective's threshold unit to each known metric's
#: native unit. Latency metrics record seconds and thresholds are given
#: in seconds (1.0); energy metrics record nanojoules while thresholds
#: are given in joules (1e9).
UNIT_SCALE = {"latency": 1.0, "energy": 1e9}


@dataclass(frozen=True)
class SLObjective:
    """One declarative service-level objective.

    Attributes:
        name: stable identifier (label value on the exported series).
        signal: ``"latency"`` or ``"energy"`` — decides the threshold
            unit (seconds vs joules) and its conversion to the metric's
            native unit.
        metric: base name of the histogram to evaluate
            (``serve_latency_seconds``, ``serve_request_energy_nj``).
        threshold: per-request ceiling in the signal's unit (seconds
            for latency, joules for energy).
        target: compliance target in ``(0, 1)`` — e.g. 0.99 means at
            most 1% of requests may exceed the threshold.
        description: one line for reports and dashboards.
    """

    name: str
    signal: str
    metric: str
    threshold: float
    target: float
    description: str = ""

    def __post_init__(self) -> None:
        if self.signal not in _SIGNALS:
            raise ValueError(
                f"signal must be one of {_SIGNALS}, got {self.signal!r}"
            )
        if not 0.0 < self.target < 1.0:
            raise ValueError(
                f"target must be in (0, 1), got {self.target}"
            )
        if not self.threshold > 0:
            raise ValueError(
                f"threshold must be > 0, got {self.threshold}"
            )

    @property
    def error_budget(self) -> float:
        """The tolerated bad-request fraction (``1 - target``)."""
        return 1.0 - self.target

    def to_json(self) -> Dict:
        """The objective as a JSON-ready dict."""
        return {
            "name": self.name,
            "signal": self.signal,
            "metric": self.metric,
            "threshold": self.threshold,
            "target": self.target,
            "description": self.description,
        }


@dataclass(frozen=True)
class SLOResult:
    """One objective's verdict over an evaluated run.

    Attributes:
        objective: the evaluated :class:`SLObjective`.
        total: requests observed by the metric.
        good: requests at or under the threshold (conservative, from
            the greatest bucket bound not exceeding the threshold).
        effective_bound: the bucket bound actually used, in the
            metric's native unit (NaN when the histogram has no bound
            at or under the threshold — then ``good`` is 0).
        compliance: ``good / total`` (1.0 when nothing was observed —
            an idle service violates nothing).
        burn_rate: bad fraction over the error budget; > 1.0 means the
            objective is out of budget for this run.
        met: whether compliance reached the target.
    """

    objective: SLObjective
    total: int
    good: int
    effective_bound: float
    compliance: float
    burn_rate: float
    met: bool

    @property
    def bad(self) -> int:
        """Requests over the threshold."""
        return self.total - self.good

    @property
    def budget_remaining(self) -> float:
        """Error budget left after this run (negative = overspent)."""
        return 1.0 - self.burn_rate

    def to_json(self) -> Dict:
        """The verdict as a JSON-ready dict (the report row shape)."""
        return {
            "objective": self.objective.to_json(),
            "total": self.total,
            "good": self.good,
            "bad": self.bad,
            "effective_bound": self.effective_bound,
            "compliance": self.compliance,
            "error_budget": self.objective.error_budget,
            "burn_rate": self.burn_rate,
            "budget_remaining": self.budget_remaining,
            "met": self.met,
        }


def default_objectives() -> Tuple[SLObjective, ...]:
    """The stock objectives ``python -m repro obs`` evaluates.

    One latency objective and one joules-per-request objective over
    the histograms every serve run records; thresholds are sized for
    the demo workloads (override with ``--objectives PATH``).
    """
    return (
        SLObjective(
            name="serve_latency_fast",
            signal="latency",
            metric="serve_latency_seconds",
            threshold=0.25,
            target=0.99,
            description="99% of requests complete within 250 ms",
        ),
        SLObjective(
            name="serve_energy_per_request",
            signal="energy",
            metric="serve_request_energy_nj",
            threshold=0.01,
            target=0.95,
            description="95% of requests cost at most 10 mJ simulated",
        ),
    )


def load_objectives(path: str) -> Tuple[SLObjective, ...]:
    """Objectives from a JSON file (a list of objective dicts).

    Raises:
        ValueError: on a malformed document or objective.
    """
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, list) or not document:
        raise ValueError(
            f"{path}: objectives file must be a non-empty JSON list"
        )
    objectives = []
    for entry in document:
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: objective entries must be objects")
        try:
            objectives.append(
                SLObjective(
                    name=entry["name"],
                    signal=entry["signal"],
                    metric=entry["metric"],
                    threshold=float(entry["threshold"]),
                    target=float(entry["target"]),
                    description=entry.get("description", ""),
                )
            )
        except KeyError as exc:
            raise ValueError(
                f"{path}: objective missing required key {exc}"
            ) from None
    return tuple(objectives)


def _histogram_buckets(
    registry: MetricsRegistry, metric: str
) -> Optional[Dict[str, int]]:
    """Cumulative ``{bound: count}`` for base name ``metric``.

    Prefers the unlabeled series (the parent-side request view); when
    only labeled series exist (e.g. purely shard-labeled after a
    merge), their per-bucket counts are summed.
    """
    with registry._lock:
        series = [
            m
            for m in registry._metrics.values()
            if isinstance(m, HistogramMetric) and m.name == metric
        ]
    unlabeled = [m for m in series if not m.labels]
    if unlabeled:
        series = unlabeled
    if not series:
        return None
    combined: Dict[str, int] = {}
    for metric_obj in series:
        for bound, cumulative in metric_obj.snapshot()["buckets"].items():
            combined[bound] = combined.get(bound, 0) + int(cumulative)
    return combined


def evaluate_objectives(
    registry: Optional[MetricsRegistry] = None,
    objectives: Optional[Sequence[SLObjective]] = None,
) -> List[SLOResult]:
    """Evaluate ``objectives`` against the histograms in ``registry``.

    An objective whose metric histogram is absent evaluates over zero
    requests (compliance 1.0, burn rate 0.0) — an idle or untouched
    signal has spent no budget.
    """
    reg = registry if registry is not None else get_registry()
    results: List[SLOResult] = []
    for objective in objectives if objectives is not None else default_objectives():
        native_threshold = objective.threshold * UNIT_SCALE[objective.signal]
        buckets = _histogram_buckets(reg, objective.metric)
        total = 0
        good = 0
        effective_bound = math.nan
        if buckets:
            total = max(buckets.values())
            candidates = [
                (float(bound), count)
                for bound, count in buckets.items()
                if bound != "+Inf" and float(bound) <= native_threshold
            ]
            if candidates:
                effective_bound, good = max(candidates)
        compliance = (good / total) if total else 1.0
        bad_fraction = 1.0 - compliance
        burn_rate = bad_fraction / objective.error_budget
        results.append(
            SLOResult(
                objective=objective,
                total=total,
                good=good,
                effective_bound=effective_bound,
                compliance=compliance,
                burn_rate=burn_rate,
                met=compliance >= objective.target,
            )
        )
    return results


def publish_results(
    results: Sequence[SLOResult],
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Export verdicts as registry series (labeled per objective).

    Bumps ``slo_requests_total`` / ``slo_bad_requests_total`` and sets
    the ``slo_burn_rate`` gauge for each objective, so an exposition
    scrape carries the burn-rate signal alongside the raw histograms.
    """
    reg = registry if registry is not None else get_registry()
    for result in results:
        labels = {"slo": result.objective.name}
        reg.counter(
            "slo_requests_total",
            help="requests evaluated against each objective",
            labels=labels,
        ).inc(result.total)
        reg.counter(
            "slo_bad_requests_total",
            help="requests over each objective's threshold",
            labels=labels,
        ).inc(result.bad)
        reg.gauge(
            "slo_burn_rate",
            help="error-budget burn rate per objective (1.0 = on budget)",
            labels=labels,
        ).set(result.burn_rate)


def report_json(results: Sequence[SLOResult]) -> Dict:
    """The full run report (the ``slo`` value of ``obs --output``)."""
    return {
        "schema": REPORT_SCHEMA,
        "objectives": [result.to_json() for result in results],
        "met_all": all(result.met for result in results),
    }


def validate_report(document: Dict) -> None:
    """Raise ``ValueError`` unless ``document`` is a well-formed report.

    The CI ``slo-smoke`` job runs this over the emitted JSON; tests
    share it so the schema cannot drift silently.
    """
    if document.get("schema") != REPORT_SCHEMA:
        raise ValueError(
            f"schema must be {REPORT_SCHEMA!r}, got {document.get('schema')!r}"
        )
    rows = document.get("objectives")
    if not isinstance(rows, list) or not rows:
        raise ValueError("objectives must be a non-empty list")
    if not isinstance(document.get("met_all"), bool):
        raise ValueError("met_all must be a boolean")
    for index, row in enumerate(rows):
        where = f"objectives[{index}]"
        objective = row.get("objective")
        if not isinstance(objective, dict):
            raise ValueError(f"{where}: objective must be an object")
        for key in ("name", "signal", "metric"):
            if not isinstance(objective.get(key), str) or not objective[key]:
                raise ValueError(
                    f"{where}: objective.{key} must be a non-empty string"
                )
        if objective["signal"] not in _SIGNALS:
            raise ValueError(
                f"{where}: objective.signal must be one of {_SIGNALS}"
            )
        for key in ("threshold", "target"):
            if not isinstance(objective.get(key), (int, float)):
                raise ValueError(f"{where}: objective.{key} must be numeric")
        for key in ("total", "good", "bad"):
            value = row.get(key)
            if not isinstance(value, int) or value < 0:
                raise ValueError(
                    f"{where}: {key} must be a non-negative integer"
                )
        if row["good"] + row["bad"] != row["total"]:
            raise ValueError(f"{where}: good + bad must equal total")
        for key in ("compliance", "error_budget", "burn_rate", "budget_remaining"):
            value = row.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{where}: {key} must be numeric")
        if not 0.0 <= row["compliance"] <= 1.0:
            raise ValueError(f"{where}: compliance must be in [0, 1]")
        if row["burn_rate"] < 0:
            raise ValueError(f"{where}: burn_rate must be >= 0")
        if not isinstance(row.get("met"), bool):
            raise ValueError(f"{where}: met must be a boolean")


def format_report(results: Sequence[SLOResult]) -> str:
    """A human-readable table of the verdicts."""
    lines = ["== SLO verdicts =="]
    for result in results:
        objective = result.objective
        unit = "s" if objective.signal == "latency" else "J"
        status = "MET" if result.met else "VIOLATED"
        lines.append(
            f"{objective.name:28s} [{status:8s}] "
            f"compliance {result.compliance:7.3%} "
            f"(target {objective.target:.1%}, "
            f"<= {objective.threshold:g}{unit}) "
            f"burn rate {result.burn_rate:6.2f} "
            f"over {result.total} requests"
        )
    return "\n".join(lines)


__all__ = [
    "REPORT_SCHEMA",
    "UNIT_SCALE",
    "SLOResult",
    "SLObjective",
    "default_objectives",
    "evaluate_objectives",
    "format_report",
    "load_objectives",
    "publish_results",
    "report_json",
    "validate_report",
]
