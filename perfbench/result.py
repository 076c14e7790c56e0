"""One run's outcome and its printed record."""

from __future__ import annotations

from collections import Counter

#: Failure causes, itemised in every traced record as ``errors.<cause>``.
CAUSES = ("exit", "wrong", "5xx_invalid", "5xx_valid", "timeout", "refused")

#: ``(metric, layer span, field)`` read straight off the folded trace.
_SPAN_METRICS = (
    ("datasets.load.calls", "datasets.load", "calls"),
    ("datasets.load.self_s", "datasets.load", "self_s"),
    ("core.spectral.slem.calls", "core.spectral.slem", "calls"),
    ("core.spectral.slem.self_s", "core.spectral.slem", "self_s"),
    ("core.operators.build.calls", "core.operators.build", "calls"),
    ("core.operators.build.self_s", "core.operators.build", "self_s"),
    ("core.operators.sweep.self_s", "core.operators.sweep", "self_s"),
    ("core.backends.step.calls", "core.backends.step", "calls"),
    ("core.backends.step.self_s", "core.backends.step", "self_s"),
    ("core.backends.step.row_steps", "core.backends.step", "amount"),
    ("core.mixing.measure.self_s", "core.mixing.measure", "self_s"),
    ("core.mixing.tvd.calls", "core.mixing.tvd", "calls"),
    ("core.mixing.tvd.self_s", "core.mixing.tvd", "self_s"),
    ("core.parallel.publish.self_s", "core.parallel.publish", "self_s"),
    ("core.parallel.sweep.self_s", "core.parallel.sweep", "self_s"),
    ("core.parallel.shards", "core.parallel.shard", "calls"),
    ("graph.storage.open.self_s", "graph.storage.open", "self_s"),
    ("sybil.admission.calls", "sybil.admission", "calls"),
    ("sybil.admission.self_s", "sybil.admission", "self_s"),
    ("core.incremental.warm.calls", "core.incremental.warm", "calls"),
    ("core.incremental.warm.self_s", "core.incremental.warm", "self_s"),
    ("service.engine.self_s", "service.engine", "self_s"),
    ("service.codec.self_s", "service.codec", "self_s"),
    ("service.cache.self_s", "service.cache", "self_s"),
    ("service.registry.acquire.self_s", "service.registry.acquire", "self_s"),
    ("service.registry.builds", "service.registry.build", "calls"),
)

#: Layers whose self time is a printed metric.
REPORTED_SELF_LAYERS = tuple(layer for _, layer, field in _SPAN_METRICS if field == "self_s")

_COUNTER_METRICS = (
    "core.backends.streaming.stripes",
    "core.backends.streaming.bytes_computed",
    "core.incremental.cold_fallbacks",
)


class Result:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.outcomes = []
        self.causes = Counter()
        self.values = {}
        self.detail = {}

    def count(self, verdict: str) -> None:
        """Record one attempted operation: ``"ok"`` or its failure cause."""
        self.outcomes.append(verdict == "ok")
        if verdict != "ok":
            self.causes[verdict] += 1

    def metric(self, name: str, value: float) -> None:
        self.values[name] = float(value)

    def layers(self, folded) -> None:
        for metric, layer, field in _SPAN_METRICS:
            self.metric(metric, getattr(folded, field).get(layer, 0.0))
        for name in _COUNTER_METRICS:
            self.metric(name, folded.counters.get(name, 0.0))

    def attribution(self, wall_s: float, self_s, extra_s: float = 0.0) -> None:
        """Wall time in no reported layer, and the reported share (ROADMAP
        target 0.9).  Only the self time of layers printed as ``*.self_s``
        metrics counts as named, plus ``extra_s`` already reported
        elsewhere (the service's transport time)."""
        named_s = extra_s + sum(self_s.get(layer, 0.0) for layer in REPORTED_SELF_LAYERS)
        self.metric("unattributed.self_s", wall_s - named_s)
        self.metric("attribution.share", named_s / wall_s if wall_s > 0 else 0.0)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.outcomes if not ok)

    def finish_errors(self) -> None:
        self.metric("error_rate", self.failed / max(self.attempted, 1))
        for cause in CAUSES:
            self.metric(f"errors.{cause}", self.causes.get(cause, 0))

    def output(self, specs, *, layered: bool) -> dict:
        """The result's last line: exactly the metrics named in ``specs``.

        Every end-to-end metric must have been measured.  A per-layer
        metric of a layer this workload never enters reads 0.
        """
        values = {
            spec["name"]: self.values.get(spec["name"], 0.0) if layered else self.values[spec["name"]]
            for spec in specs
        }
        return {
            "correct": self.causes["wrong"] == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
                for spec in specs
            },
        }
