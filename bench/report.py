"""Metrics of one run: end-to-end figures from the task records of an
untraced run, per-layer figures from the spans of a traced run."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import speed
from spans import ROOT, self_times

MODULES = ("core", "density", "measure", "pricing", "simulate", "estimate", "limits", "cli")
TAIL_BEYOND = 10


@dataclass(frozen=True)
class TaskRecord:
    index: int
    seconds: float
    outcome: str  # "ok" or a failure: "error", "tolerance", "check", "crash"
    detail: str = ""
    ref: float = 0.0  # seconds of the host-speed reference run before the task


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with TAIL_BEYOND values above it.

    Returns (value, percentile, values beyond it).  With too few values
    the maximum is returned, with the count of values above it (zero).
    """
    xs = sorted(values)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs), TAIL_BEYOND


def metric(value: float, unit: str, samples: int, **extra) -> dict:
    return {"value": float(value), "unit": unit, "samples": samples, **extra}


def end_to_end(records: list[TaskRecord], setup: list[tuple[float, float]],
               peak_rss_mb: float) -> dict:
    """Every end-to-end metric, by name, with timings at nominal host speed.

    ``setup`` holds (seconds, reference) per set-up process.  Each timing
    also carries its unscaled value as ``raw``.
    """
    ok = [r for r in records if r.outcome == "ok"]
    if not ok:
        raise RuntimeError("no task succeeded, so no latency can be reported")
    refs = speed.smoothed([r.ref for r in records])
    scaled = {r.index: speed.scale(r.seconds, ref) for r, ref in zip(records, refs)}
    ok_scaled = [scaled[r.index] for r in ok]
    ok_raw = [r.seconds for r in ok]
    tail_value, pct, beyond = tail(ok_scaled)
    return {
        "setup_s": metric(statistics.median(speed.scale(s, ref) for s, ref in setup), "s",
                          len(setup), raw=statistics.median(s for s, _ in setup)),
        "tasks_per_s": metric(len(ok) / sum(scaled.values()), "1/s", len(ok),
                              raw=len(ok) / sum(r.seconds for r in records)),
        "task_p50_ms": metric(1e3 * statistics.median(ok_scaled), "ms", len(ok),
                              raw=1e3 * statistics.median(ok_raw)),
        "task_tail_ms": metric(1e3 * tail_value, "ms", len(ok), raw=1e3 * tail(ok_raw)[0],
                               percentile=round(pct, 3), beyond=beyond),
        "ok_frac": metric(len(ok) / len(records), "frac", len(records)),
        "peak_rss_mb": metric(peak_rss_mb, "MB", len(setup)),
    }


class _Spans:
    def __init__(self, spans):
        self.spans = spans
        self.self_time = self_times(spans)

    def named(self, name: str, **attrs):
        return [s for s in self.spans
                if s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def per_call(self, name: str, scale: float, **attrs) -> float:
        found = self.named(name, **attrs)
        return scale * sum(s.duration for s in found) / len(found) if found else 0.0

    def per_unit(self, name: str, unit: str, scale: float, **attrs) -> float:
        found = self.named(name, **attrs)
        units = sum(s.attrs[unit] for s in found)
        return scale * sum(s.duration for s in found) / units if units else 0.0

    def attr_mean(self, name: str, attr: str) -> float:
        vals = [s.attrs[attr] for s in self.named(name) if attr in s.attrs]
        return sum(vals) / len(vals) if vals else 0.0

    def busy(self, module: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_time) if s.module == module)


def per_layer(spans, n_tasks: int, span_cost: float) -> dict:
    """Every per-layer metric, by name; ``n_tasks`` is the sample count."""
    sp = _Spans(spans)
    task_time = sum(s.duration for s in spans if s.name == ROOT)
    if not task_time:
        raise RuntimeError("the traced run recorded no task")
    frac, count = "frac", "count"
    out = {f"{m}.busy_frac": (sp.busy(m) / task_time, frac) for m in MODULES}
    out.update({
        "core.cf.ns_per_point": (sp.per_unit("core.cf", "points", 1e9), "ns"),
        "density.plan.ms": (sp.per_call("density.DensityEvaluator", 1e3), "ms"),
        "density.grid.ms": (sp.per_call("density.grid", 1e3), "ms"),
        "density.pdf.us_per_point": (sp.per_unit("density.pdf", "points", 1e6), "us"),
        "density.cdf.ms_per_call": (sp.per_call("density.cdf", 1e3), "ms"),
        "density.mode.ms": (sp.per_call("density.mode", 1e3), "ms"),
        "density.nodes": (sp.attr_mean("density.grid", "nodes"), count),
        "measure.esscher.ms": (sp.per_call("measure.esscher_martingale", 1e3), "ms"),
        "measure.phi_domain.ms": (sp.per_call("measure.phi_domain", 1e3), "ms"),
        "measure.curve_point.ms": (sp.per_call("measure.curve_point", 1e3), "ms"),
        "measure.mmm.ms": (sp.per_call("measure.minimal_martingale", 1e3), "ms"),
        "measure.failed": (sum(1 for s in spans if s.module == "measure" and s.error), count),
        "pricing.fourier.ms_per_price": (sp.per_call("pricing.call_price_fourier", 1e3), "ms"),
        "pricing.strip.ms": (sp.per_call("pricing.strip", 1e3), "ms"),
        "pricing.mc.us_per_path": (sp.per_unit("pricing.mc_call_price", "paths", 1e6), "us"),
        **{f"simulate.sample.us_per_draw.{b}":
           (sp.per_unit("simulate.sample_one_sided", "draws", 1e6, bucket=b), "us")
           for b in ("m1", "m13", "m130")},
        "simulate.path.us_per_step":
            (sp.per_unit("simulate.simulate_path", "steps", 1e6, floored=False), "us"),
        "simulate.path_floored.us_per_step":
            (sp.per_unit("simulate.simulate_path", "steps", 1e6, floored=True), "us"),
        "simulate.jumps_per_path": (sp.attr_mean("simulate.simulate_path", "jumps"), count),
        "estimate.cumulants.ns_per_obs":
            (sp.per_unit("estimate.sample_cumulants", "obs", 1e9), "ns"),
        "estimate.fit.ms": (sp.per_call("estimate.fit_two_sided", 1e3), "ms"),
        "estimate.multistart.ms": (sp.per_call("estimate.multistart_fit_two_sided", 1e3), "ms"),
        "estimate.fit.iterations": (sp.attr_mean("estimate.fit_two_sided", "iterations"), count),
        "estimate.converged_frac":
            (sp.attr_mean("estimate.multistart_fit_two_sided", "converged"), frac),
        "limits.berry_esseen.us": (sp.per_call("limits.berry_esseen_bound", 1e6), "us"),
        **{f"cli.{c}.ms": (sp.per_call(f"cli.{c}", 1e3), "ms")
           for c in ("density", "diagnose", "simulate", "fit", "price", "measure")},
        "cli.bytes_out":
            (sum(s.attrs["bytes"] for s in spans if s.module == "cli") / n_tasks, count),
        "bench.self.busy_frac": (sp.busy("bench") / task_time, frac),
        "trace.overhead_frac": (len(spans) * span_cost / task_time, frac),
    })
    return {name: metric(v, unit, n_tasks) for name, (v, unit) in out.items()}
