"""Execution timelines: when each engine is busy during a network run.

The SoC model composes its latency from per-module phase times; the
timeline lays those same times out — per module, which window the GPU
(N), the NPU (F) and the AU (A) occupy — so the Fig 8 overlap is
inspectable and renderable as a text Gantt chart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Interval", "Timeline", "build_timeline", "render_gantt"]


@dataclass(frozen=True)
class Interval:
    engine: str
    module: str
    start: float
    end: float

    @property
    def duration(self):
        return self.end - self.start


@dataclass
class Timeline:
    intervals: list = field(default_factory=list)

    @property
    def makespan(self):
        return max((iv.end for iv in self.intervals), default=0.0)

    def engine_busy(self, engine):
        return sum(iv.duration for iv in self.intervals
                   if iv.engine == engine)

    def utilization(self, engine):
        span = self.makespan
        return self.engine_busy(engine) / span if span else 0.0

    def overlap(self, engine_a, engine_b):
        """Total time both engines are simultaneously busy."""
        total = 0.0
        for a in self.intervals:
            if a.engine != engine_a:
                continue
            for b in self.intervals:
                if b.engine != engine_b:
                    continue
                total += max(
                    0.0, min(a.end, b.end) - max(a.start, b.start)
                )
        return total


def build_timeline(soc, network, config):
    """Schedule a network on an SoC configuration.

    Runs :meth:`repro.hw.soc.SoC.simulate` and places each module's
    phase windows (:meth:`repro.hw.soc.ModuleTime.windows`) after the
    previous module's, so the makespan is the simulator's latency.
    """
    from .soc import CONFIGS

    if isinstance(config, str):
        config = CONFIGS[config]
    engines = {
        "N": "GPU:N",
        "F": "NPU:F" if config.use_npu else "GPU:F",
        "A": "AU:A" if config.use_au else "GPU:A",
        "O": "GPU:O",
    }
    timeline = Timeline()
    clock = 0.0
    for times in soc.simulate(network, config).modules:
        windows, span = times.windows(config.overlap)
        for phase, start, end in windows:
            timeline.intervals.append(Interval(
                engines[phase], times.module, clock + start, clock + end
            ))
        clock += span
    return timeline


def render_gantt(timeline, width=72):
    """Render a text Gantt chart, one row per engine."""
    span = timeline.makespan
    if span == 0:
        return "(empty timeline)"
    engines = sorted({iv.engine for iv in timeline.intervals})
    lines = []
    for engine in engines:
        row = [" "] * width
        for iv in timeline.intervals:
            if iv.engine != engine:
                continue
            lo = int(iv.start / span * (width - 1))
            hi = max(lo + 1, int(iv.end / span * (width - 1)))
            for i in range(lo, min(hi, width)):
                row[i] = "#"
        lines.append(f"{engine:7s} |{''.join(row)}|")
    lines.append(f"{'':7s}  0{'':{width - 12}}{span * 1e3:.2f} ms")
    return "\n".join(lines)
