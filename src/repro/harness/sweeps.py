"""Generic parameter sweeps over SystemConfig.

Sensitivity studies (Fig. 12's BTT sweep, the extension benches' epoch
and durability sweeps) all share one shape: vary a configuration field,
re-run a fixed workload, collect a metric series.  :func:`sweep_config`
factors that shape out so new studies are one-liners.

Both sweeps take the workload as a picklable
:class:`~repro.workloads.tracespec.TraceSpec` and submit the declared
point list through :mod:`repro.harness.parallel`, so ``jobs``/
``cache_dir`` fan the sweep out and reuse cached results.  ``jobs=1``
is the serial fallback and produces identical results.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, Optional

from ..config import SystemConfig
from ..stats.collector import StatsCollector
from ..workloads.tracespec import TraceSpec
from .parallel import ProgressFn, RunPoint, run_points


def _run_sweep(points, trace: TraceSpec, jobs: int,
               cache_dir: Optional[os.PathLike],
               progress: Optional[ProgressFn]):
    """Shared sweep body: points is [(result_key, system, config), ...]."""
    run_list = [RunPoint(system=system, trace=trace, config=config,
                         label=f"{system}/{key}")
                for key, system, config in points]
    results = run_points(run_list, jobs=jobs, cache_dir=cache_dir,
                         progress=progress)
    return [(key, result.stats)
            for (key, _, _), result in zip(points, results)]


def sweep_config(
    field: str,
    values: Iterable[object],
    trace: TraceSpec,
    system: str = "thynvm",
    base_config: Optional[SystemConfig] = None,
    metric: Optional[Callable[[StatsCollector], object]] = None,
    jobs: int = 1,
    cache_dir: Optional[os.PathLike] = None,
    progress: Optional[ProgressFn] = None,
) -> Dict[object, object]:
    """Run the workload once per value of ``config.<field>``.

    Returns ``{value: metric(stats)}`` (the full :class:`StatsCollector`
    when ``metric`` is None).  The trace is rebuilt from ``trace`` for
    every run, so generator workloads replay identically.
    """
    base = base_config if base_config is not None else SystemConfig()
    points = [(value, system, base.with_overrides(**{field: value}))
              for value in values]
    ran = _run_sweep(points, trace, jobs, cache_dir, progress)
    return {value: metric(stats) if metric is not None else stats
            for value, stats in ran}


def sweep_systems(
    systems: Iterable[str],
    trace: TraceSpec,
    config: Optional[SystemConfig] = None,
    metric: Optional[Callable[[StatsCollector], object]] = None,
    jobs: int = 1,
    cache_dir: Optional[os.PathLike] = None,
    progress: Optional[ProgressFn] = None,
) -> Dict[str, object]:
    """Run the same workload across systems (one row of any figure)."""
    config = config if config is not None else SystemConfig()
    points = [(system, system, config) for system in systems]
    ran = _run_sweep(points, trace, jobs, cache_dir, progress)
    return {system: metric(stats) if metric is not None else stats
            for system, stats in ran}
