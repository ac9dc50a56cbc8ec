"""Experiment registry: id → harness, shared by the CLI and benches.

A runner takes as keyword parameters exactly the protocol options it
reads (``runs``, ``workers``, ``cache``, ``shard_size``), and the CLI
gives each subcommand those flags and no others: ``table1`` and
``fig5`` take none, the Fig. 1 runners only ``runs``.  Runners that
need a sweep route it through :mod:`repro.experiments.executor`, so
``python -m repro fig3a --workers 8 --cache DIR`` parallelises and
memoises exactly like ``repro sweep`` does.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ExperimentError
from .fig1 import fig1a, fig1b, fig1c
from .fig3 import fig3a, fig3b, fig3c
from .fig4 import fig4
from .fig5 import fig5
from .scorecard import run_scorecard
from .sensitivity import run_sensitivity
from .sweep import run_sweep
from .table1 import table1

__all__ = ["EXPERIMENTS", "experiment_ids", "run_experiment"]


def _render_table1() -> str:
    return table1().render()


def _render_fig1(fn) -> Callable[..., str]:
    def runner(runs: int = 10) -> str:
        return fn(runs=runs).render()

    return runner


def _render_fig3(fn) -> Callable[..., str]:
    def runner(
        runs: int = 10,
        sweep=None,
        workers: int = 1,
        cache=None,
        shard_size=None,
    ) -> str:
        sweep = sweep or run_sweep(
            runs=runs, workers=workers, cache=cache, shard_size=shard_size
        )
        return fn(sweep=sweep).render()

    return runner


def _render_fig5() -> str:
    return fig5().render()


def _render_all(
    runs: int = 10, workers: int = 1, cache=None, shard_size=None
) -> str:
    """Every table and figure, sharing one evaluation sweep."""
    sweep = run_sweep(
        runs=runs, workers=workers, cache=cache, shard_size=shard_size
    )
    parts = [
        table1().render(),
        fig1a(runs=runs).render(),
        fig1b(runs=runs).render(),
        fig1c(runs=runs).render(),
        fig3a(sweep=sweep).render(),
        fig3b(sweep=sweep).render(),
        fig3c(sweep=sweep).render(),
        fig4(sweep=sweep).render(),
        fig5().render(),
    ]
    if sweep.execution is not None:
        parts.append(sweep.execution.render())
    return "\n\n".join(parts)


def _render_scorecard(
    runs: int = 10,
    sweep=None,
    workers: int = 1,
    cache=None,
    shard_size=None,
) -> str:
    sweep = sweep or run_sweep(
        runs=runs, workers=workers, cache=cache, shard_size=shard_size
    )
    return run_scorecard(sweep=sweep, runs=runs).render()


def _render_sensitivity(workers: int = 1, cache=None, shard_size=None) -> str:
    return run_sensitivity(
        workers=workers, cache=cache, shard_size=shard_size
    ).render()


def _render_sweep(
    runs: int = 10, workers: int = 1, cache=None, shard_size=None
) -> str:
    sweep = run_sweep(
        runs=runs, workers=workers, cache=cache, shard_size=shard_size
    )
    parts = [sweep.render()]
    within, total = sweep.respected_count("dufp")
    parts.append(f"dufp tolerance respected in {within}/{total} configurations")
    if sweep.execution is not None:
        parts.append(sweep.execution.render())
    return "\n".join(parts)


EXPERIMENTS: dict[str, Callable[..., str]] = {
    "table1": _render_table1,
    "scorecard": _render_scorecard,
    "sensitivity": _render_sensitivity,
    "sweep": _render_sweep,
    "fig1a": _render_fig1(fig1a),
    "fig1b": _render_fig1(fig1b),
    "fig1c": _render_fig1(fig1c),
    "fig3a": _render_fig3(fig3a),
    "fig3b": _render_fig3(fig3b),
    "fig3c": _render_fig3(fig3c),
    "fig4": _render_fig3(fig4),
    "fig5": _render_fig5,
    "all": _render_all,
}


def experiment_ids() -> tuple[str, ...]:
    """Every runnable experiment id, CLI order."""
    return tuple(EXPERIMENTS)


def run_experiment(experiment_id: str, **kwargs) -> str:
    """Run one experiment by id and return its rendered report."""
    runner = EXPERIMENTS.get(experiment_id)
    if runner is None:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {', '.join(EXPERIMENTS)}"
        )
    return runner(**kwargs)
