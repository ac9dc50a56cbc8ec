"""Node budget distribution: allocator and coordinated controllers."""

import pytest

from repro.config import ControllerConfig, NoiseConfig
from repro.core.baselines import DefaultController, StaticPowerCap
from repro.core.budget import (
    NodeBudgetCoordinator,
    allocate_budget,
)
from repro.errors import ControllerError
from repro.sim.run import run_application
from repro.workloads.catalog import build_application


QUIET = NoiseConfig(duration_jitter=0.001, counter_noise=0.001, power_noise=0.001)


def uniform(demands_w, total_w):
    """The allocator over one [65 W, 125 W] band per socket."""
    n = len(demands_w)
    return allocate_budget(demands_w, total_w, [65.0] * n, [125.0] * n)


class TestAllocator:
    def test_budget_covers_demand(self):
        alloc = uniform([100.0, 80.0], 250.0)
        assert alloc == [pytest.approx(100.0), pytest.approx(80.0)]

    def test_total_never_exceeded(self):
        alloc = uniform([120.0, 120.0, 120.0], 300.0)
        assert sum(alloc) <= 300.0 + 1e-6

    def test_floor_respected(self):
        alloc = uniform([10.0, 300.0], 200.0)
        assert all(a >= 65.0 - 1e-9 for a in alloc)

    def test_ceiling_respected(self):
        alloc = uniform([500.0, 500.0], 400.0)
        assert all(a <= 125.0 + 1e-9 for a in alloc)

    def test_proportional_shrink(self):
        alloc = uniform([125.0, 85.0], 180.0)
        # Both shrink above the floor; the hungrier socket keeps more.
        assert alloc[0] > alloc[1]
        assert sum(alloc) == pytest.approx(180.0)

    def test_impossible_budget_rejected(self):
        with pytest.raises(ControllerError):
            uniform([100.0, 100.0], 100.0)

    def test_negative_demand_rejected(self):
        with pytest.raises(ControllerError):
            uniform([-1.0], 100.0)

    def test_empty_rejected(self):
        with pytest.raises(ControllerError):
            uniform([], 100.0)


class TestCoordinator:
    def test_bad_budget_rejected(self):
        with pytest.raises(ControllerError):
            NodeBudgetCoordinator(total_budget_w=0.0, cfg=ControllerConfig())

    def test_bad_period_rejected(self):
        with pytest.raises(ControllerError):
            NodeBudgetCoordinator(
                total_budget_w=200.0, cfg=ControllerConfig(), period_ticks=0
            )

    def test_registers_members(self):
        coord = NodeBudgetCoordinator(total_budget_w=200.0, cfg=ControllerConfig())
        a = coord.socket_controller()
        b = coord.socket_controller()
        assert (a.index, b.index) == (0, 1)


class TestCoordinatedRun:
    @pytest.fixture(scope="class")
    def scenario(self):
        """CG (memory-tolerant) + EP (compute-hungry) under 190 W."""
        cfg = ControllerConfig(tolerated_slowdown=0.10)
        apps = [build_application("CG"), build_application("EP")]
        base = run_application(
            apps, DefaultController, controller_cfg=cfg, noise=QUIET, seed=9
        )
        coord = NodeBudgetCoordinator(
            total_budget_w=190.0, cfg=cfg, per_socket_floor_w=80.0
        )
        coordinated = run_application(
            apps, coord.socket_controller, controller_cfg=cfg, noise=QUIET, seed=9
        )
        equal = run_application(
            apps,
            lambda: StaticPowerCap(95.0),
            controller_cfg=cfg,
            noise=QUIET,
            seed=9,
        )
        return base, coord, coordinated, equal

    def test_budget_respected(self, scenario):
        base, coord, coordinated, _ = scenario
        for _, alloc in coord.history:
            assert sum(alloc) <= 190.0 + 1e-6

    def test_allocations_favor_compute_socket(self, scenario):
        _, coord, _, _ = scenario
        final = coord.history[-1][1]
        assert final[1] > final[0]  # EP's socket gets the bigger share

    def test_floor_bounds_reference_drift(self, scenario):
        _, coord, _, _ = scenario
        for _, alloc in coord.history:
            assert all(a >= 80.0 - 1e-6 for a in alloc)

    def test_compute_socket_protected_vs_equal_split(self, scenario):
        base, _, coordinated, equal = scenario
        ep_coord = coordinated.sockets[1].finish_time_s
        ep_equal = equal.sockets[1].finish_time_s
        assert ep_coord < ep_equal  # EP runs faster under coordination

    def test_total_power_under_budget(self, scenario):
        # The node invariant is instantaneous: at every trace step the
        # summed package power respects the budget (slack for the
        # initial pre-allocation second and re-allocation transients).
        _, _, coordinated, _ = scenario
        traces = [s.trace for s in coordinated.sockets]
        over = 0
        total = 0
        for samples in zip(*traces):
            t = samples[0].time_s
            if t < 1.5:  # before the first allocation round settles
                continue
            total += 1
            if sum(s.package_power_w for s in samples) > 190.0 * 1.02:
                over += 1
        assert total > 0
        assert over / total < 0.02, f"{over}/{total} steps over budget"


class TestHeterogeneousEngine:
    def test_per_socket_applications(self):
        cfg = ControllerConfig()
        apps = [build_application("EP", scale=0.2), build_application("CG", scale=0.2)]
        r = run_application(apps, DefaultController, controller_cfg=cfg, noise=QUIET)
        assert r.app_name == "EP+CG"
        assert len(r.sockets) == 2
        # Different apps, different finish times.
        assert r.sockets[0].finish_time_s != r.sockets[1].finish_time_s

    def test_application_count_must_match_sockets(self):
        from repro.errors import SimulationError
        from repro.sim.machine import yeti_machine

        cfg = ControllerConfig()
        apps = [build_application("EP", scale=0.2)]
        with pytest.raises(SimulationError):
            run_application(
                apps,
                DefaultController,
                controller_cfg=cfg,
                machine=yeti_machine(3),
            )

    def test_socket_count_inferred_from_list(self):
        cfg = ControllerConfig()
        apps = [build_application("EP", scale=0.1)] * 3
        r = run_application(apps, DefaultController, controller_cfg=cfg, noise=QUIET)
        assert len(r.sockets) == 3
