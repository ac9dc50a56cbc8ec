"""Workload models: phases, applications, the ten-app catalog."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import yeti_socket_config
from repro.errors import WorkloadError
from repro.workloads import (
    Application,
    Phase,
    application_names,
    build_application,
    random_application,
)
from repro.workloads.phase import (
    BOOST,
    FLOPS,
    FPC,
    IDLENESS,
    LATENCY,
    OVERFETCH,
    UNCORE,
    NominalRates,
    PhaseTable,
    phase_from_duration,
)
from repro.workloads.service import batch


class TestPhase:
    def test_oi(self):
        p = Phase("x", flops=2.0, bytes=10.0, fpc=1.0)
        assert p.operational_intensity == pytest.approx(0.2)

    def test_oi_infinite_without_bytes(self):
        p = Phase("x", flops=2.0, bytes=0.0, fpc=1.0)
        assert p.operational_intensity == float("inf")

    def test_empty_phase_rejected(self):
        with pytest.raises(WorkloadError):
            Phase("x", flops=0.0, bytes=0.0, fpc=1.0)

    def test_negative_volume_rejected(self):
        with pytest.raises(WorkloadError):
            Phase("x", flops=-1.0, bytes=1.0, fpc=1.0)

    def test_bad_fpc_rejected(self):
        with pytest.raises(WorkloadError):
            Phase("x", flops=1.0, bytes=1.0, fpc=0.0)

    def test_bad_boost_rejected(self):
        with pytest.raises(WorkloadError):
            Phase("x", flops=1.0, bytes=1.0, fpc=1.0, power_boost=0.0)

    def test_scaled(self):
        p = Phase("x", flops=2.0, bytes=10.0, fpc=1.0).scaled(3.0)
        assert p.flops == 6.0
        assert p.bytes == 30.0

    def test_scaled_preserves_character(self):
        p = Phase("x", 2.0, 10.0, 1.0, latency_sensitivity=0.3, power_boost=1.2)
        q = p.scaled(2.0)
        assert q.latency_sensitivity == 0.3
        assert q.power_boost == 1.2

    def test_to_work_mirrors_fields(self):
        p = Phase("x", 2.0, 10.0, 1.5, uncore_sensitivity=0.2, overfetch=0.1)
        w = p.to_work()
        assert (w.flops, w.bytes, w.fpc) == (2.0, 10.0, 1.5)
        assert w.uncore_sensitivity == 0.2
        assert w.overfetch == 0.1


class TestPhaseFromDuration:
    def test_duration_inversion_accurate(self):
        p = phase_from_duration("x", 1.5, oi=0.12, fpc=0.32)
        rates = NominalRates(yeti_socket_config())
        assert rates.duration(p) == pytest.approx(1.5, rel=1e-6)

    def test_duration_inversion_compute_phase(self):
        p = phase_from_duration("x", 2.0, oi=4000.0, fpc=4.0)
        rates = NominalRates(yeti_socket_config())
        assert rates.duration(p) == pytest.approx(2.0, rel=1e-6)

    def test_oi_preserved(self):
        p = phase_from_duration("x", 1.0, oi=0.5, fpc=1.0)
        assert p.operational_intensity == pytest.approx(0.5)

    def test_bad_duration_rejected(self):
        with pytest.raises(WorkloadError):
            phase_from_duration("x", 0.0, oi=1.0, fpc=1.0)

    def test_sensitivities_affect_volumes(self):
        plain = phase_from_duration("x", 1.0, oi=1.0, fpc=1.0)
        sens = phase_from_duration(
            "x", 1.0, oi=1.0, fpc=1.0, uncore_sensitivity=0.5
        )
        # Same nominal duration at max clocks -> same volumes (penalty
        # terms vanish at the maximum uncore frequency).
        assert sens.flops == pytest.approx(plain.flops)


class TestApplication:
    def test_from_pattern_expands_iterations(self):
        p = Phase("k", 1.0, 1.0, 1.0)
        app = Application.from_pattern("A", loop=[p], iterations=3)
        assert len(app.phases) == 3
        assert app.phases[1].name == "k[1]"

    def test_setup_and_teardown_order(self):
        s = Phase("s", 1.0, 1.0, 1.0)
        k = Phase("k", 1.0, 1.0, 1.0)
        t = Phase("t", 1.0, 1.0, 1.0)
        app = Application.from_pattern(
            "A", setup=[s], loop=[k], iterations=2, teardown=[t]
        )
        assert [p.name for p in app.phases] == ["s", "k[0]", "k[1]", "t"]

    def test_empty_application_rejected(self):
        with pytest.raises(WorkloadError):
            Application("A", phases=())

    def test_totals(self):
        p = Phase("k", 2.0, 3.0, 1.0)
        app = Application.from_pattern("A", loop=[p], iterations=4)
        assert app.total_flops == pytest.approx(8.0)
        assert app.total_bytes == pytest.approx(12.0)

    def test_jitter_reproducible(self):
        app = build_application("CG")
        a = app.jittered(np.random.default_rng(3), 0.01)
        b = app.jittered(np.random.default_rng(3), 0.01)
        assert [p.flops for p in a.phases] == [p.flops for p in b.phases]

    def test_jitter_zero_is_identity(self):
        app = build_application("CG")
        assert app.jittered(np.random.default_rng(3), 0.0) is app

    def test_jitter_small(self):
        app = build_application("EP")
        j = app.jittered(np.random.default_rng(3), 0.01)
        for p0, p1 in zip(app.phases, j.phases):
            assert p1.flops == pytest.approx(p0.flops, rel=0.1)


@lru_cache(maxsize=None)
def _catalog_app(name):
    return build_application(name)


def _per_phase_jitter(app, rng, sigma):
    """The former jitter, one scalar draw and ``Phase.scaled`` per phase."""
    out = []
    for p in app.phases:
        factor = max(1.0 + sigma * rng.standard_normal(), 0.2)
        out.append((p.flops * factor, p.bytes * factor))
    return out


class TestJitterTables:
    """``jittered`` is one vector draw over the phase table."""

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(application_names()),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        sigma=st.one_of(
            st.floats(min_value=1e-4, max_value=0.1),
            st.floats(min_value=1.0, max_value=10.0),
        ),
    )
    def test_matches_per_phase_draws(self, name, seed, sigma):
        app = _catalog_app(name)
        rng_old = np.random.default_rng(seed)
        rng_new = np.random.default_rng(seed)
        expected = _per_phase_jitter(app, rng_old, sigma)
        j = app.jittered(rng_new, sigma)
        assert [(p.flops, p.bytes) for p in j.phases] == expected
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        # Everything but the volumes is the base application's.
        assert (j.name, j.structure) == (app.name, app.structure)
        for p0, p1 in zip(app.phases, j.phases):
            assert (p1.name, p1.fpc, p1.latency_sensitivity) == (
                p0.name,
                p0.fpc,
                p0.latency_sensitivity,
            )
            assert (
                p1.uncore_sensitivity,
                p1.overfetch,
                p1.power_boost,
                p1.idleness,
            ) == (
                p0.uncore_sensitivity,
                p0.overfetch,
                p0.power_boost,
                p0.idleness,
            )

    def test_floor_binds_at_large_sigma(self):
        app = _catalog_app("CG")
        expected = _per_phase_jitter(app, np.random.default_rng(1), 3.0)
        j = app.jittered(np.random.default_rng(1), 3.0)
        floored = [
            p1.flops == p0.flops * 0.2 for p0, p1 in zip(app.phases, j.phases)
        ]
        assert any(floored) and not all(floored)
        assert [(p.flops, p.bytes) for p in j.phases] == expected

    def test_underflow_to_no_work_still_raises(self):
        """A valid subnormal phase floored to 0.2x loses all its work."""
        tiny = Phase("tiny", flops=5e-324, bytes=0.0, fpc=1.0)
        app = Application(
            "A", phases=(Phase("ok", 1.0, 1.0, 1.0), tiny, tiny)
        )
        # A seed whose three draws are negative: at sigma 1e6 every
        # factor floors at 0.2.
        seed = next(
            s
            for s in range(100)
            if (np.random.default_rng(s).standard_normal(3) < 0.0).all()
        )
        with pytest.raises(WorkloadError) as scalar:
            tiny.scaled(0.2)
        with pytest.raises(WorkloadError) as vector:
            app.jittered(np.random.default_rng(seed), 1e6)
        assert str(vector.value) == str(scalar.value)
        assert "no work at all" in str(vector.value)

    @pytest.mark.parametrize(
        "bad",
        [
            {"flops": -1.0},
            {"fpc": 0.0},
            {"latency_sensitivity": -0.1},
            {"uncore_sensitivity": -0.1},
            {"overfetch": -0.1},
            {"power_boost": 0.0},
            {"idleness": 1.0},
            {"idleness": float("nan")},
        ],
    )
    def test_table_check_raises_the_phase_error(self, bad):
        fields = dict(flops=1.0, bytes=1.0, fpc=1.0)
        with pytest.raises(WorkloadError) as scalar:
            Phase("bad", **{**fields, **bad})
        table = PhaseTable.of([Phase("ok", **fields)] * 2)
        col = {
            "flops": FLOPS,
            "fpc": FPC,
            "latency_sensitivity": LATENCY,
            "uncore_sensitivity": UNCORE,
            "overfetch": OVERFETCH,
            "power_boost": BOOST,
            "idleness": IDLENESS,
        }
        ((field, value),) = bad.items()
        table.values[col[field], 1] = value
        table = PhaseTable(("ok", "bad"), table.values)
        with pytest.raises(WorkloadError) as vector:
            table.check()
        assert str(vector.value) == str(scalar.value)

    def test_batch_run_builds_no_phase_objects(self, monkeypatch):
        from repro.config import ControllerConfig
        from repro.core.registry import as_spec
        from repro.sim.batch import run_batch
        from repro.sim.run import build_engine

        cfg = ControllerConfig(tolerated_slowdown=0.05)
        engines = [
            build_engine(
                build_application(name, scale=0.05),
                as_spec("duf").build(cfg),
                controller_cfg=cfg,
                seed=seed,
                record_trace=False,
            )
            for seed, name in enumerate(("CG", "MG", "LAMMPS"))
        ]
        built = []
        post_init = Phase.__post_init__

        def counting(phase):
            built.append(phase.name)
            post_init(phase)

        monkeypatch.setattr(Phase, "__post_init__", counting)
        results = run_batch(engines)
        assert [r.app_name for r in results] == ["CG", "MG", "LAMMPS"]
        assert built == []

    def test_phases_built_on_read_from_the_table(self):
        app = _catalog_app("MG")
        j = app.jittered(np.random.default_rng(0), 0.01)
        assert "phases" not in vars(j)
        assert len(j.phases) == len(app.phases)
        assert j.phases is j.phases
        assert j.table.names is app.table.names


class TestFromPatternDefect:
    @pytest.mark.xfail(
        strict=True,
        reason="from_pattern drops power_boost and idleness from loop phases",
    )
    def test_loop_phases_keep_power_boost_and_idleness(self):
        k = Phase("k", 1.0, 1.0, 1.0, power_boost=1.05, idleness=0.1)
        app = Application.from_pattern("A", loop=[k], iterations=2)
        assert [(p.power_boost, p.idleness) for p in app.phases] == [
            (1.05, 0.1),
            (1.05, 0.1),
        ]

    @pytest.mark.xfail(
        strict=True,
        reason="from_pattern drops power_boost and idleness from loop phases",
    )
    def test_batch_scan_runs_boosted(self):
        assert batch().phases[0].power_boost == 1.05


class TestCatalog:
    def test_ten_applications(self):
        assert len(application_names()) == 10
        assert application_names() == (
            "BT", "CG", "EP", "FT", "LU", "MG", "SP", "UA", "HPL", "LAMMPS",
        )

    def test_case_insensitive_lookup(self):
        assert build_application("cg").name == "CG"

    def test_unknown_app_rejected(self):
        with pytest.raises(WorkloadError):
            build_application("NOPE")

    @pytest.mark.parametrize("name", application_names())
    def test_nominal_durations_in_range(self, name):
        # The paper picks problem sizes for 20-400 s runs; our scaled
        # models target roughly 15-40 s.
        d = build_application(name).nominal_duration()
        assert 10.0 < d < 60.0, f"{name}: {d:.1f}s"

    def test_cg_opens_with_highly_memory_setup(self):
        cg = build_application("CG")
        setup = cg.phases[0]
        assert setup.name == "cg.setup"
        assert setup.operational_intensity < 0.02

    def test_cg_setup_is_about_5_percent_of_run(self):
        cg = build_application("CG")
        rates = NominalRates(yeti_socket_config())
        frac = rates.duration(cg.phases[0]) / cg.nominal_duration()
        assert 0.03 < frac < 0.08

    def test_ep_is_compute_only(self):
        ep = build_application("EP")
        assert all(p.operational_intensity > 100 for p in ep.phases)

    def test_hpl_update_is_highly_cpu(self):
        hpl = build_application("HPL")
        updates = [p for p in hpl.phases if "update" in p.name]
        assert updates
        assert all(p.operational_intensity > 100 for p in updates)

    def test_ua_alternates_compute_and_memory(self):
        ua = build_application("UA")
        classes = [p.operational_intensity >= 1.0 for p in ua.phases[:3]]
        assert classes == [True, False, False]

    def test_lammps_has_bursts(self):
        lam = build_application("LAMMPS")
        bursts = [p for p in lam.phases if "burst" in p.name]
        assert bursts
        # Bursts are sub-interval (< 200 ms) and power-hungry.
        rates = NominalRates(yeti_socket_config())
        assert all(rates.duration(p) < 0.2 for p in bursts)
        assert all(p.power_boost > 1.0 for p in bursts)

    def test_lammps_seeded(self):
        from repro.workloads.lammps import lammps

        a = lammps(seed=1)
        b = lammps(seed=1)
        c = lammps(seed=2)
        assert [p.name for p in a.phases] == [p.name for p in b.phases]
        assert [p.name for p in a.phases] != [p.name for p in c.phases]

    def test_mg_segments_are_sub_interval(self):
        mg = build_application("MG")
        rates = NominalRates(yeti_socket_config())
        assert all(rates.duration(p) < 0.1 for p in mg.phases)

    def test_scale_parameter(self):
        short = build_application("EP", scale=0.5)
        full = build_application("EP")
        assert short.nominal_duration() == pytest.approx(
            full.nominal_duration() / 2, rel=0.01
        )


class TestRandomApplications:
    def test_reproducible(self):
        a = random_application(7)
        b = random_application(7)
        assert [p.flops for p in a.phases] == [p.flops for p in b.phases]

    def test_different_seeds_differ(self):
        a = random_application(7)
        b = random_application(8)
        assert [p.flops for p in a.phases] != [p.flops for p in b.phases]

    def test_phase_count_bounded(self):
        for seed in range(20):
            app = random_application(seed, max_phases=5)
            assert 1 <= len(app.phases) <= 5

    def test_durations_bounded(self):
        rates = NominalRates(yeti_socket_config())
        for seed in range(10):
            app = random_application(seed, min_duration_s=0.1, max_duration_s=0.5)
            for p in app.phases:
                assert 0.05 < rates.duration(p) < 0.75

    def test_bad_bounds_rejected(self):
        with pytest.raises(WorkloadError):
            random_application(1, max_phases=0)
        with pytest.raises(WorkloadError):
            random_application(1, min_duration_s=2.0, max_duration_s=1.0)
