"""Attributes built on first read: :mod:`repro.lazy` and its three users."""

import ast
import inspect
import pathlib
import pickle
from dataclasses import MISSING, fields

import numpy as np
import pytest

import repro
from repro.config import ControllerConfig, NoiseConfig
from repro.core.base import TickLog
from repro.core.registry import as_spec
from repro.lazy import attach, built_on_read, built_state
from repro.sim.batch import BatchSimulationEngine
from repro.sim.result import PhaseSpan, SocketResult
from repro.sim.run import build_engine
from repro.workloads.application import Application
from repro.workloads.catalog import build_application


class Counted:
    """A plain class with one built-on-read attribute and a pickle hook."""

    builds = 0

    __getstate__ = built_state

    @built_on_read
    def value(self):
        """A fresh list, counted."""
        Counted.builds += 1
        return [Counted.builds]


@pytest.fixture(autouse=True)
def _fresh_count():
    Counted.builds = 0


class TestBuiltOnRead:
    def test_built_exactly_once_and_kept_in_the_instance_dict(self):
        obj = Counted()
        assert "value" not in vars(obj)
        first = obj.value
        assert vars(obj)["value"] is first
        assert obj.value is first and Counted.builds == 1

    def test_an_assigned_value_shadows_the_build(self):
        obj = Counted()
        obj.value = "set"
        assert obj.value == "set" and Counted.builds == 0

    def test_the_class_reads_the_descriptor(self):
        assert isinstance(Counted.value, built_on_read)
        assert Counted.value.__doc__ == "A fresh list, counted."

    def test_an_attached_source_replaces_value_and_build(self):
        obj = Counted()
        obj.value
        calls = []
        attach(obj, "value", lambda: calls.append(1) or ["attached"])
        assert "value" not in vars(obj) and calls == []
        assert obj.value == ["attached"] and obj.value is obj.value
        assert calls == [1] and Counted.builds == 1
        assert list(vars(obj)) == ["value"]

    def test_a_pickle_carries_the_built_value_read_or_unread(self):
        def make():
            obj = Counted()
            attach(obj, "value", lambda: ["attached"])
            return obj

        unread = pickle.dumps(make())
        read = make()
        read.value
        assert pickle.dumps(read) == unread
        assert vars(pickle.loads(unread)) == {"value": ["attached"]}


# ------------------------------------------------------------ the users


def _field_table(cls):
    return [(f.name, f.default, f.default_factory) for f in fields(cls)]


def test_dataclass_fields_and_constructors_are_unchanged():
    assert _field_table(Application) == [
        ("name", MISSING, MISSING),
        ("phases", MISSING, MISSING),
        ("structure", "", MISSING),
    ]
    assert str(inspect.signature(Application)) == (
        "(name: 'str', phases: 'tuple[Phase, ...]', structure: 'str' = '') -> None"
    )
    assert _field_table(SocketResult) == [
        ("socket_id", MISSING, MISSING),
        ("finish_time_s", MISSING, MISSING),
        ("package_energy_j", MISSING, MISSING),
        ("dram_energy_j", MISSING, MISSING),
        ("trace", MISSING, list),
        ("phases", MISSING, list),
    ]
    assert str(inspect.signature(SocketResult)) == (
        "(socket_id: 'int', finish_time_s: 'float', package_energy_j: 'float', "
        "dram_energy_j: 'float', trace: 'list[TraceSample]' = <factory>, "
        "phases: 'list[PhaseSpan]' = <factory>) -> None"
    )
    with pytest.raises(TypeError):
        Application("A")  # ``phases`` stays required


def test_a_jittered_application_builds_table_then_phases_once():
    app = build_application("MG", scale=0.05)
    j = app.jittered(np.random.default_rng(0), 0.01)
    assert set(vars(j)) == {"name", "structure", "_jitter"}
    phases = j.phases
    assert set(vars(j)) == {"name", "structure", "_jitter", "table", "phases"}
    assert j.phases is phases and j.table is vars(j)["table"]


def test_a_socket_result_builds_its_attached_spans_once():
    spans = [PhaseSpan("a", 0.0, 1.0)]
    calls = []
    sock = SocketResult(0, 1.0, 2.0, 3.0)
    attach(sock, "phases", lambda: calls.append(1) or list(spans))
    unread = pickle.dumps(sock)
    assert calls == [1] and sock.phases == spans
    assert pickle.dumps(sock) == unread
    assert pickle.dumps(SocketResult(0, 1.0, 2.0, 3.0, phases=spans)) == unread


def _lane_parallel_pair(policy, app, seed):
    cfg = ControllerConfig(tolerated_slowdown=0.10)
    return [
        build_engine(
            build_application(app, scale=0.05),
            as_spec(policy).build(cfg),
            controller_cfg=cfg,
            noise=NoiseConfig(),
            seed=seed,
        )
        for _ in range(2)
    ]


def test_batch_ticked_controller_logs_equal_the_scalar_ones():
    pairs = [
        _lane_parallel_pair(policy, app, seed)
        for policy, app, seed in [("dufp", "CG", 5), ("duf", "MG", 6)]
    ]
    for scalar, _ in pairs:
        scalar.run()
    batch = BatchSimulationEngine([b for _, b in pairs])
    batch.run()
    assert all(batch._vec_run)
    for scalar, b in pairs:
        (cs,), (cb,) = scalar.controllers, b.controllers
        assert "ticks" not in vars(cb)
        ticks = cb.ticks
        assert ticks == cs.ticks and len(ticks) > 1
        assert cb.ticks is ticks


def test_an_entry_logged_after_the_run_follows_the_built_ones():
    extra = TickLog(99.0, 100.0, 1.2e9)
    for read_first in (False, True):
        scalar, b = _lane_parallel_pair("dufp", "CG", 5)
        scalar.run()
        BatchSimulationEngine([b]).run()
        (cb,) = b.controllers
        if read_first:
            cb.ticks
        cb.log(extra)
        assert cb.ticks == scalar.controllers[0].ticks + [extra]


def test_no_class_defines_getattr():
    """Built-on-read attributes go through :class:`built_on_read`, which
    leaves every other attribute read a plain lookup."""
    src = pathlib.Path(repro.__file__).parent
    found = [
        f"{path.relative_to(src)}:{node.name}"
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.FunctionDef) and item.name == "__getattr__"
            for item in node.body
        )
    ]
    assert found == []
