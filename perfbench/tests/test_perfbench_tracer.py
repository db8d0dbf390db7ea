"""The outside-in tracer: self-time arithmetic, spans, counters and clean removal."""

from __future__ import annotations

import types

import pytest

import tracer as tracing
import worker
from common import tail


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def _synthetic_module(clock: FakeClock) -> types.ModuleType:
    """A module whose ``outer`` calls ``inner`` twice and builds one ``Thing``."""
    mod = types.ModuleType("fakepkg.layer")

    class Thing:
        def __init__(self):
            clock.advance(1)

    def inner():
        clock.advance(3)

    def outer():
        clock.advance(5)
        mod.inner()
        mod.Thing()
        mod.inner()
        clock.advance(2)

    for obj in (Thing, inner, outer):
        obj.__module__ = mod.__name__
    mod.Thing, mod.inner, mod.outer = Thing, inner, outer
    mod.__all__ = ["Thing", "inner", "outer"]
    return mod


def test_self_time_of_nested_calls():
    clock = FakeClock()
    mod = _synthetic_module(clock)
    tracer = tracing.Tracer([mod], clock=clock)
    with tracer:
        tracer.begin_op(0)
        mod.outer()
        record = tracer.end_op(wall_ns=20)
    stats = record["stats"]
    # outer spans 5 + 3 + 1 + 3 + 2 = 14 ns, of which 7 are its own
    assert stats["layer.outer"] == [1, 14, 7, 0]
    assert stats["layer.inner"] == [2, 6, 6, 0]
    assert stats["layer.Thing"] == [1, 1, 1, 0]
    # constructors are aggregated: only the two functions leave spans
    names = [span[3] for span in tracer.spans]
    assert names == ["layer.inner", "layer.inner", "layer.outer"]
    outer_id = tracer.spans[-1][1]
    assert all(span[0] == 0 for span in tracer.spans)
    assert [span[2] for span in tracer.spans] == [outer_id, outer_id, None]


def test_bookkeeping_stays_out_of_the_callers_self_time(monkeypatch):
    clock = FakeClock()

    def costly(*args, **kwargs):
        # a counter that takes 100 ns, after the child's own clock has stopped
        clock.advance(100)
        return 1

    monkeypatch.setitem(tracing.ARG_COUNTERS, "layer.inner", (("layer.costly", costly),))
    monkeypatch.setitem(tracing.RESULT_COUNTERS, "layer.Thing", ("layer.things", lambda r: clock.advance(50) or 1))
    mod = _synthetic_module(clock)
    tracer = tracing.Tracer([mod], clock=clock)
    with tracer:
        tracer.begin_op(0)
        mod.outer()
        record = tracer.end_op(wall_ns=300)
    stats = record["stats"]
    assert stats["layer.outer"] == [1, 14 + 2 * 100 + 50, 7, 0]
    assert stats["layer.inner"] == [2, 6, 6, 0]
    assert stats["layer.Thing"] == [1, 1, 1, 0]
    assert record["counts"] == {"layer.costly": 2, "layer.things": 1}


def _two_layers(clock: FakeClock) -> tuple[types.ModuleType, types.ModuleType]:
    """``cli.run_pipeline`` does 4 ns of work in an unwrapped helper and calls
    ``groups.work`` (6 ns) and ``cli.note`` (1 ns)."""
    groups = types.ModuleType("fakepkg.groups")
    cli = types.ModuleType("fakepkg.cli")

    def work():
        clock.advance(6)

    def note():
        clock.advance(1)

    def _helper():
        clock.advance(4)

    def run_pipeline():
        _helper()
        groups.work()
        cli.note()

    for mod, fns in ((groups, [work]), (cli, [note, run_pipeline])):
        for fn in fns:
            fn.__module__ = mod.__name__
            setattr(mod, fn.__name__, fn)
        mod.__all__ = [fn.__name__ for fn in fns]
    return groups, cli


def test_coverage_falls_with_work_outside_the_other_layers():
    clock = FakeClock()
    groups, cli = _two_layers(clock)
    tracer = tracing.Tracer([groups, cli], clock=clock)
    with tracer:
        tracer.begin_op(0)
        cli.run_pipeline()
        record = tracer.end_op(wall_ns=11)
    # 6 of run_pipeline's 11 ns are in groups; the helper and cli.note are not
    assert record["stats"]["cli.run_pipeline"] == [1, 11, 4, 6]
    metrics = worker.per_layer([record], [1.0], [11.0])
    assert metrics["trace.coverage"] == (6 / 11, "frac")
    assert metrics["trace.overhead_frac"] == (0.0, "frac")
    assert metrics["cli.self_ms"][0] == pytest.approx(5e-6)


def test_wrappers_are_removed_and_cannot_stack():
    clock = FakeClock()
    mod = _synthetic_module(clock)
    originals = (mod.inner, mod.outer, vars(mod.Thing)["__init__"])
    tracer = tracing.Tracer([mod], clock=clock)
    with tracer:
        assert tracing.installed_wrappers([mod]) == ["fakepkg.layer.Thing", "fakepkg.layer.inner", "fakepkg.layer.outer"]
        with pytest.raises(RuntimeError):
            tracing.Tracer([mod], clock=clock).install()
    assert (mod.inner, mod.outer, vars(mod.Thing)["__init__"]) == originals
    assert tracing.installed_wrappers([mod]) == []


def test_traced_op_on_the_package_restores_every_reference():
    import hardycover
    from hardycover import cli, cyclic, hardy

    modules = tracing.default_modules()
    holders = modules + [hardycover]
    before = {(holder.__name__, attr): value for holder in holders for attr, value in vars(holder).items()}
    word = modules[0].Word
    word_methods = {m: vars(word)[m] for m in ("__init__",) + tracing.WORD_METHODS}
    tracer = tracing.Tracer(modules)
    with tracer:
        # every module holding annulus_pipeline sees the wrapper
        assert cli.annulus_pipeline is cyclic.annulus_pipeline is hardy.annulus_pipeline
        assert cyclic.annulus_pipeline is not cyclic.annulus_pipeline.__wrapped__
        tracer.begin_op(0)
        text = cli.emit_report(
            cli.run_pipeline(cli.parse_config('{"mode": "verify", "n": 3, "alpha": 0.7, "signs": [1, -1]}')),
            "json",
        )
        record = tracer.end_op(wall_ns=1)
    assert '"passed": true' in text
    assert record["stats"]["cyclic.annulus_pipeline"][0] == 1
    assert record["counts"]["groups.words_built"] > 0
    assert record["counts"]["cli.report_bytes"] == len(text)
    assert tracing.installed_wrappers(modules) == []
    after = {(holder.__name__, attr): value for holder in holders for attr, value in vars(holder).items()}
    assert after == before
    assert {m: vars(word)[m] for m in word_methods} == word_methods


def test_tail_keeps_ten_values_beyond_it():
    values = list(range(1, 101))
    value, percentile, count = tail(values)
    assert (value, percentile, count) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10
    with pytest.raises(ValueError):
        tail(list(range(10)))
