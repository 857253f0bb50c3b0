"""The one ambient run context behind the five ``use_*`` scopes.

The recorder, clock, sweep engine, budget scope and resilience config
are the fields of one :class:`~repro.context.RunContext`.  Each layer's
``use_*`` scope copies the context with its field replaced, so scopes
of different layers must nest in any order, and every exit (normal or
by an exception) must restore every field, not only the scope's own.
"""

import itertools
import pickle
from contextlib import ExitStack

import pytest

from repro.context import RunContext, current_context, use_context
from repro.engine import DEFAULT_ENGINE, SweepEngine, current_engine, use_engine
from repro.obs import NULL_RECORDER, MetricsRecorder, current_recorder, use_recorder
from repro.obs.clock import MONOTONIC_CLOCK, FakeClock, current_clock, use_clock
from repro.privacy.budget import (
    NULL_BUDGET_SCOPE,
    BudgetScope,
    InMemoryBudgetStore,
    current_budget_scope,
    use_budget_scope,
)
from repro.resilience import (
    RESILIENCE_OFF,
    ResilienceConfig,
    RetryPolicy,
    current_resilience,
    use_resilience,
)

DEFAULTS = {
    "recorder": NULL_RECORDER,
    "clock": MONOTONIC_CLOCK,
    "engine": DEFAULT_ENGINE,
    "budget": NULL_BUDGET_SCOPE,
    "resilience": RESILIENCE_OFF,
}

READERS = {
    "recorder": current_recorder,
    "clock": current_clock,
    "engine": current_engine,
    "budget": current_budget_scope,
    "resilience": current_resilience,
}

SCOPES = {
    "recorder": use_recorder,
    "clock": use_clock,
    "engine": use_engine,
    "budget": use_budget_scope,
    "resilience": use_resilience,
}

ORDERS = list(itertools.permutations(SCOPES))


def _values():
    """One non-default value per field."""
    return {
        "recorder": MetricsRecorder(),
        "clock": FakeClock(start=3.0),
        "engine": SweepEngine(),
        "budget": BudgetScope(store=InMemoryBudgetStore(limit=1.0), tenant="acme"),
        "resilience": ResilienceConfig(retry=RetryPolicy(max_retries=1)),
    }


def _assert_ambient(expected):
    for name, read in READERS.items():
        assert read() is expected[name], name


class TestNestedScopes:
    def test_defaults_with_nothing_installed(self):
        assert current_context() == RunContext()
        _assert_ambient(DEFAULTS)

    def test_every_order_installs_each_field_and_each_exit_restores_it(self):
        values = _values()
        for order in ORDERS:
            expected = dict(DEFAULTS)
            levels = []
            for name in order:
                level = ExitStack()
                assert level.enter_context(SCOPES[name](values[name])) is values[name]
                levels.append((name, level))
                expected[name] = values[name]
                _assert_ambient(expected)
            for name, level in reversed(levels):
                level.close()
                expected[name] = DEFAULTS[name]
                _assert_ambient(expected)

    def test_an_inner_scope_of_the_same_field_restores_the_outer_value(self):
        outer, inner = _values(), _values()
        for name, scope in SCOPES.items():
            with scope(outer[name]):
                with scope(inner[name]):
                    assert READERS[name]() is inner[name]
                assert READERS[name]() is outer[name]
            assert READERS[name]() is DEFAULTS[name]

    @pytest.mark.parametrize("order", ORDERS[::11], ids=lambda o: ">".join(o))
    def test_an_exception_restores_every_field(self, order):
        values = _values()
        with pytest.raises(RuntimeError, match="unit failed"):
            with ExitStack() as stack:
                for name in order:
                    stack.enter_context(SCOPES[name](values[name]))
                raise RuntimeError("unit failed")
        _assert_ambient(DEFAULTS)

    def test_an_exception_caught_midway_keeps_the_outer_scopes(self):
        values = _values()
        outer, inner = ("clock", "budget"), ("engine", "recorder", "resilience")
        with ExitStack() as stack:
            for name in outer:
                stack.enter_context(SCOPES[name](values[name]))
            with pytest.raises(KeyError):
                with ExitStack() as nested:
                    for name in inner:
                        nested.enter_context(SCOPES[name](values[name]))
                    raise KeyError("inner")
            _assert_ambient({**DEFAULTS, **{name: values[name] for name in outer}})
        _assert_ambient(DEFAULTS)


class TestRunContext:
    def test_installing_a_default_engine_leaves_the_field_at_its_default(self):
        with use_engine(DEFAULT_ENGINE) as engine:
            assert engine is DEFAULT_ENGINE
            assert current_context().engine is None
            assert current_engine() is DEFAULT_ENGINE

    def test_replace_copies_only_the_named_fields(self):
        values = _values()
        context = RunContext(**values)
        copy = context.replace(clock=None)
        assert copy.clock is None
        assert context.clock is values["clock"]
        for name in ("recorder", "engine", "budget", "resilience"):
            assert getattr(copy, name) is values[name]
        with pytest.raises(TypeError):
            context.replace(tracer=None)

    def test_frozen_and_slotted(self):
        context = RunContext()
        with pytest.raises(AttributeError):
            context.clock = FakeClock()
        assert not hasattr(context, "__dict__")

    def test_pickles_field_by_field(self):
        context = RunContext(engine=SweepEngine(cache=False), clock=FakeClock(start=2.0))
        restored = pickle.loads(pickle.dumps(context))
        assert restored.recorder is None and restored.budget is None
        assert restored.engine.cache is False
        assert restored.clock.now() == 2.0

    def test_use_context_installs_the_whole_context(self):
        values = _values()
        with use_context(RunContext(**values)):
            _assert_ambient(values)
        _assert_ambient(DEFAULTS)
