"""Public API consistency checks.

Guards the package's surface: everything listed in ``__all__`` must
exist, and the documented quickstart snippets must work as written.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.tasks",
    "repro.solar",
    "repro.energy",
    "repro.node",
    "repro.sim",
    "repro.schedulers",
    "repro.core",
    "repro.core.ann",
    "repro.reliability",
    "repro.experiments",
    "repro.obs",
    "repro.fleet",
    "repro.verify",
    "repro.perf",
]


class TestAllExports:
    @pytest.mark.parametrize("module_name", PACKAGES)
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__"), f"{module_name} has no __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_version(self):
        import repro

        assert repro.__version__


class TestReadmeQuickstart:
    def test_quickstart_snippet(self):
        """The README's first snippet, verbatim (at reduced scale)."""
        from repro import quick_node, simulate
        from repro.tasks import wam
        from repro.solar import four_day_trace
        from repro.timeline import Timeline
        from repro.schedulers import InterTaskScheduler

        timeline = Timeline(num_days=4, periods_per_day=24,
                            slots_per_period=20, slot_seconds=30.0)
        trace = four_day_trace(timeline)
        graph = wam()
        node = quick_node(graph)

        result = simulate(node, graph, trace, InterTaskScheduler())
        assert 0.0 <= result.dmr <= 1.0
        assert 0.0 <= result.energy_utilization <= 1.0

    def test_module_docstring_quickstart(self):
        """The repro/__init__ docstring names only real symbols."""
        import repro

        for symbol in ("quick_node", "simulate", "Timeline", "SlotIndex"):
            assert hasattr(repro, symbol)
