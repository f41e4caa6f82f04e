"""Tests for the exception hierarchy and package surface."""

import pytest

import repro
from repro.errors import (
    CommunicatorError,
    ConfigurationError,
    DataShapeError,
    LDMOverflowError,
    PartitionError,
    ReproError,
)


class TestHierarchy:
    @pytest.mark.parametrize("exc", [
        ConfigurationError, LDMOverflowError, PartitionError,
        CommunicatorError, DataShapeError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_one_except_clause_catches_everything(self):
        from repro.machine.ldm import LDMAllocator
        try:
            LDMAllocator(-1)
        except ReproError:
            pass
        else:  # pragma: no cover
            pytest.fail("ReproError not raised")

    def test_ldm_overflow_carries_numbers(self):
        e = LDMOverflowError(requested=100, available=10, capacity=64,
                             label="sums")
        assert e.requested == 100
        assert e.available == 10
        assert e.capacity == 64
        assert "sums" in str(e)


class TestPublicSurface:
    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_key_entry_points_importable(self):
        from repro import (
            HierarchicalKMeans,   # noqa: F401
            lloyd,                # noqa: F401
            sunway_machine,       # noqa: F401
        )
        from repro.baselines import elkan, hamerly, minibatch, yinyang  # noqa: F401
        from repro.core.metrics import purity  # noqa: F401
        from repro.perfmodel import PerformanceModel  # noqa: F401

    def test_subpackage_all_exports_resolve(self):
        import repro.core
        import repro.data
        import repro.machine
        import repro.perfmodel
        import repro.reporting
        import repro.runtime
        for module in (repro.core, repro.data, repro.machine,
                       repro.perfmodel, repro.reporting, repro.runtime):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"
