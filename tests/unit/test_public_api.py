"""Public API stability: everything exported must exist and be documented."""

import inspect

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ exports missing {name}"

    def test_all_sorted(self):
        assert repro.__all__ == sorted(repro.__all__)

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_classes_and_functions_documented(self):
        for name in repro.__all__:
            member = getattr(repro, name)
            if inspect.isclass(member) or inspect.isfunction(member):
                assert member.__doc__, f"{name} lacks a docstring"

    def test_version(self):
        assert repro.__version__

    def test_core_scheme_surface(self):
        # The canonical entry points of the reproduction must be here.
        for name in ("DPIR", "DPRAM", "DPKVS", "StrawmanIR", "PathORAM",
                     "LinearScanPIR", "MultiServerDPIR", "ShardedDPIR"):
            assert name in repro.__all__


class TestSubpackageExports:
    @pytest.mark.parametrize("module_name", [
        "repro.core", "repro.analysis", "repro.baselines", "repro.crypto",
        "repro.cluster", "repro.hashing", "repro.simulation",
        "repro.storage", "repro.workloads",
    ])
    def test_subpackage_all_resolves(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name} missing {name}"
