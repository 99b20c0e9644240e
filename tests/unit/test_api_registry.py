"""Tests for the scheme registry and the repro.build factory."""

import pytest

import repro
from repro.api import (
    PrivateRAM,
    available_schemes,
    build,
    register_scheme,
    scheme_spec,
)
from repro.api.builders import resolve_backend, resolve_network
from repro.api.registry import _REGISTRY
from repro.storage.backends import NetworkBackendFactory
from repro.storage.network import LAN, WAN


class TestCatalogue:
    def test_core_and_baseline_schemes_registered(self):
        names = available_schemes()
        for expected in (
            "dp_ir", "batch_dp_ir", "multi_server_dp_ir", "sharded_dp_ir",
            "strawman_ir", "dp_ram", "read_only_dp_ram", "bucket_dp_ram",
            "dp_kvs", "plaintext_ram", "plaintext_kvs", "linear_pir",
            "path_oram", "recursive_path_oram", "oram_kvs",
        ):
            assert expected in names

    def test_kind_filter(self):
        assert "dp_kvs" in available_schemes("kvs")
        assert "dp_kvs" not in available_schemes("ram")

    def test_specs_have_summaries(self):
        for name in available_schemes():
            spec = scheme_spec(name)
            assert spec.name == name
            assert spec.kind in ("ir", "ram", "kvs")
            assert spec.summary

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ValueError, match="dp_ram"):
            build("no_such_scheme")

    def test_hyphenated_aliases_resolve_everywhere(self):
        from repro.api.registry import resolve_scheme_name, scheme_spec

        assert resolve_scheme_name("batch-dpir") == "batch_dp_ir"
        assert resolve_scheme_name("DPIR") == "dp_ir"
        assert resolve_scheme_name("dp_ram") == "dp_ram"
        assert scheme_spec("batch-dpir").name == "batch_dp_ir"
        scheme = build("dpram", n=16, seed=1)
        assert scheme.n == 16


class TestBuild:
    def test_top_level_reexport(self):
        scheme = repro.build("dp_ram", n=64, seed=1)
        assert isinstance(scheme, repro.DPRAM)
        assert scheme.n == 64

    def test_seed_and_rng_mutually_exclusive(self):
        from repro.crypto.rng import SeededRandomSource

        with pytest.raises(ValueError):
            build("dp_ram", n=16, seed=1, rng=SeededRandomSource(2))

    def test_explicit_blocks_override_n(self):
        blocks = [b"\x01" * 32] * 8
        scheme = build("dp_ir", blocks=blocks, pad_size=2)
        assert scheme.n == 8
        assert scheme.block_size == 32

    def test_network_backend_wiring(self):
        scheme = build("dp_ram", n=32, seed=3, backend="network",
                       network="lan")
        scheme.read(0)
        backend = scheme.servers()[0].backend
        assert backend.model is LAN
        assert backend.simulated_ms > 0

    def test_network_alone_implies_network_backend(self):
        scheme = build("plaintext_ram", n=8, network=WAN)
        scheme.read(0)
        assert scheme.servers()[0].backend.model is WAN


class TestRegisterScheme:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheme("dp_ram", kind="ram")(lambda **kw: None)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            register_scheme("custom_thing", kind="graph")

    def test_custom_registration_round_trip(self):
        @register_scheme("test_only_ram", kind="ram",
                         summary="registered by the test suite")
        def build_test_only(**kwargs):
            return build("plaintext_ram", **kwargs)

        try:
            scheme = build("test_only_ram", n=8)
            assert isinstance(scheme, PrivateRAM)
            assert "test_only_ram" in available_schemes("ram")
        finally:
            _REGISTRY.pop("test_only_ram", None)


class TestResolvers:
    def test_network_names(self):
        assert resolve_network("wan") is WAN
        assert resolve_network(LAN) is LAN
        with pytest.raises(ValueError):
            resolve_network("carrier-pigeon")

    def test_backend_strings(self):
        assert resolve_backend(None) is None
        assert resolve_backend("memory") is None
        assert isinstance(resolve_backend("network"), NetworkBackendFactory)
        for retired in ("punched-cards", "slab"):
            with pytest.raises(ValueError, match="'memory', 'network'"):
                resolve_backend(retired)

    def test_explicit_memory_beats_network_argument(self):
        # backend="memory" is an explicit opt-out; a network argument
        # alongside it must not smuggle latency accounting back in.
        assert resolve_backend("memory", "wan") is None

    def test_custom_factory_passes_through(self):
        factory = NetworkBackendFactory(LAN)
        assert resolve_backend(factory) is factory
