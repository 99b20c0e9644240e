"""Tests for repro.analysis.bounds."""

import math

import pytest

from repro.analysis.bounds import (
    dp_ir_error_lower_bound,
    dp_ir_errorless_lower_bound,
    dp_ram_lower_bound,
    min_epsilon_for_ir_bandwidth,
    min_epsilon_for_ram_bandwidth,
    multi_server_ir_lower_bound,
)


class TestErrorlessIRBound:
    def test_formula(self):
        assert dp_ir_errorless_lower_bound(100) == 100
        assert dp_ir_errorless_lower_bound(100, delta=0.25) == 75

    def test_independent_of_epsilon(self):
        # The theorem's point: the bound has no epsilon parameter at all.
        assert dp_ir_errorless_lower_bound(50) == 50

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            dp_ir_errorless_lower_bound(10, delta=1.5)


class TestErrorIRBound:
    def test_formula(self):
        n, eps, alpha = 1000, 2.0, 0.1
        expected = (n - 1) * (1 - alpha) / math.exp(eps)
        assert dp_ir_error_lower_bound(n, eps, alpha) == pytest.approx(expected)

    def test_decreases_with_epsilon(self):
        values = [dp_ir_error_lower_bound(1000, eps, 0.1) for eps in (0, 2, 4, 8)]
        assert values == sorted(values, reverse=True)

    def test_delta_reduces_bound(self):
        assert dp_ir_error_lower_bound(1000, 1, 0.1, delta=0.3) < \
            dp_ir_error_lower_bound(1000, 1, 0.1)

    def test_never_negative(self):
        assert dp_ir_error_lower_bound(10, 0, 0.9, delta=0.5) == 0.0

    def test_log_n_epsilon_gives_constant(self):
        # The headline: at eps = ln(n), the floor is ~(1-alpha) blocks.
        for n in (2**10, 2**16, 2**20):
            floor = dp_ir_error_lower_bound(n, math.log(n), 0.05)
            assert floor < 1.0

    def test_rejects_zero_alpha(self):
        with pytest.raises(ValueError):
            dp_ir_error_lower_bound(10, 1, 0.0)


class TestRAMBound:
    def test_formula(self):
        n, eps, c = 1024, 0.0, 2
        assert dp_ram_lower_bound(n, eps, c) == pytest.approx(math.log2(1024))

    def test_client_storage_helps(self):
        assert dp_ram_lower_bound(1024, 0, 64) < dp_ram_lower_bound(1024, 0, 2)

    def test_error_helps(self):
        assert dp_ram_lower_bound(1024, 0, 2, alpha=0.5) < \
            dp_ram_lower_bound(1024, 0, 2)

    def test_vanishes_at_log_n_epsilon(self):
        assert dp_ram_lower_bound(1024, math.log(1024), 4) == 0.0

    def test_clamps_to_zero(self):
        assert dp_ram_lower_bound(16, 100.0, 4) == 0.0

    def test_rejects_tiny_client(self):
        with pytest.raises(ValueError):
            dp_ram_lower_bound(16, 0, 1)


class TestMultiServerBound:
    def test_formula(self):
        n, eps, alpha, t = 1000, 1.0, 0.1, 0.5
        expected = ((1 - alpha) * t) * n / math.exp(eps)
        assert multi_server_ir_lower_bound(n, eps, alpha, t) == pytest.approx(
            expected
        )

    def test_t_one_matches_single_server(self):
        single = dp_ir_error_lower_bound(1001, 2.0, 0.1)
        multi = multi_server_ir_lower_bound(1000, 2.0, 0.1, 1.0)
        assert multi == pytest.approx(single, rel=0.01)

    def test_scales_with_t(self):
        values = [
            multi_server_ir_lower_bound(1000, 1, 0.1, t)
            for t in (0.25, 0.5, 0.75, 1.0)
        ]
        assert values == sorted(values)

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            multi_server_ir_lower_bound(10, 1, 0.1, 0.0)
        with pytest.raises(ValueError):
            multi_server_ir_lower_bound(10, 1, 0.1, 1.5)


class TestInversions:
    def test_ir_inversion_is_omega_log_n(self):
        # Constant bandwidth forces eps >= ln(n) - O(1): the paper's answer.
        for n in (2**10, 2**14, 2**18):
            eps = min_epsilon_for_ir_bandwidth(n, bandwidth=4, alpha=0.05)
            assert eps >= math.log(n) - 3

    def test_ir_inversion_consistent_with_bound(self):
        n, alpha, bandwidth = 4096, 0.05, 8.0
        eps = min_epsilon_for_ir_bandwidth(n, bandwidth, alpha)
        assert dp_ir_error_lower_bound(n, eps, alpha) == pytest.approx(
            bandwidth, rel=0.01
        )

    def test_ir_inversion_zero_when_bandwidth_huge(self):
        assert min_epsilon_for_ir_bandwidth(100, 10_000, 0.05) == 0.0

    def test_ram_inversion_is_omega_log_n(self):
        for n in (2**10, 2**14, 2**18):
            eps = min_epsilon_for_ram_bandwidth(n, bandwidth=3, client_blocks=4)
            assert eps >= math.log(n) - 3 * math.log(4) - 0.01

    def test_ram_inversion_zero_for_oram_bandwidth(self):
        # With Theta(log n) bandwidth, obliviousness (eps=0) is possible.
        n = 1024
        eps = min_epsilon_for_ram_bandwidth(
            n, bandwidth=2 * math.log2(n), client_blocks=4
        )
        assert eps == 0.0

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            min_epsilon_for_ir_bandwidth(10, 0, 0.05)
        with pytest.raises(ValueError):
            min_epsilon_for_ram_bandwidth(10, 0, 4)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.5])
    def test_ir_inversion_rejects_alpha_theorem_3_4_excludes(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            min_epsilon_for_ir_bandwidth(1024, 3, alpha)

    @pytest.mark.parametrize("delta", [-0.1, 1.5])
    def test_ir_inversion_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError, match="delta"):
            min_epsilon_for_ir_bandwidth(1024, 3, 0.05, delta)

    @pytest.mark.parametrize("alpha", [-1.0, 2.0])
    def test_ram_inversion_rejects_alpha_theorem_3_7_excludes(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            min_epsilon_for_ram_bandwidth(1024, 3, 4, alpha)

    def test_inversions_accept_the_range_ends(self):
        assert min_epsilon_for_ir_bandwidth(1024, 3, 1.0, 0.0) == 0.0
        assert min_epsilon_for_ram_bandwidth(1024, 3, 4, 0.0) > 0.0
        assert min_epsilon_for_ram_bandwidth(1024, 3, 4, 1.0) == 0.0
