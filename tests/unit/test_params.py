"""Tests for repro.core.params."""

import math

import pytest

from repro.core.params import (
    DPIRParams,
    DPKVSParams,
    DPRAMParams,
    TreeShape,
    default_phi,
    dp_ir_exact_epsilon,
    dp_ir_pad_size,
    dp_ir_pad_size_paper,
    dp_ram_epsilon_upper_bound,
)


class TestDefaultPhi:
    def test_superlogarithmic(self):
        # phi(n)/log2(n) should grow
        ratios = [default_phi(n) / math.log2(n) for n in (2**10, 2**16, 2**24)]
        assert ratios == sorted(ratios)

    def test_floor_of_eight(self):
        assert default_phi(2) == 8
        assert default_phi(16) == 8

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            default_phi(0)


class TestDpIrPadSize:
    def test_formula(self):
        n, alpha = 1000, 0.05
        epsilon = math.log(n)
        expected = math.ceil((1 - alpha) * n / (alpha * (math.exp(epsilon) - 1)))
        assert dp_ir_pad_size(n, epsilon, alpha) == expected

    def test_paper_formula_variant(self):
        n, alpha = 1000, 0.05
        epsilon = math.log(n)
        expected = math.ceil((1 - alpha) * n / (math.exp(epsilon) - 1))
        assert dp_ir_pad_size_paper(n, epsilon, alpha) == expected
        # The paper's pseudocode formula overshoots the target budget by
        # ~ln(1/alpha); both variants share the O(n/e^eps) asymptotics.
        paper_k = dp_ir_pad_size_paper(n, 4.0, alpha)
        library_k = dp_ir_pad_size(n, 4.0, alpha)
        assert library_k >= paper_k

    def test_epsilon_zero_downloads_everything(self):
        assert dp_ir_pad_size(100, 0.0, 0.1) == 100

    def test_small_epsilon_clamps_to_n(self):
        assert dp_ir_pad_size(100, 1e-9, 0.1) == 100

    def test_huge_epsilon_clamps_to_one(self):
        assert dp_ir_pad_size(100, 100.0, 0.1) == 1

    def test_monotone_decreasing_in_epsilon(self):
        n, alpha = 4096, 0.05
        sizes = [dp_ir_pad_size(n, eps, alpha) for eps in (2, 4, 6, 8, 10)]
        assert sizes == sorted(sizes, reverse=True)

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            dp_ir_pad_size(10, -1.0, 0.1)

    @pytest.mark.parametrize("resolver", [dp_ir_pad_size, dp_ir_pad_size_paper])
    def test_nan_epsilon_is_named_before_ceil(self, resolver):
        # NaN passes an ``epsilon < 0`` guard and reaches ``math.ceil``.
        with pytest.raises(ValueError, match="epsilon"):
            resolver(10, float("nan"), 0.1)

    @pytest.mark.parametrize("scheme", ["dp_ir", "cluster_dp_ir"])
    def test_nan_epsilon_build_is_named(self, scheme):
        import repro

        with pytest.raises(ValueError, match="epsilon"):
            repro.build(scheme, n=64, epsilon=float("nan"), seed=1)

    def test_rejects_alpha_bounds(self):
        with pytest.raises(ValueError):
            dp_ir_pad_size(10, 1.0, 0.0)
        with pytest.raises(ValueError):
            dp_ir_pad_size(10, 1.0, 1.0)


class TestDpIrExactEpsilon:
    def test_formula(self):
        n, k, alpha = 1000, 5, 0.05
        expected = math.log((1 - alpha) * n / (alpha * k) + 1)
        assert dp_ir_exact_epsilon(n, k, alpha) == pytest.approx(expected)

    def test_full_download_is_oblivious(self):
        assert dp_ir_exact_epsilon(100, 100, 0.05) == 0.0

    def test_roundtrip_with_pad_size(self):
        # The resolver guarantees the achieved budget never exceeds the
        # target (ceil only grows K, which only shrinks epsilon).
        n, alpha = 2048, 0.05
        for target in (2.0, 4.0, 6.0, math.log(n), 50.0):
            pad = dp_ir_pad_size(n, target, alpha)
            achieved = dp_ir_exact_epsilon(n, pad, alpha)
            assert achieved <= target

    def test_monotone_decreasing_in_k(self):
        values = [dp_ir_exact_epsilon(1000, k, 0.05) for k in (1, 2, 8, 64, 512)]
        assert values == sorted(values, reverse=True)

    def test_rejects_bad_pad(self):
        with pytest.raises(ValueError):
            dp_ir_exact_epsilon(10, 0, 0.05)
        with pytest.raises(ValueError):
            dp_ir_exact_epsilon(10, 11, 0.05)


class TestDPIRParams:
    def test_from_epsilon(self):
        params = DPIRParams.from_epsilon(1024, math.log(1024), 0.05)
        assert params.pad_size >= 1
        assert params.epsilon > 0

    def test_from_pad_size(self):
        params = DPIRParams.from_pad_size(1024, 3, 0.05)
        assert params.pad_size == 3
        assert params.epsilon == pytest.approx(
            dp_ir_exact_epsilon(1024, 3, 0.05)
        )


class TestDPRAMParams:
    def test_from_phi_default(self):
        params = DPRAMParams.from_phi(1024)
        assert params.stash_probability == pytest.approx(
            default_phi(1024) / 1024
        )
        assert params.expected_stash == pytest.approx(default_phi(1024))

    def test_from_phi_explicit(self):
        params = DPRAMParams.from_phi(100, phi=10)
        assert params.stash_probability == pytest.approx(0.1)

    def test_phi_larger_than_n_clamps(self):
        params = DPRAMParams.from_phi(4, phi=100)
        assert params.stash_probability == 1.0

    def test_from_probability(self):
        params = DPRAMParams.from_probability(100, 0.25)
        assert params.expected_stash == pytest.approx(25.0)

    def test_epsilon_bound_formula(self):
        n, p = 512, 0.05
        assert dp_ram_epsilon_upper_bound(n, p) == pytest.approx(
            3 * math.log(n**3 / p**2)
        )

    def test_epsilon_bound_is_o_log_n(self):
        # With p = phi(n)/n the bound divided by ln(n) must stay bounded.
        ratios = []
        for n in (2**10, 2**14, 2**18):
            params = DPRAMParams.from_phi(n)
            ratios.append(params.epsilon_bound / math.log(n))
        assert max(ratios) < 16  # 15 ln n - 6 ln phi(n) => ratio < 15

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            DPRAMParams.from_probability(10, 0.0)
        with pytest.raises(ValueError):
            DPRAMParams.from_probability(10, 1.5)


class TestTreeShape:
    def test_leaves_power_of_two(self):
        for n in (100, 1000, 10000, 100000):
            shape = TreeShape.for_capacity(n)
            leaves = shape.leaves_per_tree
            assert leaves & (leaves - 1) == 0

    def test_leaf_count_covers_n(self):
        for n in (3, 64, 1000, 4097):
            assert TreeShape.for_capacity(n).leaf_count >= n

    def test_leaves_theta_log_n(self):
        for n in (2**10, 2**16):
            shape = TreeShape.for_capacity(n)
            log_n = math.log2(n)
            assert log_n <= shape.leaves_per_tree <= 2 * log_n

    def test_total_nodes_linear_in_n(self):
        for n in (2**10, 2**14, 2**18):
            shape = TreeShape.for_capacity(n)
            assert shape.total_nodes <= 3 * n  # O(n) server storage

    def test_path_length_is_depth_plus_one(self):
        shape = TreeShape.for_capacity(1000)
        assert shape.path_length == shape.depth + 1
        assert shape.leaves_per_tree == 2**shape.depth

    def test_slots(self):
        shape = TreeShape.for_capacity(100, node_capacity=3)
        assert shape.slots == shape.total_nodes * 3

    def test_explicit_leaves(self):
        shape = TreeShape.for_capacity(100, leaves_per_tree=8)
        assert shape.leaves_per_tree == 8
        assert shape.depth == 3

    def test_rejects_non_power_of_two_leaves(self):
        with pytest.raises(ValueError):
            TreeShape.for_capacity(100, leaves_per_tree=6)

    def test_rejects_bad_node_capacity(self):
        with pytest.raises(ValueError):
            TreeShape.for_capacity(100, node_capacity=0)


class TestDPKVSParams:
    def test_for_capacity_defaults(self):
        params = DPKVSParams.for_capacity(1024)
        assert params.choices == 2
        assert params.phi == default_phi(1024)
        assert 0 < params.stash_probability <= 1

    def test_blocks_per_operation(self):
        params = DPKVSParams.for_capacity(1024)
        assert params.blocks_per_operation() == 6 * params.shape.path_length

    def test_stash_probability_from_phi(self):
        params = DPKVSParams.for_capacity(1000, phi=50)
        assert params.stash_probability == pytest.approx(
            50 / params.shape.leaf_count
        )

    def test_rejects_bad_phi(self):
        with pytest.raises(ValueError):
            DPKVSParams.for_capacity(100, phi=0)
