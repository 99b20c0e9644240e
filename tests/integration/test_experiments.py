"""Integration: every experiment driver runs and its table shape holds.

The benches exercise the same drivers with bigger parameters; these tests
keep them runnable (small sizes) and assert the *claims* encoded in each
table, so a regression in any scheme breaks the experiment that cites it.
"""

import inspect
import math

import pytest

from repro.simulation import experiments


class TestDriversProduceTables:
    @pytest.mark.parametrize("driver", experiments.ALL_EXPERIMENTS,
                             ids=lambda d: d.__name__)
    def test_driver_runs_with_defaults_shape(self, driver):
        # Smoke at reduced scale where the signature allows it.
        parameters = inspect.signature(driver).parameters
        kwargs = {}
        if "sizes" in parameters:
            kwargs["sizes"] = (64, 128)
        if "queries" in parameters:
            kwargs["queries"] = 20
        if "operations" in parameters:
            kwargs["operations"] = 20
        if "trials" in parameters:
            kwargs["trials"] = 100
        if "n" in parameters:
            kwargs["n"] = 64
        table = driver(**kwargs)
        assert table.rows
        assert all(len(row) == len(table.headers) for row in table.rows)
        assert table.to_text()
        assert table.to_markdown()


class TestClaimsHold:
    def test_e1_bound_met_with_equality(self):
        table = experiments.experiment_e01_errorless_ir(sizes=(128,), queries=10)
        for row in table.rows:
            n, bound, measured, ok = row
            assert ok is True
            assert measured == n == bound

    def test_e2_constructions_above_floor(self):
        table = experiments.experiment_e02_dpir_lower_bound(n=256, queries=60)
        assert all(row[-1] is True for row in table.rows)

    def test_e3_pad_constant_across_n(self):
        table = experiments.experiment_e03_dpir_construction(
            sizes=(256, 1024, 4096), alphas=(0.05,), queries=50
        )
        pads = [row[2] for row in table.rows]
        assert max(pads) - min(pads) <= 2  # O(1): flat across n

    def test_e3_error_rate_tracks_alpha(self):
        table = experiments.experiment_e03_dpir_construction(
            sizes=(512,), alphas=(0.1,), queries=1500
        )
        error_rate = table.rows[0][-1]
        assert 0.06 < error_rate < 0.14

    def test_e4_strawman_broken_dpir_not(self):
        table = experiments.experiment_e04_strawman(sizes=(128,), trials=600)
        for row in table.rows:
            _, delta, straw_success, dpir_success, ceiling = row
            assert delta > 0.9
            assert straw_success > 0.9
            assert dpir_success <= ceiling + 0.05

    def test_e5_floor_vanishes_at_log_n(self):
        table = experiments.experiment_e05_dpram_lower_bound(n=256)
        last_rows = [row for row in table.rows if row[1] >= math.log(256)]
        assert all(row[2] <= 3.0 for row in last_rows)

    def test_e6_constant_bandwidth_and_bounded_stash(self):
        table = experiments.experiment_e06_dpram_construction(
            sizes=(128, 512), queries=100
        )
        for row in table.rows:
            _, phi, blocks, expected, stash_peak, cap, *_rest, mismatches = row
            # At most 3, flat in n, expected 2 + O(p).
            assert 2.0 <= blocks <= 3.0
            assert 2.0 < expected < 2.5
            assert abs(blocks - expected) < 0.2
            assert stash_peak <= cap + 5
            assert mismatches == 0

    def test_e7_ratios_within_budget(self):
        table = experiments.experiment_e07_dpram_ratios(trials=200)
        assert all(row[-1] is True for row in table.rows)

    def test_e8_one_choice_worse(self):
        table = experiments.experiment_e08_two_choice(sizes=(2048,))
        for row in table.rows:
            _, one, two, three, *_ = row
            assert one > two
            assert three <= two + 1

    def test_e9_super_root_within_phi(self):
        table = experiments.experiment_e09_tree_hashing(sizes=(2048, 8192))
        assert all(row[5] is True for row in table.rows)

    def test_e10_storage_linear_and_costs_loglog(self):
        table = experiments.experiment_e10_dpkvs(sizes=(128, 512),
                                                 operations=40)
        for row in table.rows:
            (_, path_len, measured, expected, at_most,
             nodes_per_n, padded_per_n, mism) = row
            assert at_most == 6 * path_len
            assert 4 * path_len < measured <= at_most
            assert measured <= expected + 1.0   # 40 ops around the estimate
            assert nodes_per_n < 3
            assert padded_per_n > nodes_per_n
            assert mism == 0

    def test_e11_factor_grows(self):
        table = experiments.experiment_e11_vs_oram(sizes=(128, 1024),
                                                   queries=40)
        factors = [row[-1] for row in table.rows]
        assert factors[0] < factors[-1]

    def test_e12_bound_met_and_view_scales(self):
        table = experiments.experiment_e12_multi_server(n=256, queries=60)
        assert all(row[-1] is True for row in table.rows)
        views = [row[4] for row in table.rows]
        assert views == sorted(views)

    def test_run_all_renders(self):
        # Tiny global smoke via markdown path (uses default params for one
        # driver only would be slow; rely on the parametrized smoke above).
        assert callable(experiments.run_all)
