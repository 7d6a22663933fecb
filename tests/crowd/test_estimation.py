"""Tests for the streaming Chao92 species estimator.

The hypothesis properties pin down the estimator invariants the
``CrowdEnumerate`` stopping rule relies on: coverage stays a probability,
uniques only grow, duplicates never inflate the richness estimate, and the
f1/f2 fallback never divides by zero — for *any* observation sequence.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd.estimation import (
    Chao92Estimator,
    EnumerationStats,
    enumeration_attribute,
    enumeration_predicate,
    normalize_entity,
)

#: Entity keys drawn from a small alphabet so sequences contain duplicates.
KEYS = st.lists(st.integers(min_value=0, max_value=30).map(str), max_size=200)


class TestChao92Properties:
    @given(KEYS)
    @settings(max_examples=200, deadline=None)
    def test_coverage_is_a_probability(self, keys):
        estimator = Chao92Estimator()
        for key in keys:
            estimator.observe(key)
            assert 0.0 <= estimator.coverage() <= 1.0
            assert 0.0 <= estimator.est_coverage() <= 1.0

    @given(KEYS)
    @settings(max_examples=200, deadline=None)
    def test_unique_seen_is_monotone_nondecreasing(self, keys):
        estimator = Chao92Estimator()
        previous = 0
        for key in keys:
            estimator.observe(key)
            assert estimator.unique_seen >= previous
            previous = estimator.unique_seen

    @given(KEYS)
    @settings(max_examples=200, deadline=None)
    def test_duplicate_only_batches_never_raise_est_total(self, keys):
        estimator = Chao92Estimator()
        for key in keys:
            estimator.observe(key)
        if estimator.unique_seen == 0:
            return
        baseline = estimator.est_total()
        # Re-observe every already-seen key: pure duplicates must never
        # increase the richness estimate (they only firm up coverage).
        for key in set(keys):
            estimator.observe(key)
            assert estimator.est_total() <= baseline + 1e-9
            baseline = estimator.est_total()

    @given(KEYS)
    @settings(max_examples=200, deadline=None)
    def test_fallback_never_divides_by_zero_and_bounds_hold(self, keys):
        estimator = Chao92Estimator()
        for key in keys:
            estimator.observe(key)
        total = estimator.est_total()
        assert math.isfinite(total)
        # Richness can never be estimated below what was already seen.
        assert total >= estimator.unique_seen - 1e-9

    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_all_singletons_use_the_f1_f2_fallback_continuously(self, n):
        # n distinct observations: coverage 1 - f1/n == 0, so est_total
        # takes the bias-corrected f1/f2 fallback — which at the boundary
        # equals the D/C form's limit, D(D+1)/2.
        estimator = Chao92Estimator()
        for i in range(n):
            estimator.observe(str(i))
        assert estimator.singletons == n
        assert estimator.doubletons == 0
        assert estimator.coverage() == 0.0
        assert estimator.est_total() == pytest.approx(n * (n + 1) / 2)


class TestChao92Unit:
    def test_empty_estimator(self):
        estimator = Chao92Estimator()
        assert estimator.sample_size == 0
        assert estimator.unique_seen == 0
        assert estimator.est_total() == 0.0
        assert estimator.est_coverage() == 0.0

    def test_incremental_f1_f2_bookkeeping(self):
        estimator = Chao92Estimator()
        estimator.observe("a")
        assert (estimator.singletons, estimator.doubletons) == (1, 0)
        estimator.observe("a")
        assert (estimator.singletons, estimator.doubletons) == (0, 1)
        estimator.observe("a")
        assert (estimator.singletons, estimator.doubletons) == (0, 0)
        estimator.observe("b")
        assert (estimator.singletons, estimator.doubletons) == (1, 0)
        assert "a" in estimator and "b" in estimator and "c" not in estimator

    def test_known_chao92_value(self):
        # n=6, D=3, f1=1 (c), coverage = 1 - 1/6; est_total = 3 / (5/6) = 3.6
        estimator = Chao92Estimator()
        for key in ["a", "a", "a", "b", "b", "c"]:
            estimator.observe(key)
        assert estimator.coverage() == pytest.approx(5 / 6)
        assert estimator.est_total() == pytest.approx(3.6)
        assert estimator.est_coverage() == pytest.approx(3 / 3.6)


class TestEntityResolution:
    def test_normalize_entity_collapses_case_and_whitespace(self):
        assert normalize_entity("  Ice   CREAM\t") == "ice cream"
        assert normalize_entity("ice cream") == normalize_entity("Ice Cream")

    def test_estimator_with_normalized_keys_deduplicates(self):
        estimator = Chao92Estimator()
        estimator.observe(normalize_entity("Mint Chip"))
        estimator.observe(normalize_entity("  mint   chip "))
        assert estimator.unique_seen == 1
        assert estimator.sample_size == 2


class TestEnumerationAttribute:
    def test_round_trip(self):
        attribute = enumeration_attribute("ice cream flavors")
        assert enumeration_predicate(attribute) == "ice cream flavors"

    def test_fill_attributes_are_not_enumerations(self):
        assert enumeration_predicate("humor") is None
        assert enumeration_predicate("__enum_humor") is None

    def test_stats_as_dict_is_json_safe(self):
        stats = EnumerationStats(
            predicate="p",
            rows_enumerated=3,
            unique_seen=3,
            est_total=4.5678949,
            est_coverage=0.656789,
            stopped_on="completeness",
            batches=2,
            sample_size=10,
            cache_hits=1,
            coalesced=0,
            cost=0.1234567,
            completeness_target=0.9,
            budget=None,
        )
        payload = stats.as_dict()
        assert payload["est_total"] == 4.5679
        assert payload["est_coverage"] == 0.6568
        assert payload["cost"] == 0.123457
        assert payload["stopped_on"] == "completeness"
