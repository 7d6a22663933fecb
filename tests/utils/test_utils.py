"""Tests for the shared utilities (rng plumbing, table rendering)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.rng import derive_seed, ensure_rng, spawn_rng
from repro.utils.tables import format_table


class TestEnsureRng:
    def test_none_gives_default_deterministic_stream(self):
        first = ensure_rng(None).integers(0, 1000, size=5)
        second = ensure_rng(None).integers(0, 1000, size=5)
        assert np.array_equal(first, second)

    def test_int_seed(self):
        assert np.array_equal(
            ensure_rng(7).integers(0, 100, 5), ensure_rng(7).integers(0, 100, 5)
        )

    def test_generator_passthrough(self):
        rng = np.random.default_rng(1)
        assert ensure_rng(rng) is rng

    def test_invalid_seed_type(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_labels_change_seed(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_spawn_rng_independent_streams(self):
        first = spawn_rng(0, "component-a").integers(0, 10**6, 10)
        second = spawn_rng(0, "component-b").integers(0, 10**6, 10)
        assert not np.array_equal(first, second)

    @given(st.integers(0, 2**31 - 1), st.text(max_size=20))
    def test_seed_is_in_uint32_range(self, base, label):
        seed = derive_seed(base, label)
        assert 0 <= seed < 2**32


class TestFormatTable:
    def test_alignment_and_floats(self):
        text = format_table(
            ["Genre", "g-mean"],
            [("Comedy", 0.756), ("Horror", 0.9)],
            float_format=".2f",
            title="Results",
        )
        lines = text.splitlines()
        assert lines[0] == "Results"
        assert "0.76" in text
        assert "Comedy" in text
        assert len(lines) == 5

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [(1,)])

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text
