"""Tests for the compositional primitives."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from deepcoda import (
    CompositionMatrix,
    closure,
    clr,
    log_contrast,
    replace_zeros,
    subcomposition,
)
from deepcoda.coda import _replace_zeros_values, _RowFault, _sums_to_one

positive_vectors = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=8,
).map(lambda xs: np.array(xs))

scale_factors = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def near_relative_rows(draw):
    """Rows of proportions, each holding a zero, whose sums are pushed to the edge of 1 +- 1e-9.

    Within about 1e-15 of the edge, a row may cross it by the rounding of
    imputation: about 1.8 % of them do.
    """
    d = draw(st.integers(2, 9))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        parts = draw(st.lists(st.floats(1e-3, 1.0), min_size=d - 1, max_size=d - 1))
        row = np.insert(np.array(parts), draw(st.integers(0, d - 1)), 0.0)
        row /= row.sum()
        row *= 1.0 + draw(st.sampled_from([-1.0, 1.0])) * (1e-9 - draw(st.floats(0.0, 1e-15)))
        rows.append(row.tolist())
    return rows


class TestClosure:
    def test_three_part_example(self):
        assert_allclose(closure([4.0, 10.0, 6.0]), [0.2, 0.5, 0.3], rtol=0, atol=1e-15)

    def test_uniform_vector(self):
        assert_allclose(closure([1.0, 1.0, 1.0, 1.0]), [0.25] * 4, rtol=0, atol=0)

    @settings(deadline=None)
    @given(positive_vectors)
    def test_idempotent(self, v):
        once = closure(v)
        assert_allclose(closure(once), once, rtol=0, atol=1e-12)

    @settings(deadline=None)
    @given(positive_vectors, scale_factors)
    def test_scale_invariant(self, v, c):
        assert_allclose(closure(c * v), closure(v), rtol=0, atol=1e-12)

    def test_matrix_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        mat = rng.uniform(0.1, 10.0, size=(20, 5))
        out = closure(mat)
        assert out.shape == mat.shape
        assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            closure([0.0, 0.0, 0.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            closure([1.0, -1.0, 2.0])

    def test_rejects_overflowing_row_sum_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sum must be finite"):
                closure([[1.0, 1.0], [1e308, 1e308]])


class TestReplaceZeros:
    def test_single_zero_row(self):
        m = CompositionMatrix([[0.0, 2.0, 2.0]], ["s0"], ["a", "b", "c"], "absolute")
        out = replace_zeros(m, delta_fraction=0.5)
        # delta = 0.5 * 2 = 1.0; remaining mass rescaled to keep the sum at 4
        assert out.values[0, 0] == 1.0
        assert out.values[0, 1] / out.values[0, 2] == 1.0
        assert_allclose(out.values[0].sum(), 4.0, rtol=0, atol=1e-12)

    def test_no_zeros_returned_unchanged(self):
        m = CompositionMatrix(
            [[1.0, 2.0], [3.0, 4.0]], ["s0", "s1"], ["a", "b"], "absolute"
        )
        out = replace_zeros(m)
        assert out is m

    def test_row_sums_preserved(self):
        values = np.array(
            [[0.0, 2.0, 3.0], [5.0, 0.0, 1.0], [4.0, 6.0, 0.0]]
        )
        m = CompositionMatrix(values, ["a", "b", "c"], ["x", "y", "z"], "absolute")
        out = replace_zeros(m, delta_fraction=0.3)
        # independent oracle: direct summation before and after
        assert_allclose(out.values.sum(axis=1), values.sum(axis=1), rtol=0, atol=1e-12)
        assert np.all(out.values > 0)

    def test_nonzero_ratios_preserved(self):
        values = np.array([[0.0, 3.0, 5.0, 7.0]])
        m = CompositionMatrix(values, ["s"], list("abcd"), "absolute")
        out = replace_zeros(m, delta_fraction=0.5)
        assert_allclose(
            out.values[0, 1:] / out.values[0, 1], values[0, 1:] / values[0, 1],
            rtol=1e-15, atol=0,
        )

    def test_overflowing_row_sum_imputes_without_warning(self):
        # The sum is inf, so the nonzero parts keep their values (scale exactly 1).
        m = CompositionMatrix([[1e308, 1e308, 0.0, 1.0]], ["s0"], list("abcd"), "absolute")
        out = replace_zeros(m, delta_fraction=0.5)
        assert out.values.tolist() == [[1e308, 1e308, 0.5, 1.0]]

    def test_overflowing_imputed_mass_imputes_without_warning(self):
        # The sum and the imputed mass are both inf: the nonzero parts still keep
        # their values (inf / inf would make them NaN), and the other row its bits.
        other = [0.0, 3.0, 5.0, 7.0, 11.0, 13.0]
        m = CompositionMatrix([[1.7e308, 1.7e308, 0.0, 0.0, 0.0, 0.0], other], ["s0", "s1"],
                              list("abcdef"), "absolute")
        out = replace_zeros(m, delta_fraction=0.5)
        assert out.values[0].tolist() == [1.7e308, 1.7e308, *[0.5 * 1.7e308] * 4]
        alone = replace_zeros(CompositionMatrix([other], ["s1"], list("abcdef"), "absolute"))
        assert out.values[1].tobytes() == alone.values[0].tobytes()

    def test_relative_rows_still_close(self):
        values = np.array([[0.0, 0.5, 0.5], [0.25, 0.25, 0.5]])
        m = CompositionMatrix(values, ["s0", "s1"], list("abc"), "relative")
        out = replace_zeros(m, delta_fraction=0.4)
        assert out.kind == "relative"
        assert_allclose(out.values.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @settings(deadline=None)
    @given(rows=near_relative_rows())
    # Rows that sum to 1 within 1e-9 but not once their zero is imputed.
    @example(rows=[[0.0, 0.11638940957447788, 0.10661105421141165, 0.7769995372141104]])
    @example(rows=[[0.20572013202680742, 0.059281609996512635, 0.12004985036527663,
                    0.09862500912069663, 0.20738792778713694, 0.00902392711910848,
                    0.1630573832588376, 0.13685416132562367, 0.0]])
    def test_relative_rows_stay_relative(self, rows):
        values = np.array(rows)
        assume(_sums_to_one(values))
        m = CompositionMatrix(values, [f"s{i}" for i in range(len(rows))],
                              [f"f{j}" for j in range(values.shape[1])], "relative")
        out = replace_zeros(m)
        assert out.kind == "relative"
        assert out.values.tobytes() == _replace_zeros_values(values, 0.5).tobytes()

    def test_all_zero_row_rejected(self):
        m = CompositionMatrix([[0.0, 0.0], [1.0, 2.0]], ["s0", "s1"], ["a", "b"], "absolute")
        with pytest.raises(ValueError, match="zero"):
            replace_zeros(m)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 2.0])
    def test_bad_delta_fraction(self, fraction):
        m = CompositionMatrix([[1.0, 2.0]], ["s0"], ["a", "b"], "absolute")
        with pytest.raises(ValueError):
            replace_zeros(m, delta_fraction=fraction)

    @staticmethod
    def _row_loop(values, delta_fraction):
        """The row-at-a-time reference: the outcome as an array or an error message."""
        zero_mask = values == 0
        out = values.copy()
        for i in np.flatnonzero(zero_mask.any(axis=1)):
            row = values[i]
            nonzero = row[row > 0]
            if nonzero.size == 0:
                return f"row {i} is entirely zero"
            delta = delta_fraction * nonzero.min()
            if delta == 0:
                return f"row {i}: imputed value underflows to zero"
            n_zero = int(zero_mask[i].sum())
            scale = 1.0 - n_zero * delta / row.sum()
            if scale <= 0:
                return f"row {i}: imputed mass exceeds the row total"
            out[i] = np.where(zero_mask[i], delta, row * scale)
            if not out[i].all():  # a rescaled part rounded to 0
                return f"row {i}: imputed value underflows to zero"
        return out

    @pytest.mark.parametrize("d", [2, 3, 8, 9, 17])
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    def test_bitwise_equal_to_row_loop(self, d, fraction):
        rng = np.random.default_rng(d)
        values = rng.lognormal(0.0, 1.0, size=(400, d))
        # Up to (d - 1) // 2 zeros a row (one for d = 2) keeps every row imputable.
        n_zero = rng.integers(0, max(1, (d - 1) // 2), size=400, endpoint=True)
        ranks = rng.random(size=values.shape).argsort(axis=1).argsort(axis=1)
        values[ranks < n_zero[:, None]] = 0.0
        m = CompositionMatrix(values, [f"s{i}" for i in range(400)], [f"f{j}" for j in range(d)], "absolute")
        expected = self._row_loop(values, fraction)
        assert isinstance(expected, np.ndarray), expected
        out = replace_zeros(m, fraction).values
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "values,message",
        [
            ([[1.0, 2.0, 3.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], "row 1: imputed mass exceeds"),
            ([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], "row 1 is entirely zero"),
            # Half the subnormal 5e-324 rounds to 0, which would leave a zero in the output.
            ([[1.0, 2.0, 3.0], [0.0, 5e-324, 1.0], [0.0, 0.0, 0.0]],
             "row 1: imputed value underflows to zero"),
            # Half of 1e-323 is 5e-324, and the rescaled 1e-323 (scale 0.25) rounds to 0.
            ([[1.0] * 10, [1e-323] * 4 + [0.0] * 6, [0.0] * 10],
             "row 1: imputed value underflows to zero"),
        ],
    )
    def test_first_offending_row_is_reported(self, values, message):
        names = [f"f{j}" for j in range(len(values[0]))]
        m = CompositionMatrix(values, ["s0", "s1", "s2"], names, "absolute")
        assert self._row_loop(np.array(values), 0.5).startswith(message)
        with pytest.raises(ValueError, match=message):
            replace_zeros(m, delta_fraction=0.5)

    @settings(deadline=None, max_examples=300)
    @given(
        row=st.lists(st.sampled_from([0.0, 5e-324, 1e-323, 2.2e-308, 1.0, 3.0, 1e300, 1.7e308]),
                     min_size=2, max_size=10),
        fraction=st.sampled_from([0.1, 0.5, 0.9, 0.999]),
    )
    # Rows whose rescaled parts round to 0.
    @example(row=[5e-324, 0.0, 5e-324], fraction=0.9)
    @example(row=[1e-323] * 4 + [0.0] * 6, fraction=0.5)
    def test_imputed_rows_are_positive_or_rejected(self, row, fraction):
        values = np.array([row])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = _replace_zeros_values(values, fraction)
            except _RowFault as exc:
                assert exc.row == 0
                return
        assert np.isfinite(out).all() and (out > 0).all(), out


class TestClr:
    def test_uniform_maps_to_zero(self):
        assert_allclose(clr([1.0, 1.0, 1.0, 1.0]), np.zeros(4), rtol=0, atol=0)

    @settings(deadline=None)
    @given(positive_vectors)
    def test_rows_sum_to_zero(self, v):
        assert abs(clr(v).sum()) <= 1e-12

    def test_matches_scalar_oracle(self):
        x = [0.2, 0.5, 0.3]
        # independent scalar computation: ln(x_j) - mean(ln x)
        logs = [math.log(v) for v in x]
        mean_log = sum(logs) / len(logs)
        expected = [lv - mean_log for lv in logs]
        assert_allclose(clr(x), expected, rtol=0, atol=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            clr([1.0, 0.0, 2.0])
        with pytest.raises(ValueError):
            clr([1.0, -2.0, 2.0])


class TestLogContrast:
    def test_absolute_and_closed_agree(self):
        beta = [0.5, 0.5, -1.0]
        value_abs = log_contrast([4.0, 10.0, 6.0], beta)
        value_rel = log_contrast([0.2, 0.5, 0.3], beta)
        # ln(sqrt(a*b)/c) computed independently
        expected = math.log(math.sqrt(4.0 * 10.0) / 6.0)
        assert value_abs == pytest.approx(expected, abs=1e-12)
        assert value_rel == pytest.approx(expected, abs=1e-12)
        assert value_abs == pytest.approx(value_rel, abs=1e-12)

    def test_zero_beta_returns_intercept(self):
        assert log_contrast([3.0, 7.0], [0.0, 0.0], beta0=2.5) == 2.5

    @settings(deadline=None)
    @given(positive_vectors, scale_factors)
    def test_zero_sum_coefficients_are_scale_invariant(self, x, c):
        rng = np.random.default_rng(len(x))
        beta = rng.normal(size=x.shape[0])
        beta -= beta.mean()
        assert log_contrast(c * x, beta) == pytest.approx(log_contrast(x, beta), abs=1e-9)

    def test_invariant_under_closure(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.uniform(0.01, 100.0, size=6)
            beta = rng.normal(size=6)
            beta -= beta.mean()
            assert log_contrast(closure(x), beta) == pytest.approx(
                log_contrast(x, beta), abs=1e-9
            )

    def test_rejects_nonpositive_entry(self):
        with pytest.raises(ValueError):
            log_contrast([1.0, 0.0], [1.0, -1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            log_contrast([1.0, 2.0], [1.0, -0.5, -0.5])


class TestSubcomposition:
    def _relative(self, values):
        values = np.asarray(values, dtype=float)
        ids = [f"s{i}" for i in range(values.shape[0])]
        names = [f"f{j}" for j in range(values.shape[1])]
        return CompositionMatrix(closure(values), ids, names, "relative")

    def test_keep_all_is_identity_for_relative(self):
        m = self._relative([[1.0, 2.0, 3.0], [5.0, 1.0, 4.0]])
        out = subcomposition(m, [0, 1, 2])
        assert_allclose(out.values, m.values, rtol=0, atol=1e-15)

    def test_two_part_arithmetic(self):
        m = CompositionMatrix([[0.2, 0.5, 0.3]], ["s"], list("abc"), "relative")
        out = subcomposition(m, [0, 1])
        assert_allclose(out.values[0], [2.0 / 7.0, 5.0 / 7.0], rtol=0, atol=1e-15)
        assert out.feature_names == ("a", "b")

    def test_log_contrast_coherent_on_subcomposition(self):
        # coefficients supported on the kept parts with zero sum there
        rng = np.random.default_rng(3)
        values = rng.uniform(0.1, 50.0, size=(25, 6))
        m = self._relative(values)
        keep = [1, 3, 4]
        beta_sub = rng.normal(size=3)
        beta_sub -= beta_sub.mean()
        beta_full = np.zeros(6)
        beta_full[keep] = beta_sub
        sub = subcomposition(m, keep)
        for i in range(m.n_samples):
            full_value = log_contrast(m.values[i], beta_full)
            sub_value = log_contrast(sub.values[i], beta_sub)
            assert sub_value == pytest.approx(full_value, abs=1e-9)

    def test_absolute_not_reclosed(self):
        m = CompositionMatrix([[1.0, 2.0, 3.0]], ["s"], list("abc"), "absolute")
        out = subcomposition(m, [0, 2])
        assert_allclose(out.values[0], [1.0, 3.0], rtol=0, atol=0)

    def test_rejects_empty_keep(self):
        m = CompositionMatrix([[1.0, 2.0]], ["s"], ["a", "b"], "absolute")
        with pytest.raises(ValueError):
            subcomposition(m, [])

    def test_rejects_duplicates_and_out_of_range(self):
        m = CompositionMatrix([[1.0, 2.0, 3.0]], ["s"], list("abc"), "absolute")
        with pytest.raises(ValueError):
            subcomposition(m, [0, 0])
        with pytest.raises(ValueError):
            subcomposition(m, [0, 3])

    # Cast to int, the mask kept (b, a) and the floats kept (a, b).
    @pytest.mark.parametrize("keep", [[True, False], [0.7, 1.2]], ids=["bool_mask", "floats"])
    def test_rejects_non_integer_keep(self, keep):
        m = CompositionMatrix([[1.0, 2.0, 3.0]], ["s"], list("abc"), "absolute")
        with pytest.raises(ValueError, match="keep must hold integer indices"):
            subcomposition(m, keep)


class TestCompositionMatrix:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            CompositionMatrix([[1.0, -0.1]], ["s"], ["a", "b"], "absolute")

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CompositionMatrix([[1.0, np.nan]], ["s"], ["a", "b"], "absolute")

    def test_rejects_bad_relative_rows(self):
        # A sum that overflows is not 1 either, and says so without a warning.
        for row in ([0.5, 0.6], [1e308, 1e308]):
            with pytest.raises(ValueError, match="relative rows must sum to 1"):
                CompositionMatrix([row], ["s"], ["a", "b"], "relative")

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            CompositionMatrix([[0.5, 0.5]], ["s"], ["a", "b"], "proportional")

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError):
            CompositionMatrix([[0.5, 0.5]], ["s", "t"], ["a", "b"], "relative")
        with pytest.raises(ValueError):
            CompositionMatrix([[0.5, 0.5]], ["s"], ["a"], "relative")

    def test_shape_accessors(self):
        m = CompositionMatrix([[1.0, 2.0, 3.0]], ["s"], list("abc"), "absolute")
        assert (m.n_samples, m.n_features) == (1, 3)
