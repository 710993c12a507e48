import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import finite_difference_grad
from oracles import (conformity_loss, mixture_decomposition, mixture_weights, relevance_loss,
                     total_loss)
from confrank import losses as L
from confrank.labels import causal_labels


class TestCausalLabels:
    def test_engaged_above_threshold_is_conformity(self):
        out = causal_labels([1], [0.9], 0.5)
        assert out.conformity[0] == 1 and out.relevance[0] == 0

    def test_not_engaged_all_zero(self):
        for x in (0.0, 0.4, 0.9, 1.0):
            out = causal_labels([0], [x], 0.5)
            assert out.conformity[0] == 0 and out.relevance[0] == 0

    def test_x_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            causal_labels([1], [1.2], 0.5)

    @given(st.integers(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_exactly_one_rule(self, engaged, x, thresh):
        out = causal_labels([engaged], [x], thresh)
        if engaged:
            assert out.conformity[0] + out.relevance[0] == 1
        else:
            assert out.conformity[0] == 0 and out.relevance[0] == 0


class TestMixtureWeights:
    def test_symmetry(self):
        assert mixture_weights([0.0, 0.0]) == (0.5, 0.5)

    def test_log3(self):
        w1, w2 = mixture_weights([np.log(3.0), 0.0])
        assert abs(w1 - 0.75) < 1e-12 and abs(w2 - 0.25) < 1e-12

    def test_gradient_at_origin(self):
        fd = finite_difference_grad(lambda z: mixture_weights(z)[0],
                                    np.array([0.0, 0.0]))
        assert abs(fd[0] - 0.25) < 1e-6

    @given(st.tuples(st.floats(-30, 30), st.floats(-30, 30)))
    def test_simplex(self, logits):
        w1, w2 = mixture_weights(logits)
        assert w1 > 0 and w2 > 0
        assert abs(w1 + w2 - 1.0) < 1e-12


class TestConformityLoss:
    def test_spec_values(self):
        assert abs(conformity_loss([1], [0.3], [0.4]) - 0.3) < 1e-12
        assert conformity_loss([0], [0.0], [0.0]) == 0.0
        assert abs(conformity_loss([1], [0.6], [0.6]) - 0.2) < 1e-12

    def test_nonnegative_and_batch_mean(self):
        v = conformity_loss([1, 0], [0.3, 0.1], [0.4, 0.1])
        assert abs(v - (0.3 + 0.2) / 2) < 1e-12


class TestRelevanceLoss:
    def test_spec_values(self):
        assert abs(relevance_loss([[1, 0]], [[0.5, 0.5]], [[1, 0]]) - 0.5) < 1e-12
        assert relevance_loss([[0.25, 0.0]], [[0.5, 0.9]], [[0.5, 0.0]]) == 0.0
        got = relevance_loss([[1, 1, 0]], [[0.8, 0.5, 0.1]], [[1, 1, 1]])
        assert abs(got - 0.8) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            relevance_loss([[1, 0]], [[0.5]], [[0.5]])


class TestTaskLoss:
    def test_half_prob(self):
        assert abs(L.bce([0.5], [1]) - np.log(2.0)) < 1e-12

    def test_clip_floor(self):
        assert L.bce([1.0], [1]) <= -np.log(1.0 - 1e-7) + 1e-15

    def test_logit_gradient_is_p_minus_y(self):
        for logit, y in [(0.3, 1.0), (-1.2, 0.0), (2.0, 1.0)]:
            def f(z):
                p = 1.0 / (1.0 + np.exp(-z[0]))
                return L.bce([p], [y])
            fd = finite_difference_grad(f, np.array([logit]))
            p = 1.0 / (1.0 + np.exp(-logit))
            assert abs(fd[0] - (p - y)) < 1e-6


class TestTotalLoss:
    def test_task_only(self):
        assert total_loss((0.1, 0.2, 0.3), 9.0, 9.0, (1.0, 1.0, 1.0), 0.0, 0.0) == \
            pytest.approx(0.6)

    def test_all_zero(self):
        assert total_loss((0.0,), 0.0, 0.0, (1.0,), 1.0, 1.0) == 0.0

    def test_spec_arithmetic(self):
        got = total_loss((0.5, 0.25), 0.1, 0.2, (2.0, 4.0), 1.0, 0.5)
        assert abs(got - 2.2) < 1e-12

    def test_weight_arity_mismatch(self):
        with pytest.raises(ValueError, match="weights"):
            total_loss((0.5,), 0.0, 0.0, (1.0, 1.0), 0.0, 0.0)

    @given(st.floats(0, 10))
    def test_linear_in_conformity_weight(self, lam):
        base = total_loss((0.5,), 0.4, 0.0, (1.0,), 1.0, 0.0)
        scaled = total_loss((0.5,), 0.4, 0.0, (1.0,), lam, 0.0)
        assert scaled == pytest.approx(0.5 + lam * 0.4)


class TestMixtureDecomposition:
    def test_degenerate(self):
        assert mixture_decomposition(0.7, 0.3, 1.0, 0.0) == pytest.approx(0.7)

    def test_equal_heads(self):
        assert mixture_decomposition(0.42, 0.42, 0.3, 0.7) == pytest.approx(0.42)

    def test_arithmetic(self):
        assert mixture_decomposition(0.8, 0.2, 0.25, 0.75) == pytest.approx(0.35)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0.0, 1.0))
    def test_bounds(self, pc, pr, w1):
        out = float(mixture_decomposition(pc, pr, w1, 1.0 - w1))
        assert min(pc, pr) - 1e-12 <= out <= max(pc, pr) + 1e-12


class TestNormalizedCrossEntropy:
    def test_base_rate_predictor_is_one(self):
        y = np.array([1, 0, 0, 1, 1])
        preds = np.full(5, y.mean())
        assert L.normalized_cross_entropy(preds, y) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_clipped_predictions(self):
        got = L.normalized_cross_entropy([1.0, 0.0], [1, 0])
        expected = -np.log(1.0 - 1e-7) / np.log(2.0)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_hand_arithmetic(self):
        got = L.normalized_cross_entropy([0.9, 0.1, 0.2, 0.8], [1, 0, 0, 1])
        num = np.mean([-np.log(0.9), -np.log(0.9), -np.log(0.8), -np.log(0.8)])
        assert got == pytest.approx(num / np.log(2.0), rel=1e-9)
        assert got == pytest.approx(0.2370, abs=5e-5)

    def test_degenerate_labels_raise(self):
        with pytest.raises(L.DegenerateLabelsError):
            L.normalized_cross_entropy([0.5, 0.5], [1, 1])
        with pytest.raises(L.DegenerateLabelsError):
            L.normalized_cross_entropy([0.5, 0.5], [0, 0])
        with pytest.raises(L.DegenerateLabelsError, match="empty"):
            L.normalized_cross_entropy([], [])

    def test_duplication_invariance(self):
        y = [1, 0, 0, 1]
        p = [0.7, 0.2, 0.4, 0.9]
        a = L.normalized_cross_entropy(p, y)
        b = L.normalized_cross_entropy(p * 3, y * 3)
        assert a == pytest.approx(b, abs=1e-12)
