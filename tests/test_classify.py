import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from opmine.classify import (
    decide,
    predict_nb,
    predict_svm,
    train_nb,
    train_svm,
    train_svm_pair,
)

from conftest import make_separable_2d
from svm_oracle import (
    svm_objective,
    svm_objective_gradient,
    train_svm_dense,
    train_svm_lazy_int,
)


class TestDecide:
    def test_sign_of_score_picks_label(self):
        assert decide(0.5, ("a", "b"), (1, 9)) == "a"
        assert decide(-0.5, ("a", "b"), (9, 1)) == "b"

    def test_zero_with_unequal_counts_picks_larger_class(self):
        assert decide(0.0, ("a", "b"), (2, 1)) == "a"
        assert decide(0.0, ("a", "b"), (1, 2)) == "b"
        assert decide(-0.0, (1, -1), (1, 2)) == -1

    def test_zero_with_equal_counts_picks_smaller_label_by_str(self):
        assert decide(0.0, ("b", "a"), (3, 3)) == "a"
        assert decide(0.0, ("subjective", "objective"), (0, 0)) == "objective"
        assert decide(0.0, (1, -1), (3, 3)) == -1  # "-1" < "1"


# --- independent Bayes-rule oracle ------------------------------------------

def brute_force_nb_score(train_vecs, train_labels, classes, alpha, m, x):
    """Posterior log-odds straight from corpus counts, no shared code with train_nb."""
    pos, neg = classes
    n = len(train_labels)

    def class_stats(cls):
        members = [v for v, lab in zip(train_vecs, train_labels) if lab == cls]
        sums = [0.0] * m
        for v in members:
            for i, val in v.items():
                sums[i] += val
        total = sum(sums)
        theta = [(sums[i] + alpha) / (total + alpha * m) for i in range(m)]
        return len(members) / n, theta

    p_pos, t_pos = class_stats(pos)
    p_neg, t_neg = class_stats(neg)
    score = math.log(p_pos) - math.log(p_neg)
    for i, val in x.items():
        score += val * (math.log(t_pos[i]) - math.log(t_neg[i]))
    return score


def nb_log_likelihood_numpy(vectors, labels, classes, smoothing, vocab_size):
    """Each class's smoothed log-likelihoods, summed into a numpy array in post order."""
    out = {}
    for cls in classes:
        sums = np.zeros(vocab_size, dtype=np.float64)
        for vec, lab in zip(vectors, labels):
            if lab == cls:
                for idx, val in vec.items():
                    sums[idx] += val
        denom = sums.sum() + smoothing * vocab_size
        out[cls] = np.log((sums + smoothing) / denom)
    return out


@st.composite
def nb_problems(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    value = st.one_of(
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False),
    )
    vector = st.dictionaries(st.integers(0, m - 1), value, max_size=m)
    vectors = draw(st.lists(vector, min_size=2, max_size=12))
    labels = draw(
        st.lists(st.sampled_from(["a", "b"]), min_size=len(vectors), max_size=len(vectors)).filter(
            lambda ys: set(ys) == {"a", "b"}
        )
    )
    return {
        "vectors": vectors,
        "labels": labels,
        "smoothing": draw(st.floats(min_value=0.01, max_value=10)),
        "vocab_size": m + draw(st.integers(min_value=0, max_value=2)),
    }


class TestNaiveBayes:
    def test_uniform_priors(self):
        model = train_nb([{0: 1}, {1: 1}], ["a", "b"], vocab_size=2)
        assert model.class_log_prior["a"] == pytest.approx(math.log(0.5))
        assert model.class_log_prior["b"] == pytest.approx(math.log(0.5))

    def test_smoothed_likelihood_hand_value(self):
        # class A holds one doc {0: 2} over m=2 features with alpha=1:
        # loglik(A,0) = ln((2+1)/(2+2)) = ln(3/4),  loglik(A,1) = ln(1/4)
        model = train_nb(
            [{0: 2}, {1: 1}], ["A", "B"], smoothing=1.0, vocab_size=2, classes=("A", "B")
        )
        assert model.feature_log_likelihood["A"][0] == pytest.approx(math.log(3 / 4), abs=1e-12)
        assert model.feature_log_likelihood["A"][1] == pytest.approx(math.log(1 / 4), abs=1e-12)

    def test_huge_smoothing_flattens_likelihoods(self):
        model = train_nb(
            [{0: 5}, {1: 3}], ["a", "b"], smoothing=1e12, vocab_size=4
        )
        for cls in ("a", "b"):
            assert np.allclose(model.feature_log_likelihood[cls], math.log(1 / 4), atol=1e-9)

    def test_distribution_invariants(self):
        model = train_nb(
            [{0: 2, 1: 1}, {2: 4}, {0: 1}],
            ["a", "a", "b"],
            vocab_size=3,
        )
        priors = [math.exp(v) for v in model.class_log_prior.values()]
        assert sum(priors) == pytest.approx(1.0, abs=1e-9)
        for cls in model.classes:
            assert np.exp(model.feature_log_likelihood[cls]).sum() == pytest.approx(1.0, abs=1e-9)

    def test_empty_vector_decided_by_priors(self):
        model = train_nb(
            [{0: 1}] * 3 + [{1: 1}], ["a"] * 3 + ["b"], vocab_size=2, classes=("a", "b")
        )
        pred = predict_nb(model, {})
        assert pred.label == "a"
        assert pred.score == pytest.approx(math.log(3))

    def test_mirrored_input_negates_score(self):
        model = train_nb(
            [{0: 3}, {1: 3}], ["a", "b"], vocab_size=2, classes=("a", "b")
        )
        s = predict_nb(model, {0: 2}).score
        s_mirror = predict_nb(model, {1: 2}).score
        assert s_mirror == pytest.approx(-s, abs=1e-12)

    def test_tie_break_on_zero_score(self):
        model = train_nb(
            [{0: 3}, {1: 3}], ["b", "a"], vocab_size=2, classes=("b", "a")
        )
        pred = predict_nb(model, {})
        assert pred.score == 0.0
        assert pred.label == "a"  # equal priors: lexicographically smaller tag

    def test_matches_bayes_rule_oracle(self):
        rng = np.random.default_rng(12)
        train_vecs = [{0: 2, 1: 1}, {2: 3}, {1: 1, 3: 2}, {0: 1, 4: 1}]
        labels = ["pos", "pos", "neg", "neg"]
        model = train_nb(train_vecs, labels, vocab_size=5, classes=("pos", "neg"))
        for _ in range(25):
            x = {int(i): float(c) for i, c in enumerate(rng.integers(0, 4, size=5)) if c}
            want = brute_force_nb_score(train_vecs, labels, ("pos", "neg"), 1.0, 5, x)
            got = predict_nb(model, x)
            assert got.score == pytest.approx(want, abs=1e-9)
            assert got.label == ("pos" if want > 0 else "neg" if want < 0 else got.label)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            train_nb([{0: -1}, {1: 1}], ["a", "b"], vocab_size=2)
        model = train_nb([{0: 1}, {1: 1}], ["a", "b"], vocab_size=2)
        with pytest.raises(ValueError, match="negative"):
            predict_nb(model, {0: -0.5})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_value_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite feature value"):
            train_nb([{0: bad}, {1: 1.0}], ["a", "b"], vocab_size=2)

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="'b'"):
            train_nb([{0: 1}], ["a"], vocab_size=1, classes=("a", "b"))

    def test_label_outside_the_classes_rejected(self):
        with pytest.raises(ValueError, match="'c'"):
            train_nb([{0: 1.0}, {1: 1.0}, {0: 5.0}], ["a", "b", "c"], vocab_size=2, classes=("a", "b"))

    @settings(max_examples=300, deadline=None)
    @given(nb_problems())
    def test_log_likelihoods_equal_the_numpy_accumulator(self, problem):
        model = train_nb(**problem)
        want = nb_log_likelihood_numpy(classes=model.classes, **problem)
        for cls in model.classes:
            assert np.array_equal(model.feature_log_likelihood[cls], want[cls])

    def test_fractional_values_accepted(self):
        model = train_nb(
            [{0: 0.25, 1: 0.75}, {1: 1.0}], ["a", "b"], vocab_size=2
        )
        assert math.isfinite(predict_nb(model, {0: 0.6}).score)


class TestSVMTraining:
    def test_one_dimensional_geometry(self):
        vectors = [{0: 1.0}, {0: -1.0}]
        labels = [1, -1]
        model = train_svm(vectors, labels, lambda_=0.01, epochs=50, seed=0)
        assert model.weights[0] > 0
        assert predict_svm(model, vectors[0]).label == 1
        assert predict_svm(model, vectors[1]).label == -1

    def test_duplication_leaves_decision_function_roughly_unchanged(self):
        vectors, labels, _ = make_separable_2d()
        a = train_svm(vectors, labels, lambda_=0.1, epochs=64, seed=3)
        b = train_svm(vectors + vectors, labels + labels, lambda_=0.1, epochs=64, seed=3)
        for v in vectors:
            assert predict_svm(a, v).score == pytest.approx(predict_svm(b, v).score, abs=0.3)
        assert all(
            predict_svm(a, v).label == predict_svm(b, v).label for v in vectors
        )

    def test_separable_set_perfect_training_accuracy(self):
        vectors, labels, w_true = make_separable_2d()
        # exhaustive separability check against the generating hyperplane first
        for v, y in zip(vectors, labels):
            assert y * (w_true[0] * v[0] + w_true[1] * v[1]) >= 0.5
        model = train_svm(vectors, labels, lambda_=0.1, epochs=64, seed=3)
        assert all(predict_svm(model, v).label == y for v, y in zip(vectors, labels))

    def test_objective_below_zero_vector_baseline(self):
        vectors, labels, _ = make_separable_2d()
        model = train_svm(vectors, labels, lambda_=0.1, epochs=64, seed=3)
        zero = svm_objective(np.zeros(2), 0.0, vectors, labels, 0.1)
        assert zero == pytest.approx(1.0)
        assert svm_objective(model.weights, model.bias, vectors, labels, 0.1) <= zero

    def test_objective_nonincreasing_across_epoch_checkpoints(self):
        vectors, labels, _ = make_separable_2d()
        objectives = []
        for epochs in (1, 2, 4, 8, 16, 32):
            m = train_svm(vectors, labels, lambda_=0.1, epochs=epochs, seed=3)
            objectives.append(svm_objective(m.weights, m.bias, vectors, labels, 0.1))
        for earlier, later in zip(objectives, objectives[1:]):
            assert later <= earlier + 1e-3

    def test_subgradient_matches_finite_differences(self):
        vectors, labels, _ = make_separable_2d()
        model = train_svm(vectors, labels, lambda_=0.1, epochs=64, seed=3)
        w, b, lam = model.weights, model.bias, 0.1
        grad_w, grad_b = svm_objective_gradient(w, b, vectors, labels, lam)
        h = 1e-6
        margins = np.array(
            [y * (sum(w[i] * val for i, val in v.items()) + b) for v, y in zip(vectors, labels)]
        )
        rng = np.random.default_rng(0)
        checked = 0
        for coord in rng.integers(0, 3, size=20):
            if np.min(np.abs(1 - margins)) < 50 * h:
                continue  # too close to a hinge kink for a clean central difference
            if coord < 2:
                wp, wm = w.copy(), w.copy()
                wp[coord] += h
                wm[coord] -= h
                fd = (
                    svm_objective(wp, b, vectors, labels, lam)
                    - svm_objective(wm, b, vectors, labels, lam)
                ) / (2 * h)
                analytic = grad_w[coord]
            else:
                fd = (
                    svm_objective(w, b + h, vectors, labels, lam)
                    - svm_objective(w, b - h, vectors, labels, lam)
                ) / (2 * h)
                analytic = grad_b
            checked += 1
            assert abs(fd - analytic) <= 1e-4
        assert checked >= 10

    def test_bit_identical_for_same_seed(self):
        vectors, labels, _ = make_separable_2d()
        a = train_svm(vectors, labels, lambda_=0.05, epochs=7, seed=99)
        b = train_svm(vectors, labels, lambda_=0.05, epochs=7, seed=99)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias
        c = train_svm(vectors, labels, lambda_=0.05, epochs=7, seed=100)
        assert not np.array_equal(a.weights, c.weights)

    def test_label_validation(self):
        with pytest.raises(ValueError, match="labels"):
            train_svm([{0: 1}, {0: 2}], [1, 0], lambda_=0.1, epochs=1, seed=0)

    @pytest.mark.parametrize("labels", [[1.5, -1], ["1", -1], [1, -1.5], [1, 1]])
    def test_labels_must_be_plus_or_minus_one_and_both_occur(self, labels):
        with pytest.raises(ValueError, match="labels"):
            train_svm([{0: 1.0}, {0: 2.0}], labels, lambda_=0.1, epochs=1, seed=0)

    def test_float_and_int_labels_give_the_same_model(self):
        vectors, labels, _ = make_separable_2d(n=12)
        a = train_svm(vectors, labels, lambda_=0.1, epochs=3, seed=5)
        b = train_svm(vectors, [float(y) for y in labels], lambda_=0.1, epochs=3, seed=5)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert (a.bias, a.n_pos, a.n_neg) == (b.bias, b.n_pos, b.n_neg)

    def test_nonfinite_feature_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            train_svm(
                [{0: float("nan")}, {0: 1}], [1, -1], lambda_=0.1, epochs=1, seed=0
            )

    def test_feature_index_out_of_range_rejected(self):
        for bad in (3, -1):
            with pytest.raises(ValueError, match="out of range"):
                train_svm(
                    [{bad: 1.0}, {0: 1.0}], [1, -1], lambda_=0.1, epochs=1, seed=0, vocab_size=3
                )


class TestSVMPrediction:
    def test_zero_model_ties_deterministically(self):
        vectors, labels, _ = make_separable_2d(n=10)
        model = train_svm(vectors, labels, lambda_=0.1, epochs=1, seed=0)
        zeroed = type(model)(
            weights=np.zeros(2), bias=0.0,
            n_pos=model.n_pos, n_neg=model.n_neg,
        )
        pred = predict_svm(zeroed, {0: 3.0})
        assert pred.score == 0.0
        assert pred.label in (1, -1)
        assert pred.label == predict_svm(zeroed, {1: -2.0}).label

    def test_empty_vector_scores_bias(self):
        vectors, labels, _ = make_separable_2d(n=10)
        model = train_svm(vectors, labels, lambda_=0.1, epochs=4, seed=0)
        assert predict_svm(model, {}).score == model.bias

    def test_linearity_under_input_scaling(self):
        vectors, labels, _ = make_separable_2d(n=20)
        model = train_svm(vectors, labels, lambda_=0.1, epochs=8, seed=1)
        unbiased = type(model)(
            weights=model.weights, bias=0.0,
            n_pos=model.n_pos, n_neg=model.n_neg,
        )
        x = {0: 0.7, 1: -1.1}
        scaled = {0: 2.1, 1: -3.3}
        s1 = predict_svm(unbiased, x).score
        s3 = predict_svm(unbiased, scaled).score
        assert s3 == pytest.approx(3 * s1, rel=1e-9)
        if s1 != 0:
            assert predict_svm(unbiased, x).label == predict_svm(unbiased, scaled).label


# --- lazy trainer vs the dense oracle -----------------------------------------

def assert_matches_dense(got, want):
    """Weights within 1e-9 of the oracle's largest weight, bias and counts exact.

    The bound gets the smallest normal float on top, so a subnormal weight that
    one side keeps and the other flushes to zero (while every oracle weight is
    0 and the relative bound with it) does not count as a mismatch.
    """
    scale = np.abs(want.weights).max(initial=0.0)
    bound = 1e-9 * scale + np.finfo(float).tiny
    assert np.abs(got.weights - want.weights).max(initial=0.0) <= bound
    assert got.bias == want.bias
    assert (got.n_pos, got.n_neg) == (want.n_pos, want.n_neg)


@st.composite
def svm_problems(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    value = st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False)
    vector = st.one_of(st.just({}), st.dictionaries(st.integers(0, m - 1), value, max_size=m))
    values = draw(st.lists(vector, min_size=2, max_size=10))
    labels = draw(
        st.lists(st.sampled_from([1, -1]), min_size=len(values), max_size=len(values)).filter(
            lambda ys: set(ys) == {1, -1}
        )
    )
    return {
        "vectors": values,
        "labels": labels,
        "lambda_": draw(st.floats(min_value=0.01, max_value=10)),
        "epochs": draw(st.integers(min_value=1, max_value=3)),
        "seed": draw(st.integers(min_value=0, max_value=2**32 - 1)),
        "vocab_size": m + draw(st.integers(min_value=0, max_value=2)),
    }


class TestSVMMatchesDenseOracle:
    @settings(max_examples=300, deadline=None)
    @given(svm_problems())
    # a subnormal weight: the lazy trainer returns 5e-324, the dense loop 0.0
    @example(
        {
            "vectors": [{0: 5e-324}, {}],
            "labels": [1, -1],
            "lambda_": 1.0,
            "epochs": 1,
            "seed": 0,
            "vocab_size": 1,
        }
    )
    def test_same_trajectory_as_dense_loop(self, problem):
        margins = []
        want = train_svm_dense(**problem, margins=margins)
        # rounding can flip a margin violation only at an exact tie
        assume(all(abs(margin - 1.0) >= 1e-9 for margin in margins))
        assert_matches_dense(train_svm(**problem), want)

    @settings(max_examples=300, deadline=None)
    @given(svm_problems())
    def test_same_bits_as_the_int_typed_loop(self, problem):
        got, want = train_svm(**problem), train_svm_lazy_int(**problem)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.bias == want.bias
        assert (got.n_pos, got.n_neg) == (want.n_pos, want.n_neg)

    def test_first_step_scores_the_bias_alone(self):
        # step 1 sees w = b = 0, so it always violates; with disjoint supports the
        # second step's margin is b_1 = y1/lambda, and y2*b_1 = -2 violates too
        vectors = [{0: 2.0}, {1: 3.0}]
        labels = [1, -1]
        got = train_svm(vectors, labels, lambda_=0.5, epochs=1, seed=0)
        assert_matches_dense(got, train_svm_dense(vectors, labels, lambda_=0.5, epochs=1, seed=0))
        first, second = np.random.default_rng(0).permutation(2).tolist()
        y1, y2 = labels[first], labels[second]
        # w_1 = y1*x1/lambda, w_2 = w_1/2 + y2*x2/(2*lambda); b_1 = y1/lambda, b_2 = b_1 + y2/(2*lambda)
        want = np.zeros(2)
        want[first] = 1.5 * y1 * vectors[first][first]
        want[second] = 0.5 * y2 * vectors[second][second]
        assert got.weights == pytest.approx(want, rel=1e-12)
        assert got.bias == pytest.approx((4 * y1 + y2) / 2, rel=1e-12)

    def test_empty_vectors_move_only_the_bias(self):
        vectors = [{}, {}, {0: 1.0}]
        labels = [1, -1, -1]
        got = train_svm(vectors, labels, lambda_=0.1, epochs=3, seed=4, vocab_size=3)
        want = train_svm_dense(vectors, labels, lambda_=0.1, epochs=3, seed=4, vocab_size=3)
        assert_matches_dense(got, want)
        assert got.weights[1] == got.weights[2] == 0.0

    def test_separable_set_matches_dense_loop(self):
        vectors, labels, _ = make_separable_2d()
        for epochs in (1, 7, 64):
            assert_matches_dense(
                train_svm(vectors, labels, lambda_=0.1, epochs=epochs, seed=3),
                train_svm_dense(vectors, labels, lambda_=0.1, epochs=epochs, seed=3),
            )


# --- two fits in one pass -----------------------------------------------------

@st.composite
def svm_pair_problems(draw):
    """An svm_problems problem and a second vector set over its posts, with the
    same indices in the same order or with a post's indices dropped or
    reordered; its values may be large enough to overflow its fit."""
    problem = draw(svm_problems())
    value = st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False)
    if draw(st.booleans()):
        value = value | st.floats(min_value=1e300, max_value=1e308) | st.floats(min_value=-1e308, max_value=-1e300)
    other_indices = draw(st.booleans())
    other = []
    for vec in problem["vectors"]:
        indices = list(vec)
        if other_indices:
            indices = draw(st.permutations(indices))[: draw(st.integers(0, len(indices)))]
        other.append({idx: draw(value) for idx in indices})
    return problem, other


def assert_same_bits(got, want):
    assert got.weights.tobytes() == want.weights.tobytes()
    assert np.float64(got.bias).tobytes() == np.float64(want.bias).tobytes()
    assert (got.n_pos, got.n_neg) == (want.n_pos, want.n_neg)


class TestSVMPair:
    @settings(max_examples=300, deadline=None)
    @given(svm_pair_problems())
    @example(
        (
            {
                "vectors": [{0: 1.0}, {0: -1.0, 1: 2.0}, {}],
                "labels": [1, -1, 1],
                "lambda_": 0.01,
                "epochs": 3,
                "seed": 1,
                "vocab_size": 3,
            },
            [{0: 1e308}, {0: -1e308, 1: 1e308}, {}],
        )
    )
    # vocab sizes inferred from each set: 1 for the first, 4 for the second
    @example(
        (
            {
                "vectors": [{0: 1.0}, {0: -1.0}],
                "labels": [1, -1],
                "lambda_": 0.1,
                "epochs": 2,
                "seed": 0,
                "vocab_size": None,
            },
            [{0: 1.0, 3: 2.0}, {0: -1.0}],
        )
    )
    def test_each_lane_equals_its_own_fit(self, case):
        problem, other = case
        vectors = problem["vectors"]
        kwargs = {key: value for key, value in problem.items() if key != "vectors"}
        with np.errstate(all="ignore"):  # a lane may overflow
            got_a, got_b = train_svm_pair(vectors, other, **kwargs)
            assert_same_bits(got_a, train_svm(vectors, **kwargs))
            assert_same_bits(got_b, train_svm(other, **kwargs))

    def test_an_overflowing_lane_leaves_the_other_alone(self):
        vectors = [{0: 1.0}, {0: -1.0}]
        huge = [{0: 1e308}, {0: -1e308}]
        kwargs = dict(labels=[1, -1], lambda_=0.01, epochs=2, seed=0)
        with np.errstate(all="ignore"):
            got, overflowed = train_svm_pair(vectors, huge, **kwargs)
        assert not np.isfinite(overflowed.weights).all()
        assert_same_bits(got, train_svm(vectors, **kwargs))

    @pytest.mark.parametrize(
        "other",
        [[{1: 1.0, 0: 2.0}, {}], [{0: 1.0}, {}], [{0: 1.0, 1: 1.0}, {2: 1.0}], [{0: 1.0, 1: 1.0}]],
    )
    def test_vectors_with_other_indices_rejected(self, other):
        # the one-pass loop turns such sets away to two train_svm fits; a set
        # of another length is rejected by train_svm's input checks
        vectors = [{0: 1.0, 1: 1.0}, {}]
        kwargs = dict(labels=[1, -1], lambda_=0.1, epochs=1, seed=0, vocab_size=3)
        if len(other) != len(vectors):
            with pytest.raises(ValueError, match="equal length"):
                train_svm_pair(vectors, other, **kwargs)
            return
        got_a, got_b = train_svm_pair(vectors, other, **kwargs)
        assert_same_bits(got_a, train_svm(vectors, **kwargs))
        assert_same_bits(got_b, train_svm(other, **kwargs))

    def test_each_lane_gets_the_input_checks(self):
        with pytest.raises(ValueError, match="non-finite"):
            train_svm_pair([{0: 1.0}, {}], [{0: math.inf}, {}], [1, -1], lambda_=0.1, epochs=1, seed=0)
