import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rentlab.errors import RankDeficiencyError
from rentlab.features import FeatureMatrix, standardize
from rentlab.models import (
    LinearModel,
    elastic_net_objective,
    fit_elastic_net,
    fit_ols,
    predict,
    soft_threshold,
)


def _fm(x, y, names=None):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    names = names or tuple(f"x{i}" for i in range(x.shape[1]))
    return FeatureMatrix(x, tuple(names), np.asarray(y, dtype=np.float64))


class TestSoftThreshold:
    def test_positive_shrink(self):
        assert soft_threshold(0.5, 0.2) == pytest.approx(0.3, abs=1e-15)

    def test_negative_shrink(self):
        assert soft_threshold(-0.5, 0.2) == pytest.approx(-0.3, abs=1e-15)

    def test_dead_zone(self):
        assert soft_threshold(0.15, 0.2) == 0.0
        assert soft_threshold(-0.2, 0.2) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    )
    def test_matches_definition(self, z, t):
        expected = np.sign(z) * max(abs(z) - t, 0.0)
        assert soft_threshold(z, t) == pytest.approx(expected, abs=1e-12)


class TestFitOls:
    def test_two_points_line(self):
        model = fit_ols(_fm([0.0, 1.0], [1.0, 3.0]))
        assert model.intercept == pytest.approx(1.0, abs=1e-10)
        assert model.coefficients[0] == pytest.approx(2.0, abs=1e-10)

    def test_constant_target(self):
        model = fit_ols(_fm([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]))
        assert model.intercept == pytest.approx(5.0, abs=1e-10)
        assert model.coefficients[0] == pytest.approx(0.0, abs=1e-10)

    def test_duplicated_columns_rank_deficient(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(RankDeficiencyError):
            fit_ols(_fm(x, [1.0, 2.0, 3.0]))

    def test_ridge_stabilizes_singular_design(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        model = fit_ols(_fm(x, [1.0, 2.0, 3.0]), ridge=1e-8)
        assert np.isfinite(model.coefficients).all()

    def test_exact_on_random_full_rank(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 4))
        beta = np.array([1.5, -2.0, 0.0, 3.25])
        y = 0.7 + x @ beta
        model = fit_ols(_fm(x, y))
        assert model.intercept == pytest.approx(0.7, abs=1e-9)
        assert np.allclose(model.coefficients, beta, atol=1e-9)


class TestElasticNet:
    def test_alpha_zero_matches_ols(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 2))
        y = rng.normal(size=5)
        m = _fm(x, y)
        ols = fit_ols(m)
        net = fit_elastic_net(m, alpha=0.0, l1_ratio=0.5, tol=1e-12, max_iter=100_000)
        assert net.intercept == pytest.approx(ols.intercept, abs=1e-6)
        assert np.allclose(net.coefficients, ols.coefficients, atol=1e-6)

    def test_single_feature_soft_threshold_closed_form(self):
        # standardized single feature with (1/n) sum x_i y_i = 0.5:
        # lasso solution is S(0.5, alpha) exactly
        x = np.array([1.0, -1.0, 1.0, -1.0])
        y = np.array([0.5, -0.5, 0.5, -0.5])
        assert float(x @ y) / 4 == 0.5
        model = fit_elastic_net(_fm(x, y), alpha=0.2, l1_ratio=1.0, tol=1e-12)
        assert model.coefficients[0] == pytest.approx(0.3, abs=1e-9)

    def test_huge_alpha_zeroes_everything(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        model = fit_elastic_net(_fm(x, y), alpha=1e6, l1_ratio=1.0)
        assert np.all(model.coefficients == 0.0)
        assert model.intercept == pytest.approx(float(y.mean()), abs=1e-12)

    def test_ridge_matches_closed_form(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(30, 5))
        y = rng.normal(size=30)
        m = standardize(_fm(x, np.asarray(y)))
        alpha = 0.37
        model = fit_elastic_net(m, alpha=alpha, l1_ratio=0.0, tol=1e-12, max_iter=50_000)
        n = m.n_rows
        xc = m.x - m.x.mean(axis=0)
        yc = m.y - m.y.mean()
        closed = np.linalg.solve(xc.T @ xc + n * alpha * np.eye(5), xc.T @ yc)
        assert np.allclose(model.coefficients, closed, atol=1e-6)

    def test_objective_at_solution_beats_perturbations(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(30, 5))
        y = rng.normal(size=30)
        m = standardize(_fm(x, np.asarray(y)))
        alpha, l1_ratio = 0.1, 0.6
        model = fit_elastic_net(m, alpha=alpha, l1_ratio=l1_ratio, tol=1e-12, max_iter=50_000)
        best = elastic_net_objective(m, model.intercept, model.coefficients, alpha, l1_ratio)
        for _ in range(200):
            delta = rng.normal(size=5)
            delta *= 1e-2 / np.linalg.norm(delta)
            perturbed = elastic_net_objective(
                m, model.intercept, model.coefficients + delta, alpha, l1_ratio
            )
            assert best <= perturbed + 1e-12

    def test_coordinatewise_golden_section_optimality(self):
        # brute-force 1-D line search along each coordinate cannot improve
        rng = np.random.default_rng(29)
        x = rng.normal(size=(25, 4))
        y = rng.normal(size=25)
        m = standardize(_fm(x, np.asarray(y)))
        alpha, l1_ratio = 0.15, 0.5
        model = fit_elastic_net(m, alpha=alpha, l1_ratio=l1_ratio, tol=1e-13, max_iter=100_000)
        best = elastic_net_objective(m, model.intercept, model.coefficients, alpha, l1_ratio)
        phi = (math_sqrt5 := 5 ** 0.5 - 1) / 2
        for j in range(4):
            lo, hi = model.coefficients[j] - 0.5, model.coefficients[j] + 0.5

            def obj(t, j=j):
                beta = model.coefficients.copy()
                beta[j] = t
                return elastic_net_objective(m, model.intercept, beta, alpha, l1_ratio)

            a, b = lo, hi
            c = b - phi * (b - a)
            d = a + phi * (b - a)
            for _ in range(200):
                if obj(c) < obj(d):
                    b = d
                else:
                    a = c
                c = b - phi * (b - a)
                d = a + phi * (b - a)
            line_min = obj((a + b) / 2)
            assert best <= line_min + 1e-8

    def test_convergence_flag_when_iterations_exhausted(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(50, 8))
        y = rng.normal(size=50)
        model = fit_elastic_net(_fm(x, y), alpha=1e-6, l1_ratio=0.5, tol=1e-14, max_iter=2)
        assert not model.converged
        assert model.n_iter == 2

    def test_invalid_arguments(self):
        m = _fm([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_elastic_net(m, alpha=-1.0)
        with pytest.raises(ValueError):
            fit_elastic_net(m, alpha=1.0, l1_ratio=2.0)
        # non-finite inputs are rejected at matrix construction already
        with pytest.raises(ValueError):
            _fm([1.0, np.nan], [1.0, 2.0])


def _residual_cd(m, alpha, l1_ratio, tol=1e-6, max_iter=1000):
    """Reference coordinate descent: keeps the residual vector and spends two
    O(n) column passes per coordinate. Returns (intercept, beta, converged,
    n_iter)."""
    x, y = m.x, m.y
    n, p = x.shape
    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    xc = x - x_mean
    col_sq = (xc * xc).sum(axis=0) / n
    l1 = alpha * l1_ratio
    l2 = alpha * (1.0 - l1_ratio)
    beta = np.zeros(p)
    residual = y - y_mean
    n_iter = 0
    converged = False
    for n_iter in range(1, max_iter + 1):
        max_delta = 0.0
        for j in range(p):
            if col_sq[j] == 0.0:
                continue
            old = beta[j]
            rho = (xc[:, j] @ residual) / n + col_sq[j] * old
            new = soft_threshold(rho, l1) / (col_sq[j] + l2)
            if new != old:
                residual += xc[:, j] * (old - new)
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta < tol:
            converged = True
            break
    return y_mean - float(x_mean @ beta), beta, converged, n_iter


def _oracle_matrix(seed=41, n=300):
    # seven columns: five independent, one constant (index 2), and a nearly
    # collinear pair (5, 6) that puts cond(xc) near 1e6
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 7)) * [1.0, 3.0, 0.0, 0.5, 2.0, 1.0, 1.0]
    x[:, 2] = 4.0
    x[:, 6] = x[:, 5] + 3e-6 * rng.normal(size=n)
    y = x @ [1.5, -0.7, 0.0, 2.0, 0.0, 0.8, 0.4] + 10.0 + rng.normal(size=n)
    return _fm(x, y)


class TestCovarianceUpdateOracle:
    """fit_elastic_net uses covariance (Gram) updates; the residual-update
    loop above computes the same iterates in a different rounding order."""

    def test_fixture_is_ill_conditioned(self):
        m = _oracle_matrix()
        xc = m.x - m.x.mean(axis=0)
        cond = np.linalg.cond(np.delete(xc, 2, axis=1))
        assert 3e5 < cond < 3e6

    @pytest.mark.parametrize("max_iter", [2, 1000])
    @pytest.mark.parametrize("alpha", [0.0, 0.05])
    @pytest.mark.parametrize("l1_ratio", [0.0, 0.5, 1.0])
    def test_matches_residual_updates(self, l1_ratio, alpha, max_iter):
        m = _oracle_matrix()
        model = fit_elastic_net(m, alpha=alpha, l1_ratio=l1_ratio, max_iter=max_iter)
        intercept, beta, converged, n_iter = _residual_cd(m, alpha, l1_ratio, max_iter=max_iter)
        assert model.converged == converged
        assert model.n_iter == n_iter
        assert model.coefficients[2] == 0.0  # the constant column is skipped
        np.testing.assert_allclose(model.coefficients, beta, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(model.intercept, intercept, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.05])
    @pytest.mark.parametrize("l1_ratio", [0.0, 0.5, 1.0])
    def test_matches_over_full_sweep_budget(self, l1_ratio, alpha):
        # tol = 0 never stops early: 1000 sweeps of accumulated rounding
        m = _oracle_matrix()
        model = fit_elastic_net(m, alpha=alpha, l1_ratio=l1_ratio, tol=0.0)
        intercept, beta, converged, n_iter = _residual_cd(m, alpha, l1_ratio, tol=0.0)
        assert (model.converged, model.n_iter) == (converged, n_iter) == (False, 1000)
        np.testing.assert_allclose(model.coefficients, beta, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(model.intercept, intercept, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_converged_fits_match(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(120, 5))
        y = x @ rng.normal(size=5) + rng.normal(size=120)
        m = _fm(x, y)
        model = fit_elastic_net(m, alpha=0.1, l1_ratio=0.5)
        intercept, beta, converged, n_iter = _residual_cd(m, 0.1, 0.5)
        assert converged and model.converged
        assert model.n_iter == n_iter
        np.testing.assert_allclose(model.coefficients, beta, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(model.intercept, intercept, rtol=1e-9, atol=1e-12)


class TestPredict:
    def test_linear_arithmetic(self):
        model = LinearModel(1.0, np.array([2.0]))
        assert predict(model, np.array([[3.0]]))[0] == 7.0

    def test_dimension_mismatch(self):
        model = LinearModel(1.0, np.array([2.0, 3.0]))
        with pytest.raises(ValueError):
            predict(model, np.array([[1.0]]))

    def test_matrix_input(self):
        model = LinearModel(0.0, np.array([1.0, -1.0]))
        out = predict(model, np.array([[2.0, 1.0], [0.0, 5.0]]))
        assert np.allclose(out, [1.0, -5.0])
