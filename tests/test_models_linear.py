import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rentlab.models.linear
from rentlab.errors import EmptyInputError, RankDeficiencyError
from rentlab.features import FeatureMatrix, standardize
from rentlab.models import (
    LinearModel,
    elastic_net_objective,
    fit_elastic_net,
    fit_ols,
    predict,
    soft_threshold,
)
from rentlab.models.linear import _BLOCK_CELLS, _cholesky_solve, _cholesky_solves, _NormalEquations


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

    def test_exact_on_random_full_rank(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 4))
        beta = np.array([1.5, -2.0, 0.0, 3.25])
        y = 0.7 + x @ beta
        model = fit_ols(_fm(x, y))
        assert model.intercept == pytest.approx(0.7, abs=1e-9)
        assert np.allclose(model.coefficients, beta, atol=1e-9)


class TestOlsAccuracy:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_lstsq_on_large_means_and_small_spread(self, seed):
        # coordinates like latitude 30 +- 0.05 put cond([1, X]) near 2e5;
        # normal equations of that design square it and miss lstsq by 3e-8
        # to 6e-7, while the centred ones leave the intercept column out
        rng = np.random.default_rng(seed)
        n = 300
        x = np.column_stack([30.0 + 0.05 * rng.normal(size=n), -97.7 + 0.05 * rng.normal(size=n),
                             rng.normal(size=n)])
        y = 100.0 + 400.0 * x[:, 0] - 300.0 * x[:, 1] + 5.0 * x[:, 2] + rng.normal(size=n)
        model = fit_ols(_fm(x, y, ("latitude", "longitude", "z")))
        best = np.linalg.lstsq(np.column_stack([np.ones(n), x]), y, rcond=None)[0]
        got = np.append(model.intercept, model.coefficients)
        assert np.abs(got - best).max() <= 1e-10 * np.abs(best).max()

    def test_constant_column_rank_deficient(self):
        x = np.column_stack([[1.0, 2.0, 4.0], [0.1, 0.1, 0.1]])
        with pytest.raises(RankDeficiencyError):
            fit_ols(_fm(x, [1.0, 2.0, 3.0]))


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
        with pytest.warns(RuntimeWarning, match=r"penalty elastic, alpha 1e-06, l1_ratio 0\.5\) "
                                                r"missed .* after 2 step"):
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


def _kkt_violation(m, model, alpha, l1_ratio):
    """Largest KKT violation of a fit, computed from the rows rather than the
    Gram matrix, relative to max(1, max|c|) with c = Xc'yc/n: the gradient
    of the smooth part must equal -l1*sign(b_j) where b_j != 0 and lie in
    [-l1, l1] where b_j == 0."""
    n = m.n_rows
    xc = m.x - m.x.mean(axis=0)
    yc = m.y - m.y.mean()
    b = model.coefficients
    l1, l2 = alpha * l1_ratio, alpha * (1.0 - l1_ratio)
    grad = xc.T @ (xc @ b - yc) / n + l2 * b
    worst = np.where(b != 0.0, np.abs(grad + l1 * np.sign(b)), np.abs(grad) - l1).max()
    return max(float(worst), 0.0) / max(1.0, float(np.abs(xc.T @ yc).max()) / n)


@st.composite
def _penalized_problems(draw):
    """A matrix with constant columns, exact duplicates and, from
    _oracle_matrix, a nearly collinear pair; rows may number fewer than
    columns. Returns (matrix, alpha, l1_ratio, constant column indices)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        base = _oracle_matrix(seed=int(rng.integers(1000)))
        x, y = base.x, base.y
    else:
        n, p = draw(st.integers(2, 40)), draw(st.integers(1, 6))
        x = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
        y = x @ rng.normal(size=p) + rng.normal(size=n) + 5.0
    columns = [x]
    for _ in range(draw(st.integers(0, 2))):
        columns.append(x[:, [int(rng.integers(x.shape[1]))]])  # exact duplicate
    for value in draw(st.lists(st.sampled_from([0.0, 0.1, 4.0, -7.3]), max_size=2)):
        columns.append(np.full((len(y), 1), value))
    x = np.hstack(columns)[:, rng.permutation(sum(c.shape[1] for c in columns))]
    alpha = draw(st.one_of(st.just(0.0), st.floats(-6.0, 3.0).map(lambda e: 10.0 ** e)))
    l1_ratio = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return _fm(x, y), alpha, l1_ratio, np.flatnonzero(np.ptp(x, axis=0) == 0.0)


class TestExactSolver:
    """fit_elastic_net solves the penalized problem exactly: every returned
    fit meets the KKT conditions, and no coordinate-descent run reaches a
    lower objective."""

    def test_fixture_is_ill_conditioned(self):
        m = _oracle_matrix()
        xc = m.x - m.x.mean(axis=0)
        cond = np.linalg.cond(np.delete(xc, 2, axis=1))
        assert 3e5 < cond < 3e6

    @settings(max_examples=150, deadline=None)
    @given(_penalized_problems())
    def test_every_fit_meets_kkt(self, problem):
        m, alpha, l1_ratio, constant = problem
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = fit_elastic_net(m, alpha=alpha, l1_ratio=l1_ratio)
        assert model.converged
        assert np.all(model.coefficients[constant] == 0.0)
        assert _kkt_violation(m, model, alpha, l1_ratio) <= 1e-9

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.5, 5.0])
    @pytest.mark.parametrize("l1_ratio", [0.0, 0.5, 1.0])
    def test_objective_no_higher_than_converged_cd(self, l1_ratio, alpha):
        m = _oracle_matrix()
        model = fit_elastic_net(m, alpha=alpha, l1_ratio=l1_ratio)
        intercept, beta, converged, _ = _residual_cd(m, alpha, l1_ratio, tol=1e-13,
                                                     max_iter=20_000)
        # coordinate descent zigzags along the nearly collinear pair when the
        # lasso keeps one of it; every iterate still bounds the minimum
        assert converged or (l1_ratio == 1.0 and alpha in (0.05, 0.5))
        ours = elastic_net_objective(m, model.intercept, model.coefficients, alpha, l1_ratio)
        cd = elastic_net_objective(m, intercept, beta, alpha, l1_ratio)
        assert ours <= cd + 1e-12 * abs(cd)
        assert model.coefficients[2] == 0.0  # the constant column

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.floats(-3.0, 1.0),
           st.sampled_from([0.0, 0.5, 1.0]))
    def test_objective_no_higher_than_cd_on_random_problems(self, seed, p, log_alpha, l1_ratio):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(6 * p, p)) * rng.uniform(0.5, 2.0, size=p)
        y = x @ rng.normal(size=p) + rng.normal(size=6 * p)
        m, alpha = _fm(x, y), 10.0 ** log_alpha
        model = fit_elastic_net(m, alpha=alpha, l1_ratio=l1_ratio)
        intercept, beta, converged, _ = _residual_cd(m, alpha, l1_ratio, tol=1e-13,
                                                     max_iter=100_000)
        assert converged
        ours = elastic_net_objective(m, model.intercept, model.coefficients, alpha, l1_ratio)
        cd = elastic_net_objective(m, intercept, beta, alpha, l1_ratio)
        assert ours <= cd + 1e-12 * abs(cd)

    @pytest.mark.parametrize("l1_ratio", [0.5, 1.0])
    def test_column_that_is_a_sum_of_active_ones(self, l1_ratio):
        # x2 = x0 + x1 exactly: the lasso prefers x2 (a smaller L1 norm for the
        # same fit), so the search has to trade an active column for it
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 3))
        x[:, 2] = x[:, 0] + x[:, 1]
        y = x[:, 0] + x[:, 1] + 0.1 * rng.normal(size=50)
        m = _fm(x, y)
        model = fit_elastic_net(m, alpha=0.01, l1_ratio=l1_ratio)
        assert model.converged
        assert _kkt_violation(m, model, 0.01, l1_ratio) <= 1e-9
        if l1_ratio == 1.0:
            assert model.coefficients[2] > 0.9 and abs(model.coefficients[:2]).sum() < 0.1

    def test_alpha_zero_on_exact_duplicates_takes_least_squares(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 2))
        x = np.column_stack([x, x[:, 0]])
        y = 2.0 * x[:, 0] - x[:, 1] + 0.1 * rng.normal(size=30)
        m = _fm(x, y)
        model = fit_elastic_net(m, alpha=0.0, l1_ratio=0.5)
        assert model.converged and model.n_iter == 1
        lstsq = np.linalg.lstsq(np.column_stack([np.ones(30), x]), y, rcond=None)[0]
        np.testing.assert_allclose(model.coefficients, lstsq[1:], atol=1e-9)

    @pytest.mark.parametrize("seed", [61, 82, 282])
    def test_alpha_zero_on_a_singular_ill_conditioned_matrix(self, seed):
        # eight rows leave the nearly collinear pair at cond(Xc) of 1e6 to 1e8,
        # and an exact duplicate makes the Gram matrix singular. On these
        # seeds least squares on the Gram matrix, which squares that
        # condition number, misses the minimum by 5e-4 to 1.0 relative.
        base = _oracle_matrix(seed=seed, n=8)
        m = _fm(np.column_stack([base.x, base.x[:, 0]]), base.y)
        model = fit_elastic_net(m, alpha=0.0, l1_ratio=0.5)
        assert model.converged
        a = np.column_stack([np.ones(8), m.x])
        best = np.linalg.lstsq(a, m.y, rcond=None)[0]
        ours = elastic_net_objective(m, model.intercept, model.coefficients, 0.0, 0.5)
        floor = elastic_net_objective(m, best[0], best[1:], 0.0, 0.5)
        assert ours <= floor + 1e-9 * max(floor, 1.0)


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


def _tall(n, p, seed=0):
    """A matrix in features.csv's layout (x and y views of one block), with
    columns on different scales and off zero."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p)) * rng.uniform(0.5, 20.0, p) + rng.uniform(-50.0, 50.0, p)
    data = np.column_stack([x, x @ rng.normal(size=p) + rng.normal(size=n)])
    return FeatureMatrix(data[:, :-1], tuple(f"x{j}" for j in range(p)), data[:, -1])


def _one_shot(m, rows, cols):
    """The normal equations as built before row blocks: a copy of the rows,
    their column means and ranges, and the centred copy x[:, cols]."""
    x, y = m.x[rows], m.y[rows]
    x_mean = x.mean(axis=0)
    xc = x[:, cols]
    xc -= x_mean[cols]
    yc = y - y.mean()
    return x_mean, np.ptp(x, axis=0), xc.T @ xc / len(y), xc.T @ yc / len(y)


class TestBlockwiseNormalEquations:
    """_NormalEquations reads the rows of a fit in blocks of at most
    _BLOCK_CELLS cells: one block reproduces the one-shot form bit for bit,
    several agree with it to rounding."""

    @pytest.mark.parametrize("n, p", [(200, 7), (_BLOCK_CELLS // 40, 40)])
    def test_one_block_is_bit_identical(self, n, p):
        m = _tall(n, p)
        rows = np.random.default_rng(1).permutation(n)[: n * 4 // 5]
        cols = np.arange(1, p, 2)
        eq = _NormalEquations(m, rows)
        g, c = eq.gram(cols)
        x_mean, spread, g0, c0 = _one_shot(m, rows, cols)
        for got, want in ((eq.x_mean, x_mean), (eq.spread, spread), (g, g0), (c, c0)):
            assert np.array_equal(got, want)
        assert eq.y_mean == m.y[rows].mean() and eq.n == len(rows)

    @pytest.mark.parametrize("n, p, cells", [
        (3 * _BLOCK_CELLS // 60 + 17, 60, _BLOCK_CELLS),  # four blocks, the last short
        (50, 3, 7),  # two rows a block
        (50, 9, 7),  # a row is more than a block: one row a block
    ])
    def test_many_blocks_match_the_one_shot_form(self, monkeypatch, n, p, cells):
        monkeypatch.setattr(rentlab.models.linear, "_BLOCK_CELLS", cells)
        m = _tall(n, p, seed=n)
        rows = np.random.default_rng(2).permutation(n)[: n * 4 // 5]
        cols = np.arange(p)[::-1]
        eq = _NormalEquations(m, rows)
        assert len(rows) * p > cells
        g, c = eq.gram(cols)
        x_mean, spread, g0, c0 = _one_shot(m, rows, cols)
        assert np.array_equal(eq.spread, spread)
        for got, want in ((eq.x_mean, x_mean), (g, g0), (c, c0)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_all_rows_by_default_and_no_rows_rejected(self):
        m = _tall(30, 4)
        eq = _NormalEquations(m)
        assert np.array_equal(eq.gram(np.arange(4))[0], _one_shot(m, np.arange(30), np.arange(4))[2])
        with pytest.raises(EmptyInputError):
            _NormalEquations(m, np.array([], dtype=np.intp))

    def test_non_finite_cells_are_seen(self):
        m = _tall(30, 4)
        assert _NormalEquations(m).finite
        x = m.x.copy()
        x[17, 2] = np.nan
        object.__setattr__(m, "x", x)  # past the matrix's own check
        assert not _NormalEquations(m).finite
        assert _NormalEquations(m, np.arange(17)).finite


class TestFitOnRows:
    """A linear fit on (m, rows) reads the same rows, in the same order and
    the same blocks, as the fit on m.take(rows): the same model, bit for
    bit, whether the rows fit one block or several."""

    FITS = {
        "ols": lambda m, rows=None: fit_ols(m, rows),
        "lasso": lambda m, rows=None: fit_elastic_net(m, 0.05, 1.0, rows=rows),
        "ridge": lambda m, rows=None: fit_elastic_net(m, 0.05, 0.0, rows=rows),
        "elastic": lambda m, rows=None: fit_elastic_net(m, 0.05, 0.5, rows=rows),
    }

    @pytest.mark.parametrize("family", FITS)
    @pytest.mark.parametrize("n, p", [(400, 12), (3 * _BLOCK_CELLS // 30, 30)])
    def test_same_model_as_on_a_copy_of_the_rows(self, family, n, p):
        m = _tall(n, p, seed=5)
        rows = np.random.default_rng(3).permutation(n)[: n * 4 // 5]
        fit = self.FITS[family]
        got, want = fit(m, rows), fit(m.take(rows))
        assert got.intercept == want.intercept
        assert np.array_equal(got.coefficients, want.coefficients)
        assert (got.converged, got.n_iter) == (want.converged, want.n_iter)


class TestStackedCholeskySolves:
    def test_each_matrix_as_its_own_solve(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 5, 5))
        a = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(5)
        a[2, :, 4] = a[2, :, 3]
        a[2, 4, :] = a[2, 3, :]  # singular: its last pivot fails the test
        b = rng.normal(size=(6, 5))
        got = _cholesky_solves(a, b)
        assert got[2] is None
        for gi, ai, bi in zip(got, a, b):
            want = _cholesky_solve(ai, bi)
            assert (gi is None and want is None) or np.array_equal(gi, want)

    def test_a_matrix_that_is_not_positive_definite_falls_back(self):
        a = np.stack([np.eye(3), -np.eye(3), 2.0 * np.eye(3)])
        got = _cholesky_solves(a, np.ones((3, 3)))
        assert got[1] is None
        assert np.array_equal(got[0], np.ones(3)) and np.allclose(got[2], 0.5, rtol=1e-15)
