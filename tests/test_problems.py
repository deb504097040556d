import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfcg.fraccalc import FracParams, frac_gradient_quadratic
from cfcg.problems import (BENCHMARK_IDS, LINE_CHUNK,
                           Example1Config, MlpSpec, benchmark_fn,
                           gen_example1, mlp_init, mlp_lower_terminal,
                           mlp_objective, mlp_param_bounds, stacked_problem,
                           tikhonov_run_objective)
from cfcg.tikhonov import tikhonov_solution


def mlp_dataset(spec, data_seed):
    """Reconstruct the objective's dataset from its seed contract."""
    rng = np.random.default_rng(np.random.SeedSequence(data_seed))
    z = rng.uniform(-1.0, 1.0, spec.train_points)
    return z


def backprop_gradient(spec, z, tv, p):
    """Independent backpropagation gradient of the mean-squared error."""
    H = spec.hidden_units
    w, b1, v, b2 = p[:H], p[H:2 * H], p[2 * H:3 * H], p[3 * H]
    pre = np.outer(z, w) + b1
    hid = np.tanh(pre)
    pred = hid @ v + b2
    resid = 2.0 * (pred - tv) / z.size
    dv = hid.T @ resid
    db2 = np.sum(resid)
    dhid = np.outer(resid, v) * (1.0 - hid**2)
    dw = z @ dhid
    db1 = dhid.sum(axis=0)
    return np.concatenate([dw, db1, dv, [db2]])


class TestExample1Generator:
    def test_same_seed_is_bitwise_identical(self):
        a_prob, a_x0, a_c = gen_example1(Example1Config(seed=5, m=12, n=12))
        b_prob, b_x0, b_c = gen_example1(Example1Config(seed=5, m=12, n=12))
        assert np.array_equal(a_prob.X, b_prob.X)
        assert np.array_equal(a_prob.y, b_prob.y)
        assert np.array_equal(a_x0, b_x0)
        assert np.array_equal(a_c, b_c)

    def test_different_seed_differs(self):
        a_prob, _, _ = gen_example1(Example1Config(seed=5, m=12, n=12))
        b_prob, _, _ = gen_example1(Example1Config(seed=6, m=12, n=12))
        assert not np.array_equal(a_prob.X, b_prob.X)

    def test_matrix_is_symmetric_psd(self):
        prob, _, _ = gen_example1(Example1Config(seed=1, m=25, n=25))
        assert np.linalg.norm(prob.A - prob.A.T) == 0.0
        assert np.linalg.eigvalsh(prob.A)[0] >= -1e-10

    def test_default_dimensions_and_ranges(self):
        config = Example1Config()
        prob, x0, c = gen_example1(config)
        assert prob.X.shape == (100, 100)
        assert x0.shape == (100,)
        assert np.all((x0 > 1.0) & (x0 < 10.0))
        assert np.all(np.abs(prob.X) < 1.0)
        assert np.all(c == 1.0)
        assert config.gamma_grid == (0.5, 0.75, 1.0, 2.0, 3.0, 4.0)


class TestStackedProblem:
    def test_absorbs_regularizer(self):
        prob, _, c = gen_example1(Example1Config(seed=3, m=10, n=10))
        prob = dataclasses.replace(prob, gamma=2.0)
        stacked = stacked_problem(prob)
        assert np.allclose(stacked.A,
                           prob.A + 2.0 * np.diag(np.diag(prob.A)), atol=1e-12)
        # stacked plain solution == regularized closed-form solution
        assert stacked.gamma == 0.0
        assert np.allclose(tikhonov_solution(stacked), tikhonov_solution(prob),
                           atol=1e-9)

    def test_run_objective_vanishes_at_target(self):
        objective, target, abar = run_objective()
        # exactly: the gradient is abar (x - target), fresh or from fn
        x = target.copy()
        assert not np.any(objective.frac_gradient(x))
        x.flags.writeable = False
        assert objective.fn(x) == 0.0
        assert not np.any(objective.frac_gradient(x))
        rng = np.random.default_rng(0)
        x = rng.normal(size=8)
        assert np.allclose(objective.frac_gradient(x), abar @ (x - target),
                           atol=1e-9)


def run_objective(seed=4, n=8, gamma=1.0, alpha=0.9, rho=0.1, c=None):
    prob, _, ones = gen_example1(Example1Config(seed=seed, m=n, n=n))
    frac = FracParams(alpha, rho, ones if c is None else c)
    return tikhonov_run_objective(dataclasses.replace(prob, gamma=gamma), frac)


class TestRunObjective:
    @pytest.mark.parametrize("shape", [(9,), (1,), (8, 1), ()])
    def test_wrong_shape(self, shape):
        # x - target would broadcast each of these
        objective, _, _ = run_objective()
        for call in (objective.fn, objective.frac_gradient):
            with pytest.raises(ValueError, match="shape"):
                call(np.ones(shape))

    def test_terminals_of_the_wrong_length_fail_at_setup(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            run_objective(c=np.ones(1))

    @pytest.mark.parametrize("change", ["in-place", "through-base",
                                        "returned-gradient"])
    def test_gradient_after_a_change_is_fresh(self, change):
        # grad reuses fn's product only for the read-only array fn saw
        # (owning its data), and only once
        objective, target, abar = run_objective()
        base = target + np.arange(8.0)
        x = base
        if change == "through-base":
            x = base.view()
            x.flags.writeable = False
        elif change == "returned-gradient":
            base.flags.writeable = False
        objective.fn(x)
        if change == "returned-gradient":
            objective.frac_gradient(x)[:] = 0.0
        else:
            base[0] += 5.0
        assert np.array_equal(objective.frac_gradient(x), abar @ (x - target))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       gamma=st.sampled_from((0.5, 1.0, 4.0)), alpha=st.floats(0.05, 0.95),
       rho=st.floats(0.0, 1.0))
def test_run_gradient_is_the_closed_form(seed, n, gamma, alpha, rho):
    try:
        objective, target, abar = run_objective(seed, n, gamma, alpha, rho)
    except ArithmeticError:  # iteration matrix not positive definite
        assume(False)
    prob, _, c = gen_example1(Example1Config(seed=seed, m=n, n=n))
    stacked = stacked_problem(dataclasses.replace(prob, gamma=gamma))
    frac = FracParams(alpha, rho, c)
    b_eff = -(abar @ target) + frac.gamma * stacked.r_bar * c
    # drawn as example1 draws its start
    x = np.random.default_rng(seed).uniform(1.0, 10.0, n)
    want = frac_gradient_quadratic(stacked.A, b_eff, x, frac)
    got = objective.frac_gradient(x)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    # the product fn hands on is the one a fresh call makes
    x.flags.writeable = False
    assert objective.fn(x) == 0.5 * float((x - target) @ got)
    assert np.array_equal(objective.frac_gradient(x), got)


class TestBenchmarkFunctions:
    def test_h1_quarter_period(self):
        assert benchmark_fn("h1", 0.1) == pytest.approx(1.0, abs=1e-15)

    def test_h3_at_jump(self):
        assert benchmark_fn("h3", 0.0) == 0.0
        assert benchmark_fn("h3", 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_h2_origin(self):
        assert benchmark_fn("h2", 0.0) == 0.0

    def test_vectorized(self):
        z = np.linspace(-1, 1, 11)
        for fid in BENCHMARK_IDS:
            out = benchmark_fn(fid, z)
            assert out.shape == z.shape

    def test_h2_formula(self):
        z = 0.3
        assert benchmark_fn("h2", z) == pytest.approx(
            math.sin(2 * math.pi * z) * math.exp(-z * z), rel=1e-15)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            benchmark_fn("h4", 0.0)


class TestMlpObjective:
    SPEC = MlpSpec(hidden_units=6, train_points=20, trials=1)

    def test_param_dim(self):
        assert self.SPEC.param_dim == 19
        obj = mlp_objective(self.SPEC, "h2", data_seed=0)
        assert obj.eval(np.zeros(19)) >= 0.0

    def test_constant_prediction_losses(self):
        # zero weights kill the hidden layer; the network is the constant b2
        obj = mlp_objective(self.SPEC, "h1", data_seed=11)
        z = mlp_dataset(self.SPEC, 11)
        tv = benchmark_fn("h1", z)
        p = np.zeros(19)
        assert obj.eval_uncounted(p) == pytest.approx(float(np.mean(tv**2)),
                                                      rel=1e-14)
        p[-1] = 0.7
        assert obj.eval_uncounted(p) == pytest.approx(
            float(np.mean((0.7 - tv) ** 2)), rel=1e-14)

    def test_dataset_bounds_and_determinism(self):
        z = mlp_dataset(self.SPEC, 42)
        assert np.all((z >= -1.0) & (z <= 1.0))
        a = mlp_objective(self.SPEC, "h3", data_seed=42)
        b = mlp_objective(self.SPEC, "h3", data_seed=42)
        p = mlp_init(self.SPEC, 1)
        assert a.eval_uncounted(p) == b.eval_uncounted(p)

    def test_counter_integrity(self):
        obj = mlp_objective(self.SPEC, "h2", data_seed=3)
        p = mlp_init(self.SPEC, 2)
        for _ in range(9):
            obj.eval(p)
        assert obj.objective_evals == 9

    def test_line_evaluator_matches_pointwise(self):
        # every line of all four blocks at once, 13 abscissae each: f' and
        # f'' against central differences of fn along the line
        obj = mlp_objective(self.SPEC, "h2", data_seed=5)
        rng = np.random.default_rng(6)
        p = mlp_init(self.SPEC, 7)
        ts = rng.uniform(-2.0, 2.0, (p.size, 13))
        out = obj.eval_line(p, ts.ravel())
        assert out.shape == (2, ts.size)
        assert_line_derivatives(obj, p, np.repeat(np.arange(p.size), 13),
                                ts.ravel(), out)

    def test_fd_gradient_matches_backprop(self):
        obj = mlp_objective(self.SPEC, "h2", data_seed=8)
        z = mlp_dataset(self.SPEC, 8)
        tv = benchmark_fn("h2", z)
        p = mlp_init(self.SPEC, 9)
        ana = backprop_gradient(self.SPEC, z, tv, p)
        fd = np.zeros_like(p)
        h = 1e-6
        for i in range(p.size):
            e = np.zeros_like(p)
            e[i] = h
            fd[i] = (obj.eval_uncounted(p + e) - obj.eval_uncounted(p - e)) / (2 * h)
        assert np.linalg.norm(fd - ana) / np.linalg.norm(ana) <= 1e-4

    def test_init_bounds_and_determinism(self):
        bounds = mlp_param_bounds(self.SPEC)
        assert np.all(bounds[:12] == 1.0)
        assert np.all(bounds[12:] == pytest.approx(1.0 / math.sqrt(6)))
        a = mlp_init(self.SPEC, 3)
        assert np.array_equal(a, mlp_init(self.SPEC, 3))
        assert np.all(np.abs(a) <= bounds)

    def test_lower_terminal_keeps_distance(self):
        c = mlp_lower_terminal(self.SPEC)
        x0 = mlp_init(self.SPEC, 4)
        assert np.all(x0 - c >= 1.0 - 1e-12)

    def test_rejects_unknown_target(self):
        with pytest.raises(ValueError):
            mlp_objective(self.SPEC, "h9", data_seed=0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MlpSpec(hidden_units=0)


def line_differences(obj, p, i, t, h=1e-3):
    """f' and f'' of obj along coordinate i at t, from the fourth-order
    central differences of eval_uncounted with step h."""
    def f(value):
        q = p.copy()
        q[i] = value
        return obj.eval_uncounted(q)

    lo2, lo1, mid, up1, up2 = (f(t + k * h) for k in (-2, -1, 0, 1, 2))
    return ((lo2 - up2 + 8.0 * (up1 - lo1)) / (12.0 * h),
            (16.0 * (lo1 + up1) - lo2 - up2 - 30.0 * mid) / (12.0 * h * h))


def assert_line_derivatives(obj, p, idx, ts, out, rel=1e-7):
    """eval_line's f' and f'' (out[0], out[1]) at the points (idx, ts),
    point m on line idx[m] at abscissa ts[m], match central differences of
    fn to rel times 1 + |f| + |value|: the rounding of f, divided by the
    squared step, puts about 1e-10 |f| into the differences' f''."""
    for i, t, d1, d2 in zip(idx, ts, *out):
        fd1, fd2 = line_differences(obj, p, i, t)
        q = p.copy()
        q[i] = t
        scale = 1.0 + abs(obj.eval_uncounted(q))
        assert abs(d1 - fd1) <= rel * (scale + abs(fd1)), (i, t, d1, fd1)
        assert abs(d2 - fd2) <= rel * (scale + abs(fd2)), (i, t, d2, fd2)


def assert_lines_stand_alone(obj, p, ts, out, lines, rng, scale):
    """Each of the given lines of p gives the f' and f'' of out, bit for
    bit, when every other line's abscissae (ts[i] for line i) change."""
    K = ts.shape[1]
    for i in lines:
        moved = rng.uniform(-scale, scale, ts.shape)
        moved[i] = ts[i]
        got = obj.eval_line(p, moved.ravel())
        assert np.array_equal(got[:, i * K:(i + 1) * K],
                              out[:, i * K:(i + 1) * K]), i


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), hidden=st.integers(1, 8),
       train=st.integers(30, 240))
def test_line_evaluator_property(seed, hidden, train):
    # each input-side block gets more than one and under three chunks'
    # worth of points, at random abscissae; a line's f' and f'' do not
    # depend on the other lines' abscissae, also where the line's rows
    # straddle the first chunk boundary
    spec = MlpSpec(hidden_units=hidden, train_points=train, trials=1)
    obj = mlp_objective(spec, BENCHMARK_IDS[seed % 3], data_seed=seed)
    rng = np.random.default_rng(seed)
    p = rng.uniform(-2.0, 2.0, spec.param_dim)
    width = LINE_CHUNK // train
    K = int(rng.integers(width // hidden + 1, 3 * width // hidden))
    assert width < hidden * K < 3 * width
    ts = rng.uniform(-3.0, 3.0, (p.size, K))
    out = obj.eval_line(p, ts.ravel())
    # the w and b1 lines holding the first chunk boundary, and three more
    lines = {width // K, hidden + width // K} if width % K else set()
    lines.update(rng.choice(p.size, 3).tolist())
    assert_lines_stand_alone(obj, p, ts, out, sorted(lines), rng, 3.0)
    some = rng.choice(ts.size, 12)
    assert_line_derivatives(obj, p, some // K, ts.ravel()[some], out[:, some])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), hidden=st.integers(2, 8),
       train=st.integers(30, 240))
def test_line_evaluator_saturated_weights(seed, hidden, train):
    # input-side weights and biases of +-10, so most units saturate over
    # the training points, and output weights up to 10: f' and f'' stay
    # finite and match central differences along every line, two
    # abscissae each within 1 of the line's value
    spec = MlpSpec(hidden_units=hidden, train_points=train, trials=1)
    obj = mlp_objective(spec, BENCHMARK_IDS[seed % 3], data_seed=seed)
    rng = np.random.default_rng(seed)
    H = hidden
    p = np.concatenate([rng.choice([-10.0, 10.0], 2 * H),
                        rng.uniform(-10.0, 10.0, H + 1)])
    hid = np.tanh(np.outer(p[:H], mlp_dataset(spec, seed)) + p[H:2 * H, None])
    assert np.mean(np.abs(hid) > 0.999) > 0.5
    ts = p[:, None] + rng.uniform(-1.0, 1.0, (p.size, 2))
    out = obj.eval_line(p, ts.ravel())
    assert np.all(np.isfinite(out))
    assert_line_derivatives(obj, p, np.repeat(np.arange(p.size), 2),
                            ts.ravel(), out)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), hidden=st.integers(2, 8),
       train=st.integers(30, 240), scale=st.floats(3.0, 40.0),
       K=st.integers(1, 60))
def test_line_evaluator_takes_whole_lines(seed, hidden, train, scale, K):
    # every line of p with K abscissae each, back to back: a (2, ts.size)
    # array whose lines stand alone bit for bit, also a w line whose rows
    # straddle the first chunk boundary; a ts whose size is not a
    # multiple of p.size is an error
    spec = MlpSpec(hidden_units=hidden, train_points=train, trials=1)
    target = BENCHMARK_IDS[seed % 3]
    obj = mlp_objective(spec, target, data_seed=seed)
    rng = np.random.default_rng(seed)
    p = rng.uniform(-scale, scale, spec.param_dim)
    ts = rng.uniform(-scale, scale, (p.size, K))
    out = obj.eval_line(p, ts.ravel())
    assert out.shape == (2, ts.size)
    assert_lines_stand_alone(obj, p, ts, out, rng.choice(p.size, 4), rng,
                             scale)
    # with K2 abscissae per line, w line 1 holds the first chunk boundary
    width = LINE_CHUNK // train
    K2 = 3 * width // 4
    assert K2 < width < 2 * K2
    ts2 = rng.uniform(-scale, scale, (p.size, K2))
    assert_lines_stand_alone(obj, p, ts2, obj.eval_line(p, ts2.ravel()), [1],
                             rng, scale)
    with pytest.raises(ValueError):
        obj.eval_line(p, ts.ravel()[1:])
    # fn is the plain formula, bit for bit
    H = hidden
    z = mlp_dataset(spec, seed)
    tv = benchmark_fn(target, z)
    for q in (p, rng.uniform(-scale, scale, p.size)):
        w, b1, v, b2 = q[:H], q[H:2 * H], q[2 * H:3 * H], q[3 * H]
        want = np.mean((np.tanh(np.outer(z, w) + b1) @ v + b2 - tv) ** 2)
        assert obj.eval_uncounted(q) == float(want)
