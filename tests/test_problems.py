import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcg.fraccalc import FracParams
from cfcg.problems import (BENCHMARK_IDS, CALM_HID, LINE_CHUNK,
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
        import dataclasses
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
        import dataclasses
        prob, x0, c = gen_example1(Example1Config(seed=4, m=8, n=8))
        prob = dataclasses.replace(prob, gamma=1.0)
        frac = FracParams(0.9, 0.1, c)
        objective, target, abar = tikhonov_run_objective(prob, frac)
        assert np.linalg.norm(objective.frac_gradient(target)) < 1e-9
        assert objective.fn(target) == pytest.approx(0.0, abs=1e-18)
        rng = np.random.default_rng(0)
        x = rng.normal(size=8)
        assert np.allclose(objective.frac_gradient(x), abar @ (x - target),
                           atol=1e-9)


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
        obj = mlp_objective(self.SPEC, "h2", data_seed=5)
        rng = np.random.default_rng(6)
        p = mlp_init(self.SPEC, 7)
        H = self.SPEC.hidden_units
        ts = rng.uniform(-2.0, 2.0, 13)
        # one coordinate from each parameter block, by a scalar index
        calls = [(i, ts) for i in (0, H - 1, H, 2 * H - 1, 2 * H, 3 * H - 1, 3 * H)]
        # and one call mixing all four blocks, each with more points than
        # one internal chunk
        width = LINE_CHUNK // self.SPEC.train_points
        idx = rng.integers(0, p.size, 4 * p.size * width // 3)
        assert np.all(np.bincount(np.minimum(idx // H, 3)) > width)
        calls.append((idx, rng.uniform(-2.0, 2.0, idx.size)))
        for i, pts in calls:
            fast = obj.eval_line(p, i, pts)
            slow = []
            for j, t in zip(np.broadcast_to(i, pts.shape), pts):
                q = p.copy()
                q[j] = t
                slow.append(obj.eval_uncounted(q))
            assert np.allclose(fast, slow, rtol=1e-12, atol=1e-14)
        # a point's value does not depend on what it is batched with
        for i in np.unique(idx):
            assert np.array_equal(obj.eval_line(p, i, pts[idx == i]), fast[idx == i])

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


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), hidden=st.integers(1, 8),
       train=st.integers(30, 240))
def test_line_evaluator_property(seed, hidden, train):
    # every block gets more than one and under three input-side chunks'
    # worth of points, interleaved in one call, at random abscissae
    spec = MlpSpec(hidden_units=hidden, train_points=train, trials=1)
    obj = mlp_objective(spec, BENCHMARK_IDS[seed % 3], data_seed=seed)
    rng = np.random.default_rng(seed)
    p = rng.uniform(-2.0, 2.0, spec.param_dim)
    H, width = hidden, LINE_CHUNK // train
    blocks = [np.arange(H), np.arange(H, 2 * H), np.arange(2 * H, 3 * H),
              np.array([3 * H])]
    idx = rng.permutation(np.concatenate([
        rng.choice(b, rng.integers(width + 1, 3 * width)) for b in blocks]))
    ts = rng.uniform(-3.0, 3.0, idx.size)
    fast = obj.eval_line(p, idx, ts)
    slow = []
    for i, t in zip(idx, ts):
        q = p.copy()
        q[i] = t
        slow.append(obj.eval_uncounted(q))
    assert np.allclose(fast, slow, rtol=1e-12, atol=0.0)
    # a point's value does not depend on what it is batched with, nor on
    # where in the batch it sits
    perm = rng.permutation(idx.size)[:idx.size // 2]
    assert np.array_equal(obj.eval_line(p, idx[perm], ts[perm]), fast[perm])
    for m in perm[:5]:
        assert np.array_equal(obj.eval_line(p, idx[m], ts[m:m + 1]),
                              fast[m:m + 1])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), hidden=st.integers(2, 8),
       train=st.integers(30, 240), scale=st.floats(3.0, 40.0))
def test_line_evaluator_saturated_weights(seed, hidden, train, scale):
    # parameters up to +-scale: half the hidden units keep |w|, |b1| <= 0.5
    # and stay calm, the others have |b1| >= 3 and saturate, so one call
    # takes b1 lines both by the addition formula and by tanh rows
    spec = MlpSpec(hidden_units=hidden, train_points=train, trials=1)
    obj = mlp_objective(spec, BENCHMARK_IDS[seed % 3], data_seed=seed)
    rng = np.random.default_rng(seed)
    H, width = hidden, LINE_CHUNK // train
    small = rng.permutation(np.arange(H) % 2 == 0)
    w = np.where(small, 0.5, scale) * rng.uniform(-1.0, 1.0, H)
    b1 = np.where(small, rng.uniform(-0.5, 0.5, H),
                  rng.choice([-1.0, 1.0], H) * rng.uniform(3.0, scale, H))
    p = np.concatenate([w, b1, rng.uniform(-scale, scale, H + 1)])
    z = mlp_dataset(spec, seed)
    calm = np.max(np.abs(np.tanh(np.outer(w, z) + b1[:, None])), axis=1) <= CALM_HID
    assert np.array_equal(calm, small)
    blocks = [np.arange(H), np.arange(H, 2 * H), np.arange(2 * H, 3 * H),
              np.array([3 * H])]
    idx = rng.permutation(np.concatenate([
        rng.choice(b, rng.integers(1, 2 * width)) for b in blocks]))
    ts = rng.uniform(-scale, scale, idx.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = obj.eval_line(p, idx, ts)
        perm = rng.permutation(idx.size)[:idx.size // 2]
        half = obj.eval_line(p, idx[perm], ts[perm])
        single = [obj.eval_line(p, idx[m], ts[m:m + 1]) for m in perm[:5]]
    slow = []
    for i, t in zip(idx, ts):
        q = p.copy()
        q[i] = t
        slow.append(obj.eval_uncounted(q))
    assert np.all(np.isfinite(fast))
    assert np.allclose(fast, slow, rtol=1e-12, atol=0.0)
    assert np.array_equal(half, fast[perm])
    for m, value in zip(perm[:5], single):
        assert np.array_equal(value, fast[m:m + 1])
