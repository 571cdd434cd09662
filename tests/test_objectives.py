"""Densities, KL, evidence bound, and adversarial terms."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from avfp import rng
from avfp.data import LinearGaussianSpec, Trajectory, gen_linear_gaussian, kalman_loglik
from avfp.diffcore import (
    LN_2PI,
    Tape,
    Tensor,
    backward,
    constant,
    gauss_kl,
    gauss_logpdf,
    grad_check,
    no_tape,
    replay,
)
from avfp.model import (
    ModelParams,
    NetworkSpec,
    init_params,
    linear_gaussian_model,
    recognition,
)
from avfp.objectives import (
    Batch,
    adversarial_losses,
    combined_objective,
    filter_forward,
    prior_rollout,
    sequence_elbo,
)


def diag(mean, log_var):
    """A diagonal Gaussian as its (mean, log_var) constants."""
    return (constant(np.asarray(mean, dtype=float)),
            constant(np.asarray(log_var, dtype=float)))


def log_density(x, g):
    return gauss_logpdf(constant(np.asarray(x, dtype=float)), *g)


def kl(q, p):
    return gauss_kl(*q, *p)


def rand_traj(T, n_x, n_u, seed):
    g = np.random.default_rng(seed)
    return Trajectory(unit_id=0, x=g.standard_normal((T, n_x)),
                      u=g.standard_normal((T, n_u)))


# ---------------------------------------------------------------------------
# densities


def test_log_density_standard_normal_at_zero():
    g = diag([0.0], [0.0])
    assert log_density([0.0], g).item() == pytest.approx(
        -0.5 * LN_2PI, abs=1e-15
    )
    assert -0.5 * LN_2PI == pytest.approx(-0.9189385332046727, abs=1e-12)


def test_log_density_matches_scipy():
    g = np.random.default_rng(0)
    for _ in range(50):
        n = int(g.integers(1, 6))
        mean = g.standard_normal(n)
        log_var = g.uniform(-3, 3, n)
        x = g.standard_normal(n) * 2
        ours = log_density(x, diag(mean, log_var)).item()
        ref = multivariate_normal(mean=mean, cov=np.diag(np.exp(log_var))).logpdf(x)
        assert ours == pytest.approx(float(ref), abs=1e-11)


def test_log_density_univariate_sum():
    xs = np.array([0.3, -1.2, 2.0])
    g = diag([0.1, 0.0, -0.5], [0.2, -0.3, 0.0])
    ref = norm.logpdf(xs, loc=g[0].data, scale=np.exp(0.5 * g[1].data)).sum()
    assert log_density(xs, g).item() == pytest.approx(float(ref), abs=1e-11)


def test_log_density_shape_check():
    with pytest.raises(ValueError):
        log_density(np.zeros(2), diag([0.0], [0.0]))


# ---------------------------------------------------------------------------
# KL


def test_kl_pinned_values():
    q = diag([1.0], [0.0])
    p = diag([0.0], [0.0])
    assert kl(q, p).item() == pytest.approx(0.5, abs=1e-15)
    assert kl(q, q).item() == 0.0


def test_kl_positive_and_asymmetric():
    g = np.random.default_rng(1)
    for _ in range(100):
        n = int(g.integers(1, 5))
        q = diag(g.standard_normal(n), g.uniform(-2, 2, n))
        p = diag(g.standard_normal(n), g.uniform(-2, 2, n))
        kqp = kl(q, p).item()
        assert kqp >= 0.0
    q = diag([1.0], [0.5])
    p = diag([0.0], [-0.5])
    assert kl(q, p).item() != pytest.approx(
        kl(p, q).item(), abs=1e-6
    )


def test_kl_matches_monte_carlo():
    g = np.random.default_rng(2)
    for trial in range(5):
        n = int(g.integers(1, 5))
        mq, lq = g.standard_normal(n), g.uniform(-1.5, 1.5, n)
        mp, lp = g.standard_normal(n), g.uniform(-1.5, 1.5, n)
        closed = kl(diag(mq, lq), diag(mp, lp)).item()

        m = 200_000
        z = mq + np.exp(0.5 * lq) * g.standard_normal((m, n))
        lq_z = (-0.5 * ((z - mq) ** 2 / np.exp(lq) + lq + LN_2PI)).sum(axis=1)
        lp_z = (-0.5 * ((z - mp) ** 2 / np.exp(lp) + lp + LN_2PI)).sum(axis=1)
        samples = lq_z - lp_z
        se = samples.std(ddof=1) / np.sqrt(m)
        assert abs(samples.mean() - closed) < 3.0 * se + 1e-12


def test_kl_gradcheck():
    g = np.random.default_rng(3)
    params = [Tensor(g.standard_normal(3)), Tensor(g.uniform(-1, 1, 3)),
              Tensor(g.standard_normal(3)), Tensor(g.uniform(-1, 1, 3))]

    def f(ps):
        return gauss_kl(*ps)

    assert grad_check(f, params) < 1e-6


def test_log_density_gradcheck():
    g = np.random.default_rng(4)
    x = g.standard_normal(3)
    params = [Tensor(g.standard_normal(3)), Tensor(g.uniform(-1, 1, 3))]

    def f(ps):
        return gauss_logpdf(constant(x), *ps)

    assert grad_check(f, params) < 1e-6


# ---------------------------------------------------------------------------
# adversarial terms


def test_equilibrium_losses():
    half = constant(np.full(4, 0.5))
    disc, gen = adversarial_losses(half, half)
    assert disc.item() == pytest.approx(2.0 * np.log(2.0), abs=1e-15)
    assert gen.item() == pytest.approx(np.log(2.0), abs=1e-15)
    assert disc.item() == pytest.approx(1.3862943611198906, abs=1e-12)


def test_adversarial_domain_check():
    ok = constant(np.array([0.5]))
    with pytest.raises(ValueError):
        adversarial_losses(constant(np.array([1.0])), ok)
    with pytest.raises(ValueError):
        adversarial_losses(ok, constant(np.array([0.0])))


# ---------------------------------------------------------------------------
# filtering pass and evidence bound


def zeroed_heads(params: ModelParams) -> ModelParams:
    """Zero every Gaussian head's output layer: all beliefs become N(0, I)."""
    for group in (params.phi, params.theta):
        for name, t in list(group.items()):
            if any(name.endswith(s) for s in (".Wm", ".bm", ".Wv", ".bv")):
                group[name] = Tensor(np.zeros_like(t.data))
    return params


@pytest.mark.parametrize("markovian", [False, True])
def test_zero_net_reduction(markovian):
    spec = NetworkSpec(n_x=3, n_u=2, n_z=2, n_h=4, enc_hidden=3,
                       dec_hidden=3, prior_hidden=3)
    params = zeroed_heads(init_params(spec, markovian, seed=0))
    for T in (1, 5):
        traj = Trajectory(unit_id=0, x=np.zeros((T, 3)), u=np.zeros((T, 2)))
        noise = rng.normal(0, (T, 2), "test-noise")
        elbo, terms, _ = sequence_elbo(params, Batch([traj]), noise)
        assert elbo.item() == pytest.approx(T * 3 * (-0.5 * LN_2PI), abs=1e-12)
        assert np.all(terms.data[1] == 0.0)


def test_filter_forward_structure():
    spec = NetworkSpec(n_x=3, n_u=2, n_z=2, n_h=4, enc_hidden=3,
                       dec_hidden=3, prior_hidden=3)
    params = init_params(spec, markovian=False, seed=1)
    traj = rand_traj(6, 3, 2, seed=0)
    noise = rng.normal(1, (6, 2), "n")
    scan = filter_forward(params, Batch([traj]), noise)
    _, terms, q = sequence_elbo(params, Batch([traj]), noise)
    assert scan["z"].shape == (6, 2) and terms.shape == (2, 6)
    # first-step prior pinned: row 0's KL is against N(0, I), bit for bit
    zero = constant(np.zeros(2))
    assert terms.data[1, 0] == gauss_kl(
        constant(q["mean"].data[0]), constant(q["log_var"].data[0]),
        zero, zero).item()
    with pytest.raises(ValueError):
        filter_forward(params, Batch([traj]), np.zeros((5, 2)))


def test_deterministic_mode_uses_means():
    spec = NetworkSpec(n_x=3, n_u=2, n_z=2, n_h=4, enc_hidden=3,
                       dec_hidden=3, prior_hidden=3)
    params = init_params(spec, markovian=False, seed=1)
    traj = rand_traj(4, 3, 2, seed=2)
    with no_tape():   # a tape records no filtering without noise
        scan = filter_forward(params, Batch([traj]), None)
        # the log-variance head is not run: it needs none of its weights
        phi = {k: t for k, t in params.phi.items() if k not in ("enc.Wv", "enc.bv")}
        same = filter_forward(replace(params, phi=phi), Batch([traj]), None)
    assert "log_var" not in scan
    assert same.rows.data.tobytes() == scan.rows.data.tobytes()
    with Tape(), pytest.raises(ValueError, match="taped latent_scan"):
        filter_forward(params, Batch([traj]), None)
    # zero noise samples the posterior means
    sampled = filter_forward(params, Batch([traj]), np.zeros((4, 2)))
    assert np.abs(scan["z"].data - sampled["mean"].data).max() <= 1e-15
    assert np.array_equal(sampled["z"].data, sampled["mean"].data)


def test_elbo_gradcheck_both_modes():
    for markovian in (False, True):
        spec = NetworkSpec(n_x=2, n_u=1, n_z=2, n_h=3, enc_hidden=2,
                           dec_hidden=2, prior_hidden=2)
        params = init_params(spec, markovian, seed=5)
        traj = rand_traj(3, 2, 1, seed=3)
        noise = rng.normal(5, (3, 2), "gc")
        names = ["enc.Wm", "enc.bv"] if markovian else ["gru.W", "enc.Wm", "enc.bv"]
        tensors = [params.phi[n] for n in names]
        th_names = ["pri.Wm", "dec.Wv"]
        th_tensors = [params.theta[n] for n in th_names]

        def f(ps):
            phi = {**params.phi}
            theta = {**params.theta}
            for n, t in zip(names, ps[: len(names)]):
                phi[n] = t
            for n, t in zip(th_names, ps[len(names):]):
                theta[n] = t
            trial = ModelParams(spec=spec, markovian=markovian, theta=theta,
                                phi=phi, psi=params.psi, rho=params.rho)
            elbo = sequence_elbo(trial, Batch([traj]), noise)[0]
            return elbo

        assert grad_check(f, tensors + th_tensors, step=1e-5) < 1e-4


def test_combined_equals_elbo_when_lambda_zero():
    spec = NetworkSpec(n_x=3, n_u=2, n_z=2, n_h=4, enc_hidden=3,
                       dec_hidden=3, prior_hidden=3)
    params = init_params(spec, markovian=False, seed=2)
    traj = rand_traj(5, 3, 2, seed=4)
    noise = rng.normal(2, (5, 2), "cmp")
    elbo = sequence_elbo(params, Batch([traj]), noise)[0]
    (bd,), target = combined_objective(params, Batch([traj]), [noise],
                                       lambda_adv=0.0)
    assert bd.combined == elbo.item()  # bit-identical
    assert target.item() == elbo.item()
    assert bd.adv_gen == 0.0


def test_combined_breakdown_invariant():
    spec = NetworkSpec(n_x=3, n_u=2, n_z=2, n_h=4, enc_hidden=3,
                       dec_hidden=3, prior_hidden=3)
    params = init_params(spec, markovian=False, seed=2)
    traj = rand_traj(5, 3, 2, seed=4)
    noise = rng.normal(2, (5, 2), "cmp")
    pn = rng.normal(2, (5, 2), "cmp-prior")
    lam = 0.37
    prior = prior_rollout(params, Batch([traj]), pn).data
    (bd,), target = combined_objective(params, Batch([traj]), [noise],
                                       lambda_adv=lam, prior_rows=prior)
    assert bd.combined == bd.recon_loglik - bd.kl_total - lam * bd.adv_gen
    assert bd.kl_per_step.shape == (5,)
    assert np.isfinite(bd.adv_disc)
    assert target.item() == bd.combined


def test_adversarial_term_needs_prior_rows():
    spec = NetworkSpec(n_x=3, n_u=2, n_z=2, n_h=4, enc_hidden=3,
                       dec_hidden=3, prior_hidden=3)
    params = init_params(spec, markovian=False, seed=2)
    traj = rand_traj(5, 3, 2, seed=4)
    noise = rng.normal(2, (5, 2), "cmp")
    with pytest.raises(ValueError, match="prior rollout"):
        combined_objective(params, Batch([traj]), [noise], lambda_adv=0.1)
    (bd,), _ = combined_objective(params, Batch([traj]), [noise],
                                  lambda_adv=0.0)
    assert bd.adv_gen == bd.adv_disc == 0.0


def test_zero_weight_discriminator_constant_penalty():
    # D == 0.5 everywhere: adversarial terms are ln 2 constants
    spec = NetworkSpec(n_x=3, n_u=2, n_z=2, n_h=4, enc_hidden=3,
                       dec_hidden=3, prior_hidden=3)
    params = init_params(spec, markovian=False, seed=2)
    for k in params.psi:
        params.psi[k] = Tensor(np.zeros_like(params.psi[k].data))
    traj = rand_traj(5, 3, 2, seed=4)
    noise = rng.normal(2, (5, 2), "cmp")
    elbo = sequence_elbo(params, Batch([traj]), noise)[0]
    prior = prior_rollout(params, Batch([traj]), noise).data
    (bd,), _ = combined_objective(params, Batch([traj]), [noise],
                                  lambda_adv=1.0, prior_rows=prior)
    assert bd.adv_gen == pytest.approx(np.log(2.0), abs=1e-15)
    assert bd.combined == pytest.approx(elbo.item() - np.log(2.0), abs=1e-12)
    assert bd.adv_disc == pytest.approx(2.0 * np.log(2.0), abs=1e-15)


def test_prior_rollout_detached_and_deterministic():
    spec = NetworkSpec(n_x=3, n_u=2, n_z=2, n_h=4, enc_hidden=3,
                       dec_hidden=3, prior_hidden=3)
    params = init_params(spec, markovian=False, seed=8)
    traj = Trajectory(unit_id=0, x=np.zeros((6, 3)), u=np.zeros((6, 2)))
    noise = rng.normal(8, (6, 2), "roll")
    with Tape() as tape:
        zs = prior_rollout(params, Batch([traj]), noise)
    assert len(tape) == 0  # nothing recorded
    assert zs.tape is None
    zs2 = prior_rollout(params, Batch([traj]), noise)
    assert np.array_equal(zs.data, zs2.data)


# ---------------------------------------------------------------------------
# bound against the exact marginal likelihood


def test_elbo_never_exceeds_exact_loglik():
    for seed in range(3):
        g = np.random.default_rng(seed)
        n_z, n_x = 2, 3
        A = 0.7 * np.eye(n_z) + 0.1 * g.standard_normal((n_z, n_z))
        lg = LinearGaussianSpec(
            A=A, C=g.standard_normal((n_x, n_z)),
            q_diag=g.uniform(0.2, 0.8, n_z), r_diag=g.uniform(0.2, 0.8, n_x),
            init_mean=np.zeros(n_z), init_cov=np.eye(n_z),
        )
        traj = gen_linear_gaussian(lg, T=12, seed=seed + 50)
        exact = kalman_loglik(lg, traj.x)
        params = linear_gaussian_model(lg, seed=seed)
        draws = 128
        vals = np.empty(draws)
        for d in range(draws):
            noise = rng.normal(seed, (12, n_z), "elbo-mc", d)
            elbo = sequence_elbo(params, Batch([traj]), noise)[0]
            vals[d] = elbo.item()
        se = vals.std(ddof=1) / np.sqrt(draws)
        assert vals.mean() <= exact + 3.0 * se


def test_replay_bit_exact_over_combined_objective_tape():
    # default spec on the FD001-shaped fleet and a ragged batch: every
    # fused op and the row cuts of ending trajectories are on the tape
    spec = NetworkSpec(n_x=14, n_u=2)
    params = init_params(spec, markovian=False, seed=0)
    trajs = [rand_traj(T, 14, 2, seed=8 + T) for T in (6, 4, 5)]
    noise = [rng.normal(0, (t.length, spec.n_z), "replay-noise", i)
             for i, t in enumerate(trajs)]
    prior_noise = [rng.normal(0, (t.length, spec.n_z), "replay-prior-noise", i)
                   for i, t in enumerate(trajs)]
    batch = Batch(trajs)
    prior = prior_rollout(params, batch, batch.pack(prior_noise)).data
    with Tape() as tape:
        _, target = combined_objective(params, batch, noise, 0.1,
                                       prior_rows=prior)
    assert {"affine", "latent_scan", "gauss_bound", "slice",
            "matmul"} <= set(tape.ops)
    replay(tape)
    grads = backward(tape, target)
    assert all(np.isfinite(g).all() for g in grads.values())
