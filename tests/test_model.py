"""Network specs, parameter partitions, and model building blocks."""

import numpy as np
import pytest
from scipy.special import expit

from avfp import model as avm
from avfp.data import LinearGaussianSpec, Trajectory
from avfp.diffcore import (
    Tape,
    Tensor,
    backward,
    constant,
    gauss_kl,
    gauss_logpdf,
    grad_check,
    latent_scan,
)
from avfp.model import (
    LOG_VAR_MAX,
    LOG_VAR_MIN,
    NetworkSpec,
    discriminate,
    init_params,
    linear_gaussian_model,
    prior_chain,
    prior_history,
    rul_head,
)
from avfp.objectives import (
    Batch,
    filter_forward,
    filter_means,
    sequence_elbo,
)
from conftest import lg_bound_rows


def small_spec(**kw):
    base = dict(n_x=3, n_u=2, n_z=2, n_h=5, enc_hidden=4, dec_hidden=4,
                prior_hidden=4, disc_hidden=4, rul_hidden=4)
    base.update(kw)
    return NetworkSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(n_x=0)
    with pytest.raises(ValueError):
        small_spec(n_z=9, n_h=4)
    with pytest.raises(ValueError):
        small_spec(enc_hidden=-1)
    with pytest.raises(ValueError):
        small_spec(disc_hidden=0)
    with pytest.raises(ValueError):
        small_spec(rul_hidden=0)


def test_init_deterministic_and_partitioned():
    spec = small_spec()
    a = init_params(spec, markovian=False, seed=11)
    b = init_params(spec, markovian=False, seed=11)
    c = init_params(spec, markovian=False, seed=12)
    for name, t in a.named().items():
        assert np.array_equal(t.data, b.named()[name].data), name
    assert any(
        not np.array_equal(t.data, c.named()[n].data)
        for n, t in a.named().items()
    )
    assert set(a.partitions()) == {"theta", "phi", "psi", "rho"}
    assert "h0" in a.phi and "g0" in a.theta


def test_markovian_drops_recurrent_params():
    spec = small_spec()
    p = init_params(spec, markovian=True, seed=0)
    assert "gru.W" not in p.phi and "h0" not in p.phi
    assert "gru.W" not in p.theta and "g0" not in p.theta
    d_rec = spec.n_x + spec.n_u + spec.n_z
    assert p.phi["enc.W1"].shape == (spec.enc_hidden, d_rec)


def gru_step(group, h0, inp):
    """One step of the group's GRU from the state h0 for each row of
    inp: a one-step latent_scan of the GRU alone, as the model runs it."""
    gru = dict(W=group["gru.W"], U=group["gru.U"], b=group["gru.b"], h0=h0)
    n = inp.shape[0]
    return latent_scan([inp], gru, [(0, n, n)], gru_in=("xu",))["h"]


def test_gru_step_matches_hand_computation():
    spec = small_spec()
    p = init_params(spec, markovian=False, seed=3)
    g = np.random.default_rng(0)
    h = g.standard_normal(spec.n_h)
    inp = g.standard_normal(spec.n_x + spec.n_u + spec.n_z)

    out = gru_step(p.phi, Tensor(h), Tensor(inp[None]))  # B = 1

    W, U, b = (p.phi["gru.W"].data, p.phi["gru.U"].data, p.phi["gru.b"].data)
    nh = spec.n_h
    s = W @ inp + b
    t = U @ h
    r = expit(s[:nh] + t[:nh])
    u = expit(s[nh : 2 * nh] + t[nh : 2 * nh])
    c = np.tanh(s[2 * nh :] + r * t[2 * nh :])
    expected = (1 - u) * h + u * c
    assert out.shape == (1, nh)
    assert np.allclose(out.data[0], expected, atol=1e-14)


def test_gru_gate_saturation_limits():
    # huge positive update-gate bias -> h' ~ candidate; huge negative -> carry
    spec = small_spec()
    p = init_params(spec, markovian=False, seed=3)
    h = Tensor(np.full(spec.n_h, 0.7))
    inp = Tensor(np.zeros((1, spec.n_x + spec.n_u + spec.n_z)))
    b = p.phi["gru.b"].data.copy()
    b[spec.n_h : 2 * spec.n_h] = -50.0
    p.phi["gru.b"] = Tensor(b)
    out = gru_step(p.phi, h, inp)
    assert np.allclose(out.data, h.data[None], atol=1e-12)


def traj_of(x, u):
    return Trajectory(unit_id=0, x=np.asarray(x, float), u=np.asarray(u, float))


def test_recognition_state_shapes():
    spec = small_spec()
    traj = traj_of(np.zeros((2, spec.n_x)), np.zeros((2, spec.n_u)))
    scan = filter_forward(init_params(spec, markovian=False, seed=1),
                          Batch([traj]), None)
    assert scan["h"].shape == (2, spec.n_h)
    scan = filter_forward(init_params(spec, markovian=True, seed=1),
                          Batch([traj]), None)
    assert "h" not in scan  # the summary is the inputs themselves


def test_markovian_summary_is_inputs_only():
    spec = small_spec()
    p = init_params(spec, markovian=True, seed=1)
    x = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 4.0]])
    u = np.array([[0.5, -0.5], [1.0, 2.0]])
    states, means = filter_means(p, Batch([traj_of(x, u)]))
    z_prev = np.vstack([np.zeros((1, spec.n_z)), means[:1]])
    assert np.array_equal(states, np.concatenate([x, u, z_prev], axis=1))


def test_history_dependence_only_without_markov():
    # perturbing x_0 changes the step-1 posterior iff history is on; the
    # weights that read z_{t-1} are zero, so x_0 cannot act through it
    spec = small_spec()
    g = np.random.default_rng(5)
    x0a, x0b = g.standard_normal((1, 3)), g.standard_normal((1, 3))
    x1 = g.standard_normal((1, 3))
    u = g.standard_normal((2, 2))

    def posterior_at_1(params, x0):
        for name in ("gru.W", "enc.W1"):
            if name in params.phi and params.phi[name].shape[1] > spec.n_h:
                w = params.phi[name].data.copy()
                w[:, spec.n_x + spec.n_u:] = 0.0
                params.phi[name] = Tensor(w)
        batch = Batch([traj_of(np.vstack([x0, x1]), u)])
        return filter_means(params, batch)[1][1]

    p_rec = init_params(spec, markovian=False, seed=2)
    assert not np.allclose(posterior_at_1(p_rec, x0a), posterior_at_1(p_rec, x0b))
    p_mark = init_params(spec, markovian=True, seed=2)
    assert np.allclose(posterior_at_1(p_mark, x0a), posterior_at_1(p_mark, x0b))


def test_recognition_logvar_clamped():
    spec = small_spec(enc_hidden=0)
    p = init_params(spec, markovian=True, seed=0)
    p.phi["enc.bv"] = Tensor(np.full(spec.n_z, 99.0))
    traj = traj_of(np.zeros((2, 3)), np.zeros((2, 2)))
    scan = filter_forward(p, Batch([traj]), np.zeros((2, spec.n_z)))
    assert np.all(scan["log_var"].data == avm.LOG_VAR_MAX)


def test_first_step_prior_is_standard_normal():
    # the bound's first-step prior rows, one per trajectory of a batch
    spec = small_spec()
    p = init_params(spec, markovian=False, seed=0)
    g = np.random.default_rng(0)
    trajs = [Trajectory(unit_id=k, x=g.standard_normal((T, spec.n_x)),
                        u=g.standard_normal((T, spec.n_u)))
             for k, T in enumerate((3, 4))]
    noise = [g.standard_normal((t.length, spec.n_z)) for t in trajs]
    batch = Batch(trajs)
    _, terms, scan = sequence_elbo(p, batch, batch.pack(noise))
    first = [rows[0] for rows in batch.rows]
    zero = constant(np.zeros((2, spec.n_z)))
    standard = gauss_kl(constant(scan["mean"].data[first]),
                        constant(scan["log_var"].data[first]), zero, zero)
    assert np.array_equal(terms.data[1, first], standard.data)


def test_recognition_sample_is_reparameterized():
    spec = small_spec()
    p = init_params(spec, markovian=False, seed=3)
    g = np.random.default_rng(4)
    traj = traj_of(g.standard_normal((4, 3)), g.standard_normal((4, 2)))
    noise = g.standard_normal((4, spec.n_z))
    scan = filter_forward(p, Batch([traj]), noise)
    assert np.array_equal(scan["z"].data, scan["mean"].data
                          + np.exp(scan["log_var"].data * 0.5) * noise)
    with pytest.raises(ValueError):
        filter_forward(p, Batch([traj]), np.zeros((4, spec.n_z + 1)))


def prior_rows(p, batch, z_prev):
    """The transition prior's (mean, log_var) rows at z_prev, computed
    here from theta: prior_history, then the "pri." head; N(0, I) at the
    first step."""
    history = prior_history(p, {"z_prev": constant(z_prev)}, batch.u, batch.runs)
    inp = z_prev if history is None else np.hstack([z_prev, history.data])
    w = {k[4:]: t.data for k, t in p.theta.items() if k.startswith("pri.")}
    if "W1" in w:
        inp = np.tanh(inp @ w["W1"].T + w["b1"])
    mean = inp @ w["Wm"].T + w["bm"]
    log_var = np.clip(inp @ w["Wv"].T + w["bv"], LOG_VAR_MIN, LOG_VAR_MAX)
    first = batch.runs[0][2]
    mean[:first] = log_var[:first] = 0.0
    return mean, log_var


@pytest.mark.parametrize("prior_hidden", [4, 0])
@pytest.mark.parametrize("markovian", [False, True])
def test_rollout_prior_equals_bound_prior(markovian, prior_hidden):
    """The rollout's in-kernel prior (prior_chain) and the bound's (in
    gauss_bound) are one prior computed twice: each equals prior_rows."""
    spec = small_spec(prior_hidden=prior_hidden)
    p = init_params(spec, markovian=markovian, seed=13)
    g = np.random.default_rng(8)
    for b in ("pri.bm", "pri.bv"):  # nonzero: an unpinned first step shows
        p.theta[b] = Tensor(g.uniform(-0.5, 0.5, spec.n_z))
    batch = Batch([traj_of(g.standard_normal((T, spec.n_x)),
                           g.standard_normal((T, spec.n_u))) for T in (9, 5, 7)])
    eps = g.standard_normal((batch.length, spec.n_z))
    z = prior_chain(p, batch.u, eps, batch.runs).data
    z_prev = np.zeros_like(z)
    for rows in batch.rows:
        z_prev[rows[1:]] = z[rows[:-1]]
    first = batch.runs[0][2]
    assert np.array_equal(z[:first], eps[:first])  # N(0, I) first step
    mean, log_var = prior_rows(p, batch, z_prev)
    want = mean[first:] + np.exp(log_var[first:] / 2) * eps[first:]
    assert np.abs(z[first:] - want).max() <= 1e-12 * np.abs(want).max()

    _, terms, scan = sequence_elbo(p, batch, eps)
    mean, log_var = prior_rows(p, batch, scan["z_prev"].data)
    d_lv = scan["log_var"].data - log_var
    want = 0.5 * (np.exp(d_lv) + (scan["mean"].data - mean) ** 2
                  * np.exp(-log_var) - 1.0 - d_lv).sum(axis=1)
    assert np.abs(terms.data[1] - want).max() <= 1e-12 * np.abs(want).max()


def test_prior_history_is_one_scan_node():
    """The prior's summaries of (z_prev, u) are one headless latent_scan
    over both blocks, with no op joining its inputs and no slice of its
    output."""
    spec = small_spec()
    p = init_params(spec, markovian=False, seed=2)
    g = np.random.default_rng(9)
    batch = Batch([traj_of(g.standard_normal((T, spec.n_x)),
                           g.standard_normal((T, spec.n_u))) for T in (6, 3)])
    z_prev = Tensor(g.standard_normal((batch.length, spec.n_z)))
    with Tape() as tape:
        history = prior_history(p, {"z_prev": z_prev}, batch.u, batch.runs)
        loss = (history * history).sum()
    ops = [op for op in tape.ops if op != "leaf"]
    assert ops == ["latent_scan", "mul", "sum"]
    assert history.shape == (batch.length, spec.n_h)
    assert backward(tape, loss)[z_prev.uid].shape == z_prev.shape


def test_gaussian_mean_and_log_var_shapes_must_match():
    mean, log_var = Tensor([0.0, 0.0]), Tensor([0.0])
    with pytest.raises(ValueError):
        gauss_logpdf(constant(np.zeros(2)), mean, log_var)
    with pytest.raises(ValueError):
        gauss_kl(mean, log_var, mean, log_var)


def test_discriminator_range_and_pooling():
    spec = small_spec()
    p = init_params(spec, markovian=False, seed=4)
    g = np.random.default_rng(1)
    zs = g.standard_normal((7, spec.n_z))
    pool = np.full((1, 7), 1.0 / 7)
    d = discriminate(p, zs, pool)
    assert 0.0 < d.item() < 1.0
    perm = zs[[3, 0, 6, 1, 5, 2, 4]]
    assert discriminate(p, perm, pool).item() == pytest.approx(d.item(), abs=1e-12)
    with pytest.raises(ValueError):
        discriminate(p, np.zeros((0, spec.n_z)), np.zeros((1, 0)))


def test_zero_weight_discriminator_outputs_half():
    spec = small_spec()
    p = init_params(spec, markovian=False, seed=4)
    for k in p.psi:
        p.psi[k] = Tensor(np.zeros_like(p.psi[k].data))
    zs = np.random.default_rng(0).standard_normal((1, spec.n_z))
    assert discriminate(p, zs, np.ones((1, 1))).item() == 0.5


def test_rul_head_nonnegative():
    spec = small_spec()
    p = init_params(spec, markovian=False, seed=6)
    g = np.random.default_rng(2)
    rows = np.hstack([np.tanh(g.standard_normal((10, spec.n_h))),
                      g.standard_normal((10, spec.n_z))])
    val = rul_head(p, rows)
    assert val.shape == (10,)
    assert np.all(val.data >= 0.0)


def test_linear_gaussian_model_is_exact():
    g = np.random.default_rng(3)
    lg = LinearGaussianSpec(
        A=0.7 * np.eye(2), C=g.standard_normal((3, 2)),
        q_diag=[0.3, 0.5], r_diag=[0.2, 0.4, 0.6],
        init_mean=np.zeros(2), init_cov=np.eye(2),
    )
    p = linear_gaussian_model(lg, seed=1)
    z_prev = g.standard_normal((1, 2))  # one row per trajectory, B = 1
    st = prior_history(p, {"z_prev": constant(z_prev)}, np.zeros((1, 1)), [(0, 1)])
    assert st is None  # markovian: the heads read the adjacent latent only
    traj = traj_of(g.standard_normal((6, 3)), np.zeros((6, 1)))
    _, terms, scan = sequence_elbo(p, Batch([traj]), g.standard_normal((6, 2)))
    recon, kl = lg_bound_rows(lg, traj.x, scan)
    assert np.allclose(terms.data[0], recon, atol=1e-14)
    assert np.allclose(terms.data[1], kl, atol=1e-14)


def test_linear_gaussian_model_requires_standard_start():
    lg = LinearGaussianSpec(
        A=np.eye(2), C=np.ones((2, 2)), q_diag=[0.1, 0.1], r_diag=[0.1, 0.1],
        init_mean=np.ones(2), init_cov=np.eye(2),
    )
    with pytest.raises(ValueError):
        linear_gaussian_model(lg)


def test_gradcheck_through_model_step():
    spec = small_spec(n_h=4, enc_hidden=3, dec_hidden=3)
    p = init_params(spec, markovian=False, seed=9)
    g = np.random.default_rng(7)
    # B = 1, two steps: the bound's emission and transition prior
    batch = Batch([traj_of(g.standard_normal((2, spec.n_x)),
                           g.standard_normal((2, spec.n_u)))])
    noise = g.standard_normal((2, spec.n_z))
    names = ["gru.W", "gru.b", "enc.Wm", "enc.bv"]
    tensors = [p.phi[n] for n in names]

    def f(ps):
        trial = {**p.phi}
        for n, t in zip(names, ps):
            trial[n] = t
        params = avm.ModelParams(spec=spec, markovian=False, theta=p.theta,
                                 phi=trial, psi=p.psi, rho=p.rho)
        elbo, _, scan = sequence_elbo(params, batch, noise)
        return elbo + scan["log_var"].sum()

    assert grad_check(f, tensors) < 1e-5
