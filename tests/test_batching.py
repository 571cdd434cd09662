"""Time-major batches: one pass over a ragged batch equals one pass per
trajectory, and the tape stays small whatever the batch size."""

import tracemalloc

import numpy as np
import pytest

from avfp import rng
from avfp.data import Trajectory
from avfp.diffcore import Tape, backward, no_tape
from avfp.evalcli import _latent_means
from avfp.model import NetworkSpec, init_params, rul_head
from avfp.objectives import (
    Batch,
    combined_objective,
    filter_forward,
    filter_means,
    prior_rollout,
    sequence_elbo,
)
from avfp.training import _discriminator_loss, mc_elbo, predict_sequence_rul

LENGTHS = (9, 5, 7)


def small_spec():
    return NetworkSpec(n_x=3, n_u=2, n_z=2, n_h=4, enc_hidden=3,
                       dec_hidden=3, prior_hidden=3, disc_hidden=3,
                       rul_hidden=3)


def ragged(spec, lengths=LENGTHS, seed=0):
    g = np.random.default_rng(seed)
    return [Trajectory(unit_id=k, x=g.standard_normal((T, spec.n_x)),
                       u=g.standard_normal((T, spec.n_u)))
            for k, T in enumerate(lengths)]


def noises(spec, trajs, *ids):
    return [rng.normal(0, (t.length, spec.n_z), *ids, i)
            for i, t in enumerate(trajs)]


def assert_close(got, want):
    """max |got - want| <= 1e-12 * max |want|, one array at a time."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def assert_grads_close(got: dict, want: dict):
    assert set(got) == set(want)
    for uid in want:
        assert_close(got[uid], want[uid])


def summed(dicts):
    out = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out[k] + v if k in out else v
    return out


def test_batch_layout():
    spec = small_spec()
    batch = Batch(ragged(spec))
    # longest first: trajectory 0 (9), then 2 (7), then 1 (5); one run
    # of steps of equal width per distinct length
    assert batch.runs == ((0, 15, 3), (15, 19, 2), (19, 21, 1))
    assert batch.length == sum(LENGTHS)
    assert batch.rows[0][:3].tolist() == [0, 3, 6]
    assert batch.rows[2][:3].tolist() == [1, 4, 7]
    assert batch.rows[1][:3].tolist() == [2, 5, 8]
    assert np.array_equal(np.sort(np.concatenate(batch.rows)),
                          np.arange(batch.length))
    for t, x in zip(ragged(spec), batch.unpack(batch.x)):
        assert np.array_equal(t.x, x)
    assert np.allclose(batch.pool.sum(axis=1), 1.0)
    with pytest.raises(ValueError):
        Batch([])
    with pytest.raises(ValueError):
        batch.pack([np.zeros((9, 2)), np.zeros((4, 2)), np.zeros((7, 2))])


def numpy_layout(trajs):
    """The layout as an earlier Batch derived it with numpy: a stable
    argsort for the order, np.unique for the run ends, and (B, D)
    compares for the widths and the run bounds."""
    lengths = np.array([t.length for t in trajs], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ends = np.unique(lengths)
    widths = (lengths[:, None] >= ends).sum(axis=0).tolist()
    bounds = np.minimum(lengths[:, None], ends).sum(axis=0).tolist()
    runs = tuple(zip([0] + bounds[:-1], bounds, widths))
    starts = np.concatenate([np.arange(*run) for run in runs])
    rows = [starts[:n] + rank[b] for b, n in enumerate(lengths)]
    x = np.empty((bounds[-1], trajs[0].x.shape[1]))
    u = np.empty((bounds[-1], trajs[0].u.shape[1]))
    for r, t in zip(rows, trajs):
        x[r], u[r] = t.x, t.u
    return runs, bounds[-1], rows, x, u, np.hstack([x, u])


@pytest.mark.parametrize("lengths", [
    [int(n) for n in np.random.default_rng(3).integers(1, 12, 40)],  # ties
    [57],
    [19] * 256,
    [1, 1, 1],
    [1, 4, 1, 2],
    [int(n) for n in np.random.default_rng(4).integers(128, 363, 100)],
], ids=["ties", "single", "copies-256", "one-cycle", "one-cycle-mixed",
        "fd001-shaped"])
def test_batch_layout_matches_numpy_reference(lengths):
    spec = small_spec()
    trajs = ragged(spec, lengths, seed=len(lengths))
    batch = Batch(trajs)
    runs, length, rows, x, u, xu = numpy_layout(trajs)
    assert batch.runs == runs
    assert all(type(v) is int for run in batch.runs for v in run)
    assert type(batch.length) is int and batch.length == length
    assert len(batch.rows) == len(rows)
    for got, want in zip(batch.rows, rows):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for got, want in ((batch.x, x), (batch.u, u), (batch.xu, xu)):
        assert got.shape == want.shape and np.array_equal(got, want)
        assert got.flags.c_contiguous
    with pytest.raises(ValueError, match="at least one cycle"):
        Batch([])
    with pytest.raises(ValueError, match="at least one cycle"):
        Batch(trajs + ragged(spec, (0,)))


def test_one_trajectory_scans_as_one_run():
    """A trajectory alone is one run of one-row steps: a taped scan over
    300 cycles records that one run as its layout, not 300 steps."""
    spec = small_spec()
    params = init_params(spec, markovian=False, seed=0)
    trajs = ragged(spec, (300,))
    with Tape() as tape:
        filter_forward(params, Batch(trajs), noises(spec, trajs, "one")[0])
    (node,) = [i for i, op in enumerate(tape.ops) if op == "latent_scan"]
    assert tape.kws[node]["runs"] == ((0, 300, 1),)


@pytest.mark.parametrize("lambda_adv", [0.0, 0.1])
@pytest.mark.parametrize("markovian", [False, True])
def test_combined_objective_batched_equals_per_trajectory(markovian, lambda_adv):
    spec = small_spec()
    params = init_params(spec, markovian, seed=3)
    trajs = ragged(spec)
    noise = noises(spec, trajs, "noise")
    prior_noise = noises(spec, trajs, "prior-noise")
    batch = Batch(trajs)
    prior = prior_rollout(params, batch, batch.pack(prior_noise)).data

    with Tape() as tape:
        bds, target = combined_objective(params, batch, noise, lambda_adv,
                                         prior_rows=prior)
    grads = backward(tape, target)

    singles, single_grads = [], []
    for t, n, p in zip(trajs, noise, prior_noise):
        with Tape() as tape:
            (bd,), tgt = combined_objective(
                params, Batch([t]), [n], lambda_adv,
                prior_rows=prior_rollout(params, Batch([t]), p).data)
        singles.append((bd, tgt.item()))
        single_grads.append(backward(tape, tgt))

    assert_close(target.item(), sum(v for _, v in singles))
    for bd, (one, _) in zip(bds, singles):
        for field in ("recon_loglik", "kl_total", "adv_gen", "adv_disc",
                      "combined"):
            assert_close(getattr(bd, field), getattr(one, field))
        assert_close(bd.kl_per_step, one.kl_per_step)
    assert_grads_close(grads, summed(single_grads))


@pytest.mark.parametrize("markovian", [False, True])
def test_filter_means_batched_equals_per_trajectory(markovian):
    spec = small_spec()
    params = init_params(spec, markovian, seed=4)
    trajs = ragged(spec)
    batch = Batch(trajs)
    states, means = filter_means(params, batch)
    for t, h, m in zip(trajs, batch.unpack(states), batch.unpack(means)):
        h1, m1 = filter_means(params, Batch([t]))
        assert_close(h, h1)
        assert_close(m, m1)


@pytest.mark.parametrize("markovian", [False, True])
def test_readout_rows_equal_the_sliced_scan_blocks_bit_for_bit(markovian):
    """The readout rows and the health index's means, read off the scan's
    output, equal its blocks sliced through the slice primitive and
    stacked, as the readout built them before, on a batch of three runs."""
    spec = small_spec()
    params = init_params(spec, markovian, seed=6)
    trajs = ragged(spec)
    batch = Batch(trajs)
    assert len(batch.runs) == 3
    with no_tape():
        scan = filter_forward(params, batch, None)
        states = (np.hstack([batch.xu, scan["z_prev"].data]) if markovian
                  else scan["h"].data)
        means = scan["z"].data
    want = np.hstack([states, means])
    got = np.hstack(filter_means(params, batch))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for m, ref in zip(_latent_means(params, trajs), batch.unpack(means)):
        assert m.tobytes() == ref.tobytes()
    preds = predict_sequence_rul(params, trajs)
    with no_tape():
        ref = batch.unpack(rul_head(params, want).data)
    assert all(p.tobytes() == r.tobytes() for p, r in zip(preds, ref))


@pytest.mark.parametrize("markovian", [False, True])
def test_mc_elbo_rows_equal_single_draws(markovian):
    spec = small_spec()
    params = init_params(spec, markovian, seed=5)
    traj = ragged(spec, lengths=(7,))[0]
    draws = 12
    noise = [rng.normal(9, (traj.length, spec.n_z), "mc-elbo", d)
             for d in range(draws)]
    with no_tape():
        batch = Batch([traj] * draws)
        terms = sequence_elbo(params, batch, batch.pack(noise))[1].data
        rows = batch.per_trajectory(terms[0]) - batch.per_trajectory(terms[1])
        single = np.array([sequence_elbo(params, Batch([traj]), n)[0].item()
                           for n in noise])
    assert_close(rows, single)
    mean, se = mc_elbo(params, traj, draws, seed=9)
    assert_close(mean, single.mean())
    assert_close(se, single.std(ddof=1) / np.sqrt(draws))


@pytest.mark.parametrize("markovian", [False, True])
def test_discriminator_loss_batched_equals_per_trajectory(markovian):
    spec = small_spec()
    params = init_params(spec, markovian, seed=6)
    trajs = ragged(spec)
    fake, real = noises(spec, trajs, "fake"), noises(spec, trajs, "real")

    def loss_of(trajs, fake, real):
        batch = Batch(trajs)
        rows = prior_rollout(params, batch, batch.pack(real)).data
        with no_tape():
            z = filter_forward(params, batch, batch.pack(fake))["z"].data
        return _discriminator_loss(params, batch, z, rows)

    with Tape() as tape:
        loss = loss_of(trajs, fake, real)
    grads = backward(tape, loss)
    assert set(grads) == {p.uid for p in params.psi.values()}

    values, single_grads = [], []
    for t, f, r in zip(trajs, fake, real):
        with Tape() as tape:
            one = loss_of([t], [f], [r])
        values.append(one.item())
        single_grads.append({k: v / len(trajs)
                             for k, v in backward(tape, one).items()})
    assert_close(loss.item(), np.mean(values))
    assert_grads_close(grads, summed(single_grads))


@pytest.mark.parametrize("markovian", [False, True])
def test_stacked_prior_rollout_matches_one_rollout_per_draw(markovian):
    """Draws stacked as (draws, N, n_z) run as one scan over the batch
    stacked once per draw; each matches its own rollout, on a ragged
    batch whose width falls to 1."""
    spec = small_spec()
    params = init_params(spec, markovian, seed=7)
    trajs = ragged(spec)
    batch = Batch(trajs)
    assert batch.runs[-1][2] == 1
    for n in (2, 3):
        draws = np.stack([batch.pack(noises(spec, trajs, "draw", d))
                          for d in range(n)])
        with Tape() as tape:
            stacked = prior_rollout(params, batch, draws)
        assert len(tape) == 0 and stacked.shape == draws.shape
        for d, eps in enumerate(draws):
            assert_close(stacked.data[d], prior_rollout(params, batch, eps).data)


@pytest.mark.parametrize("n_traj", [1, 4, 8])
def test_phase_two_tape_is_at_most_20_nodes_per_step(n_traj):
    """Default spec, lambda_adv 0.1: each recurrence is one scan node and
    every head runs once over all rows, so the tape holds the same
    number of nodes for sequences twice as long."""
    spec = NetworkSpec(n_x=14, n_u=2)
    params = init_params(spec, markovian=False, seed=0)
    sizes = []
    for longest in (60, 120):
        lengths = [longest - 5 * (k % 4) for k in range(n_traj)]
        trajs = ragged(spec, lengths, seed=1)
        noise = noises(spec, trajs, "noise")
        batch = Batch(trajs)
        prior = prior_rollout(params, batch, batch.pack(noise)).data
        with Tape() as tape:
            _, target = combined_objective(params, batch, noise, 0.1, prior)
        assert len(tape) <= 20 * max(lengths)
        assert backward(tape, target)
        sizes.append(len(tape))
    assert sizes[0] == sizes[1]


def test_reverse_walk_peaks_at_its_forward_tape():
    """backward drops each node's value and aux once the walk has passed
    it, so on a default-spec phase-2 tape (lambda_adv 0.1, 8 ragged
    trajectories of at most 60 rows, the prior rolled out beforehand as
    phase 1 does) the walk's traced peak is about 1.51 times the
    forward's, the scan VJPs' working arrays; a walk that keeps every
    value until it returns peaks at about 2.07 times.  numpy reports its
    buffers to tracemalloc."""
    spec = NetworkSpec(n_x=14, n_u=2)
    params = init_params(spec, markovian=False, seed=0)
    trajs = ragged(spec, [60 - 5 * (k % 4) for k in range(8)], seed=1)
    noise = noises(spec, trajs, "noise")
    batch = Batch(trajs)
    prior = prior_rollout(params, batch, batch.pack(noise)).data
    tracemalloc.start()
    try:
        with Tape() as tape:
            _, target = combined_objective(params, batch, noise, 0.1, prior)
        forward_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        grads = backward(tape, target)
        walk_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walk_peak <= 1.6 * forward_peak
    again = backward(tape, target)  # rebuilds the dropped scan aux too
    assert grads.keys() == again.keys()
    assert all(np.array_equal(grads[k], again[k]) for k in grads)


def test_untaped_filter_keeps_no_step_blocks():
    """An untaped scan drops each run's step blocks once the run is
    done, for no backward will read them.  filter_means on the default
    spec over 20 units of 10, 20, ..., 200 cycles (2,100 rows in 20
    runs) peaks at 3.4 times the bytes of the summaries and means it
    returns; keeping every run's blocks until the scan returns peaks at
    6.4 times.  numpy reports its buffers to tracemalloc."""
    spec = NetworkSpec(n_x=14, n_u=2)
    params = init_params(spec, markovian=False, seed=0)
    trajs = ragged(spec, [10 * (k + 1) for k in range(20)], seed=1)
    tracemalloc.start()
    try:
        states, means = filter_means(params, Batch(trajs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * (states.nbytes + means.nbytes)


@pytest.mark.parametrize("markovian", [False, True])
def test_fit_recognition_tape_is_independent_of_length(markovian, monkeypatch):
    """One fit_recognition step tapes as many nodes for 20 cycles as for 5."""
    import avfp.training as training

    sizes = []

    def counting_backward(tape, loss):
        sizes.append(len(tape))
        return backward(tape, loss)

    monkeypatch.setattr(training, "backward", counting_backward)
    spec = small_spec()
    for T in (5, 20):
        params = init_params(spec, markovian, seed=2)
        training.fit_recognition(params, ragged(spec, (T,)), steps=1)
    assert len(sizes) == 2 and sizes[0] == sizes[1]


@pytest.mark.parametrize("markovian, most", [(True, 8), (False, 10)])
def test_fit_recognition_step_tapes_few_nodes(markovian, most, monkeypatch):
    """One fit_recognition step of the bound audit's model (linear heads)
    and of small_spec (hidden heads) tapes the recognition scan, one
    gauss_bound node, the bound's sum (a sum along the rows and a matmul
    with [1, -1]) and its sign, 5 op nodes; history mode adds the prior's
    summary scan and the z_prev slice it reads, 7."""
    import avfp.training as training
    from avfp.data import random_linear_gaussian_instance
    from avfp.model import linear_gaussian_model

    counts = []

    def counting_backward(tape, loss):
        counts.append(sum(op != "leaf" for op in tape.ops))
        return backward(tape, loss)

    monkeypatch.setattr(training, "backward", counting_backward)
    lg, _ = random_linear_gaussian_instance(0)
    for params in (linear_gaussian_model(lg, markovian=markovian),
                   init_params(small_spec(), markovian, seed=2)):
        trajs = ragged(params.spec, (18,))
        training.fit_recognition(params, trajs, steps=1)
    assert len(counts) == 2 and max(counts) <= most, counts
