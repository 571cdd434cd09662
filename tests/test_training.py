"""Optimizer, minimax loop, checkpointing, and the toy adversarial game."""

import hashlib
import os
import struct
import warnings
from dataclasses import fields, replace
from functools import cached_property

import numpy as np
import pytest

from avfp import diffcore as dc
from avfp.data import (
    LinearGaussianSpec,
    gen_linear_gaussian,
    kalman_loglik,
    random_linear_gaussian_instance,
)
from avfp.diffcore import Tape, Tensor, backward
from avfp.model import (
    NetworkSpec,
    init_params,
    linear_gaussian_model,
)
from avfp import rng
from avfp.objectives import (
    Batch,
    combined_objective,
    filter_means,
    prior_rollout,
    sequence_elbo,
)
from avfp import training
from conftest import lg_bound_rows
from avfp.training import (
    ADAM_BETA1,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    ADAM_BETA2,
    ADAM_EPS,
    GRADIENT_CLIP_NORM,
    BoundAuditRow,
    OptimizerState,
    TrainConfig,
    TrainingAborted,
    _checkpoint_table,
    _pack_entry,
    adam_step,
    clip_by_global_norm,
    fit_recognition,
    load_checkpoint,
    mc_elbo,
    predict_sequence_rul,
    readout_loss,
    rmse_per_cycle,
    save_checkpoint,
    train,
    train_toy_gan,
)


def small_spec(n_x=3, n_u=1):
    return NetworkSpec(n_x=n_x, n_u=n_u, n_z=2, n_h=8, enc_hidden=8,
                       dec_hidden=8, prior_hidden=8, rul_hidden=8,
                       disc_hidden=8)


def toy_lg():
    return LinearGaussianSpec(
        A=[[0.9, 0.1], [0.0, 0.8]],
        C=[[1.0, 0.0], [0.5, 1.0], [0.0, 1.0]],
        q_diag=[0.2, 0.2], r_diag=[0.1, 0.1, 0.1],
        init_mean=np.zeros(2), init_cov=np.eye(2),
    )


def toy_trajs(n=8, T=15, rul=False):
    out = []
    for s in range(n):
        tr = gen_linear_gaussian(toy_lg(), T, seed=s)
        tr.unit_id = s + 1
        if rul:
            tr.rul = np.arange(T - 1, -1, -1, dtype=float)
        out.append(tr)
    return out


def quick_config(**kw):
    base = dict(seed=0, epochs=2, trajectories_per_batch=2, lambda_adv=0.0,
                rul_supervision=False, val_frac=0.0, eval_every=0)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# optimizer


def reference_adam(params, grad_fn, lr, beta1, beta2, eps, steps):
    """Straight transcription of the published update, as the oracle."""
    p = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(val) for k, val in params.items()}
    for t in range(1, steps + 1):
        g = grad_fn(p)
        for k in p:
            m[k] = beta1 * m[k] + (1 - beta1) * g[k]
            v[k] = beta2 * v[k] + (1 - beta2) * g[k] ** 2
            mhat = m[k] / (1 - beta1 ** t)
            vhat = v[k] / (1 - beta2 ** t)
            p[k] = p[k] - lr * mhat / (np.sqrt(vhat) + eps)
    return p


def test_adam_first_step_is_signed_learning_rate():
    group = {"w": Tensor(np.array([1.0, -2.0]))}
    st = OptimizerState(lr=1e-3)
    ok = adam_step(group, {"w": np.array([0.5, -3.0])}, st)
    assert ok and st.t == 1
    # bias correction makes the first update -lr * g/|g| up to eps rounding
    assert group["w"].data == pytest.approx([1.0 - 1e-3, -2.0 + 1e-3], abs=1e-9)


def test_adam_matches_reference_over_many_steps():
    init = {"a": np.array([1.0, -1.0, 2.0]), "b": np.array(0.5)}

    def grad_fn(p):
        return {"a": 2.0 * p["a"], "b": np.asarray(2.0 * p["b"] - 1.0)}

    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    want = reference_adam(init, grad_fn, lr, b1, b2, eps, steps=25)

    group = {k: Tensor(v.copy()) for k, v in init.items()}
    st = OptimizerState(lr=lr)
    for _ in range(25):
        cur = {k: t.data for k, t in group.items()}
        adam_step(group, grad_fn(cur), st)
    for k in init:
        assert group[k].data == pytest.approx(want[k], abs=1e-12)


def test_adam_zero_gradient_moves_nothing_but_counts():
    group = {"w": Tensor(np.array([3.0, 4.0]))}
    st = OptimizerState(lr=0.1)
    assert adam_step(group, {"w": np.zeros(2)}, st)
    assert st.t == 1 and st.skipped == 0
    assert np.array_equal(group["w"].data, [3.0, 4.0])


def test_adam_name_and_shape_mismatch_rejected():
    group = {"w": Tensor(np.zeros(2)), "b": Tensor(np.zeros(()))}
    st = OptimizerState(lr=0.1)
    with pytest.raises(ValueError, match="mismatch"):
        adam_step(group, {"w": np.zeros(2)}, st)
    with pytest.raises(ValueError, match="mismatch"):
        adam_step(group, {"w": np.zeros(2), "b": np.zeros(()), "x": np.zeros(1)}, st)
    with pytest.raises(ValueError, match="shape"):
        adam_step(group, {"w": np.zeros(3), "b": np.zeros(())}, st)


def test_adam_nonfinite_gradient_skips_step():
    group = {"w": Tensor(np.array([1.0, 2.0]))}
    st = OptimizerState(lr=0.1)
    ok = adam_step(group, {"w": np.array([np.nan, 0.0])}, st)
    assert not ok
    assert st.skipped == 1 and st.t == 0
    assert np.array_equal(group["w"].data, [1.0, 2.0])
    ok = adam_step(group, {"w": np.array([np.inf, 0.0])}, st)
    assert not ok and st.skipped == 2


def test_clip_rescales_to_exact_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
    clipped, norm = clip_by_global_norm(grads, 1.0)
    assert norm == pytest.approx(5.0, abs=1e-12)
    total = sum(float((g * g).sum()) for g in clipped.values())
    assert np.sqrt(total) == pytest.approx(1.0, abs=1e-12)
    # direction preserved: same ratios
    assert clipped["a"][0] / clipped["b"][1] == pytest.approx(0.75, abs=1e-12)


def test_clip_below_threshold_is_identity():
    grads = {"a": np.array([0.3, -0.4])}
    clipped, norm = clip_by_global_norm(grads, 5.0)
    assert norm == pytest.approx(0.5, abs=1e-12)
    assert np.array_equal(clipped["a"], grads["a"])


def test_clip_measures_finite_gradients_whose_squares_overflow():
    grads = {"a": np.array([1e200, 1.0]), "b": np.array([3.0])}
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no overflow warning either
        clipped, norm = clip_by_global_norm(grads, 5.0)
    assert norm == pytest.approx(1e200, rel=1e-12)
    flat = np.concatenate(list(clipped.values()))
    assert np.linalg.norm(flat) == pytest.approx(5.0, rel=1e-12)
    want = np.array([1e200, 1.0, 3.0])
    assert flat / np.linalg.norm(flat) == pytest.approx(want / 1e200, rel=1e-12)
    group = {k: Tensor(np.zeros_like(g)) for k, g in grads.items()}
    st = OptimizerState(lr=0.1)
    assert adam_step(group, clipped, st) and st.skipped == 0
    assert group["b"].data[0] < 0.0 < st.m["b"][0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clip_leaves_a_non_finite_gradient_to_a_skipped_step(bad):
    """The clip passes a non-finite set on unscaled, and neither it nor
    Adam warns."""
    grads = {"a": np.array([1e200, bad]), "b": np.array([3.0])}
    group = {k: Tensor(np.ones_like(g)) for k, g in grads.items()}
    st = OptimizerState(lr=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clipped = clip_by_global_norm(grads, 5.0)[0]
        assert not adam_step(group, clipped, st)
    assert all(c is grads[k] for k, c in clipped.items())
    assert st.skipped == 1 and st.t == 0
    assert all(np.array_equal(p.data, np.ones_like(p.data))
               for p in group.values())


def per_tensor_adam_step(group, grads, state):
    """The update one tensor at a time, as Adam ran before groups were
    packed flat; the flat update must give its bits."""
    if not all(np.all(np.isfinite(g)) for g in grads.values()):
        state.skipped += 1
        return False
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in group.items():
        g = grads[name]
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return True


def per_tensor_clip(grads, max_norm):
    """The clip as it ran beside the per-tensor update."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if norm <= max_norm or norm == 0.0:
        return grads, norm
    scale = max_norm / norm
    return {k: g * scale for k, g in grads.items()}, norm


SHAPES = {"W": (5, 3), "b": (5,), "s": (), "U": (2, 7), "c": (1,)}


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_clip_of_a_normal_group_keeps_the_plain_formula_bits():
    draw = np.random.default_rng(3)
    for scale in (0.01, 1.0, 100.0):
        grads = {k: scale * draw.standard_normal(s) for k, s in SHAPES.items()}
        clipped, norm = clip_by_global_norm(grads, GRADIENT_CLIP_NORM)
        ref, ref_norm = per_tensor_clip(grads, GRADIENT_CLIP_NORM)
        assert norm == ref_norm
        assert all(same_bits(clipped[k], ref[k]) for k in grads)


def flat_and_per_tensor_runs(steps=60, lr=1e-2):
    """The same gradient sequence through the flat and the per-tensor
    update, yielding both sides after every step.  Every third step's
    gradients are scaled past the clip norm; step 7 carries a NaN."""
    draw = np.random.default_rng(11)
    init = {k: draw.standard_normal(s) for k, s in SHAPES.items()}
    flat = ({k: Tensor(v.copy()) for k, v in init.items()}, OptimizerState(lr))
    ref = ({k: Tensor(v.copy()) for k, v in init.items()}, OptimizerState(lr))
    for step in range(1, steps + 1):
        scale = 10.0 if step % 3 == 0 else 0.3
        grads = {k: scale * draw.standard_normal(s) for k, s in SHAPES.items()}
        if step == 7:
            grads["b"][2] = np.nan
        clipped, norm = clip_by_global_norm(grads, GRADIENT_CLIP_NORM)
        ref_clipped, ref_norm = per_tensor_clip(
            {k: g.copy() for k, g in grads.items()}, GRADIENT_CLIP_NORM)
        applied = adam_step(flat[0], clipped, flat[1])
        ref_applied = per_tensor_adam_step(ref[0], ref_clipped, ref[1])
        yield step, (applied, norm, *flat), (ref_applied, ref_norm, *ref)


def test_flat_adam_matches_per_tensor_update_bit_for_bit():
    clipped_steps = 0
    for step, (ok, norm, group, st), (ref_ok, ref_norm, ref_group, ref_st) \
            in flat_and_per_tensor_runs():
        assert ok == ref_ok == (step != 7)
        assert np.isnan(norm) == np.isnan(ref_norm)
        if not np.isnan(norm):
            assert norm == ref_norm
            clipped_steps += norm > GRADIENT_CLIP_NORM
        assert (st.t, st.skipped) == (ref_st.t, ref_st.skipped)
        for k in SHAPES:
            assert same_bits(group[k].data, ref_group[k].data), (step, k)
            assert same_bits(st.m[k], ref_st.m[k]), (step, k)
            assert same_bits(st.v[k], ref_st.v[k]), (step, k)
    assert st.skipped == 1 and clipped_steps == 20


def test_flat_adam_group_shares_one_buffer_per_array_kind():
    group = {k: Tensor(np.ones(s)) for k, s in SHAPES.items()}
    st = OptimizerState(lr=0.1)
    adam_step(group, {k: np.ones(s) for k, s in SHAPES.items()}, st)
    for arrays in ([t.data for t in group.values()], list(st.m.values()),
                   list(st.v.values())):
        base = arrays[0].base
        assert base is not None and all(a.base is base for a in arrays)
        assert all(a.flags["C_CONTIGUOUS"] for a in arrays)
    assert [a.shape for a in st.m.values()] == list(SHAPES.values())
    assert group["W"].data.base is not st.m["W"].base


def test_flat_adam_repacks_a_rebound_tensor():
    group = {"w": Tensor(np.zeros(2)), "b": Tensor(np.zeros(()))}
    st = OptimizerState(lr=0.1)
    grads = {"w": np.ones(2), "b": np.ones(())}
    adam_step(group, grads, st)
    group["w"].data = np.array([5.0, 5.0])    # no longer a view of the pack
    adam_step(group, grads, st)
    assert group["w"].data == pytest.approx([4.9, 4.9], abs=1e-6)
    assert group["b"].data == pytest.approx(-0.2, abs=1e-6)
    assert group["w"].data.base is group["b"].data.base is not None
    st.m = {"w": np.zeros((1, 2))}
    with pytest.raises(ValueError, match="moment shapes"):
        adam_step(group, grads, st)


def test_flat_adam_resumes_from_saved_moment_dicts():
    """A state rebuilt from copies of m and v, as a checkpoint restores
    it, continues the run bit for bit."""
    draw = np.random.default_rng(5)
    grad_seq = [{k: draw.standard_normal(s) for k, s in SHAPES.items()}
                for _ in range(30)]
    init = {k: np.full(s, 0.5) for k, s in SHAPES.items()}

    def run(group, st, seq):
        for grads in seq:
            adam_step(group, clip_by_global_norm(grads, GRADIENT_CLIP_NORM)[0],
                      st)

    whole = {k: Tensor(v.copy()) for k, v in init.items()}
    whole_st = OptimizerState(lr=1e-2)
    run(whole, whole_st, grad_seq)

    part = {k: Tensor(v.copy()) for k, v in init.items()}
    part_st = OptimizerState(lr=1e-2)
    run(part, part_st, grad_seq[:13])
    saved = {"t": part_st.t, "skipped": part_st.skipped,
             "m": {k: a.copy() for k, a in part_st.m.items()},
             "v": {k: a.copy() for k, a in part_st.v.items()}}
    resumed = {k: Tensor(t.data.copy()) for k, t in part.items()}
    resumed_st = OptimizerState(1e-2, **saved)
    run(resumed, resumed_st, grad_seq[13:])
    assert resumed_st.t == whole_st.t == 30
    for k in SHAPES:
        assert same_bits(resumed[k].data, whole[k].data)
        assert same_bits(resumed_st.m[k], whole_st.m[k])
        assert same_bits(resumed_st.v[k], whole_st.v[k])


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(lambda_adv=-0.1)
    for bad in (dict(lr=np.nan), dict(lr=np.inf), dict(lambda_adv=np.nan),
                dict(lambda_adv=np.inf)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainConfig(**bad)
    TrainConfig(epochs=0)  # a no-op run is a valid request


def test_only_the_varied_settings_are_configurable():
    """Adam's constants and the clip norm are fixed; one discriminator
    step per batch and the full KL term are not switches either."""
    assert [f.name for f in fields(TrainConfig)] == [
        "seed", "epochs", "trajectories_per_batch", "lr", "lambda_adv",
        "markovian", "rul_supervision", "eval_every", "val_frac", "rul_cap"]
    assert [f.name for f in fields(OptimizerState)] == [
        "lr", "t", "skipped", "m", "v"]
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)
    assert GRADIENT_CLIP_NORM == 5.0


# ---------------------------------------------------------------------------
# training loop behavior


def test_zero_epochs_returns_initial_params_and_empty_trace():
    trajs = toy_trajs(4)
    spec = small_spec()
    res = train(trajs, spec, quick_config(epochs=0))
    from avfp.model import init_params

    ref = init_params(spec, markovian=False, seed=0)
    assert res.steps == [] and res.evals == []
    for name, t in ref.named().items():
        assert np.array_equal(res.params.named()[name].data, t.data)


def test_same_seed_runs_are_bit_identical():
    trajs = toy_trajs(4)
    spec = small_spec()
    cfg = quick_config(epochs=3, lambda_adv=0.1)
    a = train(trajs, spec, cfg)
    b = train(trajs, spec, cfg)
    for name, t in a.params.named().items():
        assert np.array_equal(t.data, b.params.named()[name].data), name
    assert [s.combined for s in a.steps] == [s.combined for s in b.steps]


def test_different_seed_changes_the_run():
    trajs = toy_trajs(4)
    spec = small_spec()
    a = train(trajs, spec, quick_config(epochs=1))
    b = train(trajs, spec, quick_config(epochs=1, seed=1))
    assert any(
        not np.array_equal(t.data, b.params.named()[n].data)
        for n, t in a.params.named().items()
    )


def test_objective_trace_improves_under_50_step_smoothing():
    # non-overlapping 50-step windows of the per-step objective must be
    # non-decreasing for a run on easy linear-Gaussian data at seed 0
    trajs = toy_trajs(8)
    cfg = quick_config(epochs=75)
    res = train(trajs, small_spec(), cfg)
    trace = np.array([s.combined for s in res.steps])
    assert len(trace) == 300
    blocks = trace.reshape(-1, 50).mean(axis=1)
    assert np.all(np.diff(blocks) >= 0.0), blocks
    assert blocks[-1] > blocks[0] + 1.0


def test_supervised_run_tracks_validation_best():
    trajs = toy_trajs(10, rul=True)
    cfg = quick_config(epochs=4, rul_supervision=True, val_frac=0.2,
                       eval_every=5)
    res = train(trajs, small_spec(), cfg)
    assert res.evals and all(e.val_rmse is not None for e in res.evals)
    best = min(res.evals, key=lambda e: e.val_rmse)
    assert res.best_val_rmse == best.val_rmse
    assert res.best_step == best.step
    assert any(s.rul_loss is not None for s in res.steps)


def test_unsupervised_run_has_no_validation_scores():
    trajs = toy_trajs(4)
    res = train(trajs, small_spec(), quick_config(epochs=1, eval_every=1))
    assert res.evals and all(e.val_rmse is None for e in res.evals)
    assert res.best_val_rmse is None and res.best_step is None
    assert all(s.rul_loss is None for s in res.steps)


def test_adversarial_bookkeeping_per_lambda():
    trajs = toy_trajs(4)
    on = train(trajs, small_spec(), quick_config(epochs=1, lambda_adv=0.1))
    assert all(s.disc_loss is not None for s in on.steps)
    assert all(s.adv_gen > 0.0 for s in on.steps)
    off = train(trajs, small_spec(), quick_config(epochs=1))
    assert all(s.disc_loss is None for s in off.steps)
    assert all(s.adv_gen == 0.0 and s.adv_disc == 0.0 for s in off.steps)


# ---------------------------------------------------------------------------
# prediction helpers


def test_predict_sequence_rul_shape_and_sign():
    trajs = toy_trajs(1, T=12)
    res = train(trajs, small_spec(), quick_config(epochs=1,
                                                  trajectories_per_batch=1))
    (pred,) = predict_sequence_rul(res.params, trajs)
    assert pred.shape == (12,)
    assert np.all(pred >= 0.0)  # soft-plus readout cannot go negative


def test_readout_loss_matches_per_row_reference():
    # a ragged batch; the reference applies the readout one row at a time
    trajs = []
    for s, T in enumerate((5, 9, 7)):
        tr = gen_linear_gaussian(toy_lg(), T, seed=10 + s)
        tr.rul = np.arange(T - 1, -1, -1, dtype=float) * 3.0
        trajs.append(tr)
    params = init_params(small_spec(), markovian=False, seed=5)
    batch = Batch(trajs)
    with Tape() as tape:
        loss = readout_loss(params, batch, batch.pack([t.rul for t in trajs]))
    grads = backward(tape, loss)
    assert len(tape) <= 20
    with Tape() as one:
        readout_loss(params, Batch(trajs[:1]), trajs[0].rul)
    assert len(one) == len(tape)  # independent of the row count

    rho = params.rho
    with Tape() as tape:
        sq, n_rows = None, sum(t.length for t in trajs)
        for tr in trajs:
            states, means = filter_means(params, Batch([tr]))
            for row, target in zip(np.hstack([states, means]), tr.rul):
                hidden = dc.tanh(dc.affine(rho["l1.W"], dc.constant(row[None]),
                                           rho["l1.b"]))  # a (1, d) row
                pred = dc.softplus(dc.affine(rho["out.w"], hidden, rho["out.b"]))
                err = (pred - target).sum()
                sq = err * err if sq is None else sq + err * err
        ref = sq * (1.0 / n_rows)
    ref_grads = backward(tape, ref)

    assert abs(loss.item() - ref.item()) <= 1e-12 * abs(ref.item())
    assert set(grads) == {p.uid for p in rho.values()}
    for name, p in rho.items():
        scale = np.abs(ref_grads[p.uid]).max()
        assert np.abs(grads[p.uid] - ref_grads[p.uid]).max() <= 1e-12 * scale, name


def test_rmse_per_cycle_matches_manual_computation():
    trajs = toy_trajs(2, T=6, rul=True)
    res = train(trajs, small_spec(), quick_config(epochs=1))
    preds = predict_sequence_rul(res.params, trajs)
    manual = np.sqrt(
        np.mean(np.concatenate([(p - t.rul) ** 2 for p, t in zip(preds, trajs)]))
    )
    assert rmse_per_cycle(res.params, trajs) == pytest.approx(manual, abs=1e-12)


def test_rmse_requires_targets():
    trajs = toy_trajs(1, T=5)
    res = train(trajs, small_spec(), quick_config(
        epochs=1, trajectories_per_batch=1))
    with pytest.raises(ValueError, match="no targets"):
        rmse_per_cycle(res.params, trajs)


# ---------------------------------------------------------------------------
# checkpoint codec


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    trajs = toy_trajs(4, rul=True)
    cfg = quick_config(epochs=2, rul_supervision=True, val_frac=0.25,
                       eval_every=2, lambda_adv=0.05)
    res = train(trajs, small_spec(), cfg)
    path = str(tmp_path / "run.ckpt")
    save_checkpoint(res.checkpoint, path)
    back = load_checkpoint(path)

    assert back.spec == res.checkpoint.spec
    assert back.config == res.checkpoint.config
    assert back.step == res.checkpoint.step
    assert back.epoch == res.checkpoint.epoch
    assert back.batch_idx == res.checkpoint.batch_idx
    assert back.skipped_batches == res.checkpoint.skipped_batches
    assert back.best_step == res.checkpoint.best_step
    assert set(back.params) == set(res.checkpoint.params)
    for name, arr in res.checkpoint.params.items():
        got = back.params[name]
        assert got.shape == arr.shape, name  # 0-d arrays stay 0-d
        assert np.array_equal(got, arr), name
    for grp in ("gen", "disc", "rul"):
        a, b = res.checkpoint.opt[grp], back.opt[grp]
        assert a["t"] == b["t"] and a["skipped"] == b["skipped"]
        for k in a["m"]:
            assert np.array_equal(a["m"][k], b["m"][k])
            assert np.array_equal(a["v"][k], b["v"][k])


def test_checkpoint_write_failure_keeps_previous_file(tmp_path, monkeypatch):
    res = train(toy_trajs(2), small_spec(), quick_config(epochs=1))
    path = tmp_path / "run.ckpt"
    save_checkpoint(res.checkpoint, str(path))
    before = path.read_bytes()

    real_open = open

    class FailsMidWrite:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, b):
            self.f.write(b[: len(b) // 2])
            raise OSError("no space left on device")

    def failing_open(file, mode="r", *a, **kw):
        f = real_open(file, mode, *a, **kw)
        return FailsMidWrite(f) if "w" in mode else f

    newer = replace(res.checkpoint, step=res.checkpoint.step + 1)
    monkeypatch.setattr("builtins.open", failing_open)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(newer, str(path))
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["run.ckpt"]
    save_checkpoint(newer, str(path))
    assert load_checkpoint(str(path)).step == newer.step


def test_checkpoint_rejects_corruption(tmp_path):
    trajs = toy_trajs(2)
    res = train(trajs, small_spec(), quick_config(epochs=1))
    path = str(tmp_path / "run.ckpt")
    save_checkpoint(res.checkpoint, path)
    blob = open(path, "rb").read()

    bad = str(tmp_path / "bad.ckpt")
    with open(bad, "wb") as f:
        f.write(b"NOPE" + blob[4:])
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(bad)

    with open(bad, "wb") as f:
        f.write(blob[:4] + b"\x63\x00\x00\x00" + blob[8:])
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(bad)

    flipped = bytearray(blob)
    flipped[len(blob) // 2] ^= 0xFF
    with open(bad, "wb") as f:
        f.write(bytes(flipped))
    with pytest.raises(ValueError, match="checksum"):
        load_checkpoint(bad)

    with open(bad, "wb") as f:
        f.write(blob[:-20])
    with pytest.raises(ValueError):
        load_checkpoint(bad)


def test_resume_matches_uninterrupted_run():
    trajs = toy_trajs(4, rul=True)
    spec = small_spec()
    cfg = quick_config(epochs=3, rul_supervision=True, val_frac=0.25,
                       eval_every=2, lambda_adv=0.1)
    full = train(trajs, spec, cfg)
    half = train(trajs, spec, cfg, stop_after_steps=3)
    assert half.checkpoint.step == 3
    rest = train(trajs, spec, cfg, resume=half.checkpoint)
    assert rest.checkpoint.step == full.checkpoint.step
    for name, t in full.params.named().items():
        assert np.array_equal(t.data, rest.params.named()[name].data), name


@pytest.mark.parametrize("markovian", [False, True])
def test_resumed_checkpoint_bytes_equal_uninterrupted_run(tmp_path, markovian):
    trajs = toy_trajs(6, rul=True)
    spec = small_spec()
    cfg = quick_config(epochs=3, rul_supervision=True, val_frac=0.2,
                       eval_every=2, lambda_adv=0.1, markovian=markovian)

    def saved(ckpt, name):
        path = str(tmp_path / name)
        save_checkpoint(ckpt, path)
        return path

    run = train(trajs, spec, cfg)
    with open(saved(run.checkpoint, "full.ckpt"), "rb") as f:
        full = f.read()
    # mid-epoch, at the epoch end, in the next epoch, and at the last step,
    # whose zero-step resume still scores the final state
    for k in (1, 3, 4, run.checkpoint.step):
        half = train(trajs, spec, cfg, stop_after_steps=k)
        loaded = load_checkpoint(saved(half.checkpoint, f"half{k}.ckpt"))
        for attempt in range(2):  # the same record resumes the same run
            rest = train(trajs, spec, cfg, resume=loaded)
            with open(saved(rest.checkpoint, "rest.ckpt"), "rb") as f:
                assert f.read() == full, (k, attempt)


def test_run_steps_yields_every_step_then_the_end(tmp_path):
    """One yield per step and one more after the final eval; a checkpoint
    saved at any yield resumes through train to the uninterrupted run's
    bytes."""
    trajs = toy_trajs(6, rul=True)
    spec = small_spec()
    cfg = quick_config(epochs=3, rul_supervision=True, val_frac=0.2,
                       eval_every=2, lambda_adv=0.1)
    path = tmp_path / "step.ckpt"

    def saved(ckpt) -> bytes:
        save_checkpoint(ckpt, str(path))
        return path.read_bytes()

    blobs = [(res.checkpoint.step, saved(res.checkpoint))
             for res in training.run_steps(trajs, spec, cfg)]
    n, full = blobs[-1]
    assert n % 2 and [k for k, _ in blobs] == [*range(1, n + 1), n]
    assert blobs[-2][1] != full   # the final eval moved the best score
    assert saved(train(trajs, spec, cfg).checkpoint) == full
    for k, blob in blobs:
        path.write_bytes(blob)
        rest = train(trajs, spec, cfg, resume=load_checkpoint(str(path)))
        assert saved(rest.checkpoint) == full, k


def _write_table(table: dict, path) -> None:
    body = struct.pack("<Q", len(table)) + b"".join(
        _pack_entry(name, table[name]) for name in sorted(table))
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION)
                + body + hashlib.sha256(body).digest()[:8])


def test_checkpoint_with_retired_config_entries_resumes_alike(tmp_path):
    """Older checkpoints also hold Adam's constants, the clip norm, the
    discriminator step count and the KL warm-up length under config/;
    loading ignores them, so such a record resumes the same run."""
    trajs = toy_trajs(4, rul=True)
    spec = small_spec()
    cfg = quick_config(epochs=3, rul_supervision=True, val_frac=0.25,
                       eval_every=2, lambda_adv=0.1)
    half = train(trajs, spec, cfg, stop_after_steps=3).checkpoint
    table = _checkpoint_table(half)
    _write_table(table, tmp_path / "new.ckpt")
    _write_table({**table, "config/beta1": 0.9, "config/beta2": 0.999,
                  "config/eps": 1e-8, "config/disc_steps": 1,
                  "config/gradient_clip_norm": 5.0,
                  "config/kl_warmup_steps": 0}, tmp_path / "old.ckpt")
    outputs = []
    for name in ("new", "old"):
        loaded = load_checkpoint(str(tmp_path / f"{name}.ckpt"))
        assert loaded.config == cfg
        rest = train(trajs, spec, cfg, resume=loaded)
        save_checkpoint(rest.checkpoint, str(tmp_path / f"{name}-rest.ckpt"))
        outputs.append((tmp_path / f"{name}-rest.ckpt").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("entry,value", [
    ("config/markovian", 2.0), ("meta/step", float("nan")),
    ("spec/n_z", 2.5), ("opt/gen/t", 1.5), ("opt/rul/skipped", 0.5)])
def test_checkpoint_rejects_mistyped_entries(tmp_path, entry, value):
    res = train(toy_trajs(2), small_spec(), quick_config(epochs=1))
    table = _checkpoint_table(res.checkpoint)
    table[entry] = value
    _write_table(table, tmp_path / "bad.ckpt")
    with pytest.raises(ValueError, match=f"checkpoint entry {entry} must be"):
        load_checkpoint(str(tmp_path / "bad.ckpt"))


def test_resume_requires_matching_setup():
    trajs = toy_trajs(4)
    cfg = quick_config(epochs=1)
    res = train(trajs, small_spec(), cfg, stop_after_steps=1)
    with pytest.raises(ValueError, match="different setup"):
        train(trajs, small_spec(n_x=3, n_u=2), cfg, resume=res.checkpoint)
    with pytest.raises(ValueError, match="different setup"):
        train(trajs, small_spec(), quick_config(epochs=5), resume=res.checkpoint)


def test_streak_of_nonfinite_batches_aborts():
    trajs = toy_trajs(4)
    spec = small_spec()
    cfg = quick_config(epochs=30)
    seeded = train(trajs, spec, cfg, stop_after_steps=1)
    poisoned = seeded.checkpoint
    # finite parameters whose forward pass overflows: the emission mean
    # explodes, the squared residual in the density goes to inf, and the
    # batch is skipped; nothing ever repairs it, so the streak aborts
    name = next(k for k in poisoned.params if "dec" in k and k.endswith("Wm"))
    poisoned.params[name] = np.full_like(poisoned.params[name], 1e155)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingAborted, match="consecutive non-finite"):
            train(trajs, spec, cfg, resume=poisoned)


def _nan_gradients(monkeypatch):
    real = training.backward
    monkeypatch.setattr(training, "backward", lambda tape, loss: {
        uid: np.full_like(g, np.nan) for uid, g in real(tape, loss).items()})


def test_nonfinite_gradients_skip_the_batch(monkeypatch):
    """A phase-2 step whose loss is finite but whose gradients are not
    moves nothing, logs no trace row and counts as a skipped batch."""
    _nan_gradients(monkeypatch)
    trajs, spec = toy_trajs(4, T=6), small_spec()
    res = train(trajs, spec, quick_config(epochs=2, lambda_adv=0.1))
    assert res.steps == [] and res.skipped_batches == 4
    assert res.checkpoint.consecutive_skips == 4
    assert res.checkpoint.opt["gen"]["t"] == 0
    ref = init_params(spec, markovian=False, seed=0)
    for name, t in ref.named().items():
        assert np.array_equal(res.params.named()[name].data, t.data), name


def test_nonfinite_losses_count_in_their_groups(monkeypatch):
    """A step whose loss goes non-finite moves nothing and counts in its
    Adam group's skipped count, in phase 2 as in phase 3; a phase-2
    batch also counts as a skipped batch."""
    trajs = toy_trajs(4, T=6, rul=True)
    for name, group in (("combined_objective", "gen"), ("readout_loss", "rul")):
        real, calls = getattr(training, name), []

        def second_call_raises(*a, real=real, calls=calls, **kw):
            calls.append(1)
            if len(calls) == 2:
                raise dc.NonFiniteError(f"non-finite result in {name}")
            return real(*a, **kw)

        with monkeypatch.context() as m:
            m.setattr(training, name, second_call_raises)
            res = train(trajs, small_spec(),
                        quick_config(epochs=2, rul_supervision=True))
        assert len(calls) == 4, name
        skipped = {g: o["skipped"] for g, o in res.checkpoint.opt.items()}
        assert skipped == {"gen": int(group == "gen"), "disc": 0,
                           "rul": int(group == "rul")}, name
        assert res.skipped_batches == int(group == "gen"), name


@pytest.mark.parametrize("lambda_adv", [0.0, 0.1])
@pytest.mark.parametrize("markovian", [False, True])
def test_training_step_scan_counts(markovian, lambda_adv, monkeypatch):
    """One supervised step runs these scans: phase 1 (lambda_adv > 0) the
    recognition filter and one prior rollout that draws both its real
    rows and phase 2's reference; phase 2 the recognition scan and, in
    history mode, the prior's summary scan, both taped and walked back;
    phase 3 the readout's filter."""
    fwd, vjp = dc._OPS["latent_scan"]
    calls = {"forward": 0, "backward": 0}

    def counted(kind, fn):
        def wrapper(*a, **kw):
            calls[kind] += 1
            return fn(*a, **kw)
        return wrapper

    monkeypatch.setitem(dc._OPS, "latent_scan", (counted("forward", fwd),
                                                 counted("backward", vjp)))
    cfg = quick_config(markovian=markovian, lambda_adv=lambda_adv,
                       rul_supervision=True)
    train(toy_trajs(4, T=6, rul=True), small_spec(), cfg, stop_after_steps=1)
    history = not markovian
    assert calls == {"forward": 2 * (lambda_adv > 0) + 2 + history,
                     "backward": 1 + history}


def test_training_step_builds_one_batch(monkeypatch):
    """One supervised step at lambda_adv > 0 packs its trajectories once:
    the three phases read the same Batch, and its pool is built once."""
    built, pools = [], []
    init, pool = Batch.__init__, Batch.pool.func

    def counted_init(self, trajs):
        built.append(len(trajs))
        init(self, trajs)

    def counted_pool(self):
        pools.append(self)
        return pool(self)

    monkeypatch.setattr(Batch, "__init__", counted_init)
    monkeypatch.setattr(Batch, "pool", cached_property(counted_pool))
    Batch.pool.__set_name__(Batch, "pool")
    cfg = quick_config(lambda_adv=0.1, rul_supervision=True)
    res = train(toy_trajs(4, T=6, rul=True), small_spec(), cfg,
                stop_after_steps=1)
    assert res.steps[0].rul_loss is not None and res.steps[0].disc_loss
    assert built == [2] and len(pools) == 1


@pytest.mark.parametrize("markovian", [False, True])
def test_overflowing_prior_rollout_skips_phases_one_and_two(markovian):
    """A finite theta whose prior rollout overflows while its bound stays
    finite: the rollout draws the rows of both phases, so the step counts
    one skip in disc, one in gen and one skipped batch, and moves no
    parameter."""
    trajs = toy_trajs(2, T=40)
    spec = replace(small_spec(), prior_hidden=0)
    cfg = quick_config(markovian=markovian, lambda_adv=0.1)
    poisoned = train(trajs, spec, cfg, stop_after_steps=1).checkpoint
    # the linear prior head scales z_prev 1e10-fold: the rollout, which
    # feeds its samples back, passes 1e308 within 40 steps, but the
    # bound's prior reads the recognition samples
    W = poisoned.params["theta.pri.Wm"]
    W[:, :spec.n_z] = 1e10 * np.eye(spec.n_z)
    params = training.params_from_checkpoint(poisoned)
    batch = Batch(trajs)
    noise = [rng.normal(0, (t.length, spec.n_z), "poison", i)
             for i, t in enumerate(trajs)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isfinite(combined_objective(params, batch, noise, 0.0)[1].item())
        with pytest.raises(dc.NonFiniteError, match="latent_scan"):
            prior_rollout(params, batch, batch.pack(noise))
        res = train(trajs, spec, cfg, resume=poisoned, stop_after_steps=2)
    assert res.checkpoint.step == 2 and res.steps == []
    skipped = {g: o["skipped"] for g, o in res.checkpoint.opt.items()}
    assert skipped == {"disc": 1, "gen": 1, "rul": 0}
    assert res.skipped_batches == 1
    for name, t in res.params.named().items():
        assert np.array_equal(t.data, poisoned.params[name]), name


def test_streak_of_nonfinite_gradients_aborts(monkeypatch):
    _nan_gradients(monkeypatch)
    cfg = TrainConfig(epochs=15, trajectories_per_batch=2, lambda_adv=0.1,
                      rul_supervision=False, eval_every=0)
    with pytest.raises(TrainingAborted,
                       match="11 consecutive non-finite batches at step 11"):
        train(toy_trajs(4, T=6), small_spec(), cfg)


# ---------------------------------------------------------------------------
# bound fitting against the exact filter


def test_fit_recognition_tightens_the_bound():
    lg = toy_lg()
    traj = gen_linear_gaussian(lg, 12, seed=3)
    exact = kalman_loglik(lg, traj.x)
    params = linear_gaussian_model(lg, enc_hidden=8, seed=3)
    before, before_se = mc_elbo(params, traj, draws=64, seed=3)
    trace = fit_recognition(params, [traj], steps=300, seed=3)
    after, after_se = mc_elbo(params, traj, draws=64, seed=4)
    assert trace[-1] > trace[0]
    assert after > before
    assert after <= exact + 3.0 * after_se  # still a lower bound
    assert (exact - after) < (exact - before)


def test_kalman_oracle_audits_the_history_path():
    """markovian=False: both history GRUs run, the heads ignore them, so
    the exact likelihood still caps the bound before and after fitting."""
    for seed in range(3):
        lg, length = random_linear_gaussian_instance(seed)
        traj = gen_linear_gaussian(lg, length, seed=seed)
        exact = kalman_loglik(lg, traj.x)
        params = linear_gaussian_model(lg, enc_hidden=8, seed=seed,
                                       markovian=False)
        assert "gru.W" in params.theta and "gru.W" in params.phi

        noise = np.random.default_rng(seed).standard_normal((length, lg.n_z))
        _, terms, scan = sequence_elbo(params, Batch([traj]), noise)
        recon, kl = lg_bound_rows(lg, traj.x, scan)
        assert np.allclose(terms.data[0], recon, atol=1e-14)
        assert np.allclose(terms.data[1], kl, atol=1e-14)

        before, before_se = mc_elbo(params, traj, draws=64, seed=seed)
        fit_recognition(params, [traj], steps=100, seed=seed)
        after, after_se = mc_elbo(params, traj, draws=64, seed=seed + 1)
        assert before <= exact + 3.0 * before_se
        assert after <= exact + 3.0 * after_se


def test_bound_audit_rows_are_pinned():
    """Rows of a short audit as the per-tensor Adam update and a fresh
    generator per noise draw computed them; the tolerance leaves room
    for BLAS rounding across machines, not for a mis-keyed noise stream
    or a reordered update."""
    want = [
        (0, 2, 1, 18, -22.713335448076773, -222.31052087698808,
         15.0301453357138, -32.58329072681236, 1.468952686216422),
        (1, 3, 1, 8, -16.58012913784346, -136.62454631742352,
         11.10277778622582, -29.17825666971745, 1.6948813594922731),
    ]
    rows = training.bound_gap_audit(n_instances=2, draws=16, fit_steps=50,
                                    seed=0)
    for row, (seed, n_z, n_x, length, *values) in zip(rows, want, strict=True):
        assert (row.seed, row.n_z, row.n_x, row.length) == (seed, n_z, n_x,
                                                            length)
        got = [row.exact, row.before_mean, row.before_se, row.after_mean,
               row.after_se]
        assert got == pytest.approx(values, rel=1e-10, abs=0.0)


def test_bound_audit_input_errors():
    traj = gen_linear_gaussian(toy_lg(), 5, seed=0)
    params = linear_gaussian_model(toy_lg(), seed=0)
    for draws in (1, 0):   # a standard error needs two draws
        with pytest.raises(ValueError, match="at least 2 draws"):
            mc_elbo(params, traj, draws=draws, seed=0)
    for kw in (dict(n_instances=0), dict(draws=1), dict(fit_steps=-5)):
        with pytest.raises(ValueError, match="a bound audit needs"):
            training.bound_gap_audit(**{"draws": 2, "fit_steps": 0, **kw})


def test_bound_audit_row_logic():
    row = BoundAuditRow(seed=0, n_z=2, n_x=2, length=10, exact=-50.0,
                        before_mean=-80.0, before_se=1.0,
                        after_mean=-52.0, after_se=0.5)
    assert row.bound_ok and row.shrunk
    assert row.gap_before == pytest.approx(30.0)
    assert row.gap_after == pytest.approx(2.0)
    above = BoundAuditRow(seed=0, n_z=2, n_x=2, length=10, exact=-50.0,
                          before_mean=-80.0, before_se=1.0,
                          after_mean=-48.0, after_se=0.5)
    assert not above.bound_ok  # estimate above exact by 4 standard errors


# ---------------------------------------------------------------------------
# toy adversarial game


def test_toy_gan_reaches_equilibrium_at_seed_zero():
    res = train_toy_gan(steps=5000, seed=0)
    assert 0.4 <= res.d_real_mean <= 0.6
    assert 0.4 <= res.d_fake_mean <= 0.6
    assert abs(res.fake_mean - 2.0) <= 0.2
    assert res.trace  # periodic probe points were recorded


def test_toy_gan_is_deterministic():
    a = train_toy_gan(steps=400, seed=5)
    b = train_toy_gan(steps=400, seed=5)
    assert a.gen_scale == b.gen_scale and a.gen_shift == b.gen_shift
    assert a.d_real_mean == b.d_real_mean and a.fake_mean == b.fake_mean
