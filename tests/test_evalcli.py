"""Prediction, scoring, experiment harness, plot data, and the CLI."""

import hashlib
import json
import math
import os
import struct
from dataclasses import replace

import numpy as np
import pytest

from avfp.data import Trajectory, gen_linear_gaussian, LinearGaussianSpec
from avfp import diffcore as dc
from avfp.diffcore import NonFiniteError
from avfp.evalcli import (
    HealthIndexMap,
    PredictionSet,
    RunRecord,
    RunSummary,
    emit_plot_data,
    fit_health_index,
    gradient_audit,
    load_config,
    load_corpus,
    main,
    match_remaining_life,
    predict_rul,
    rmse,
    run_experiment,
)
from avfp.model import NetworkSpec, init_params, rul_head
from avfp.objectives import Batch, filter_means
from avfp.training import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    TrainConfig,
    TrainingAborted,
    _checkpoint_table,
    _pack_entry,
    predict_sequence_rul,
    save_checkpoint,
    train,
)


def pset(pairs):
    ids = tuple(range(1, len(pairs) + 1))
    return PredictionSet(unit_ids=ids,
                         predicted=np.array([p for p, _ in pairs]),
                         truth=np.array([t for _, t in pairs]))


def tiny_spec(n_x, n_u):
    return NetworkSpec(n_x=n_x, n_u=n_u, n_z=2, n_h=8, enc_hidden=8,
                       dec_hidden=8, prior_hidden=8, rul_hidden=8,
                       disc_hidden=8)


def tiny_params(n_x=3, n_u=1, seed=0):
    return init_params(tiny_spec(n_x, n_u), markovian=False, seed=seed)


def rand_trajs(n, T, n_x=3, seed=0):
    lg = LinearGaussianSpec(A=np.eye(2) * 0.9, C=np.ones((n_x, 2)) * 0.5,
                            q_diag=[0.2, 0.2], r_diag=[0.1] * n_x,
                            init_mean=np.zeros(2), init_cov=np.eye(2))
    out = []
    for i in range(n):
        tr = gen_linear_gaussian(lg, T, seed=seed + i)
        tr.unit_id = i + 1
        out.append(tr)
    return out


# ---------------------------------------------------------------------------
# scoring


def test_rmse_zero_for_perfect_predictions():
    assert rmse(pset([(3.0, 3.0), (7.0, 7.0)])) == 0.0


def test_rmse_constant_offset():
    assert rmse(pset([(13.0, 3.0), (17.0, 7.0)])) == pytest.approx(10.0)


def test_rmse_two_unit_hand_case():
    assert rmse(pset([(5.0, 0.0), (0.0, 5.0)])) == pytest.approx(5.0)


def test_rmse_permutation_invariant_and_linear_in_scale():
    a = pset([(4.0, 1.0), (9.0, 2.0), (2.0, 2.0)])
    b = pset([(2.0, 2.0), (4.0, 1.0), (9.0, 2.0)])
    assert rmse(a) == pytest.approx(rmse(b))
    scaled = pset([(12.0, 3.0), (27.0, 6.0), (6.0, 6.0)])  # residuals x3
    assert rmse(scaled) == pytest.approx(3.0 * rmse(a))


def test_prediction_set_validation():
    with pytest.raises(ValueError, match="one prediction"):
        PredictionSet(unit_ids=(1, 2), predicted=np.zeros(3), truth=np.zeros(2))
    with pytest.raises(ValueError, match="duplicate"):
        PredictionSet(unit_ids=(1, 1), predicted=np.zeros(2), truth=np.zeros(2))
    with pytest.raises(ValueError, match="negative"):
        PredictionSet(unit_ids=(1,), predicted=np.array([-1.0]),
                      truth=np.array([0.0]))
    with pytest.raises(ValueError, match="empty"):
        rmse(PredictionSet(unit_ids=(), predicted=np.zeros(0),
                           truth=np.zeros(0)))


# ---------------------------------------------------------------------------
# supervised prediction


def test_supervised_constant_head_gives_constant_predictions():
    params = tiny_params()
    for t in params.rho.values():
        t.data[...] = 0.0
    trajs = rand_trajs(3, 10)
    truth = {1: 5.0, 2: 9.0, 3: 1.0}
    pred = predict_rul(params, trajs, truth)
    assert np.allclose(pred.predicted, math.log(2.0), atol=1e-12)


def test_supervised_prediction_deterministic_and_order_invariant():
    params = tiny_params(seed=4)
    trajs = rand_trajs(4, 8, seed=2)
    truth = {i: float(i) for i in range(1, 5)}
    a = predict_rul(params, trajs, truth)
    b = predict_rul(params, list(reversed(trajs)), truth)
    assert a.unit_ids == b.unit_ids == (1, 2, 3, 4)
    assert np.array_equal(a.predicted, b.predicted)


def test_supervised_prediction_is_clamped_last_cycle_readout():
    params = tiny_params(seed=7)
    params.rho["out.b"].data[...] = 3.0
    trajs = rand_trajs(6, 9, seed=5)
    last = np.array([p[-1] for p in predict_sequence_rul(params, trajs)])
    cap = float(np.median(last))
    pred = predict_rul(params, trajs, {t.unit_id: 1.0 for t in trajs}, cap=cap)
    assert np.array_equal(pred.predicted, np.minimum(last, cap))
    assert np.any(last > cap) and np.any(last < cap)


def test_supervised_readout_sees_one_row_per_unit(monkeypatch):
    """Per-unit supervised scoring runs the readout's first layer on the
    unit's last filtered row alone, not on every cycle of the unit."""
    params = tiny_params(seed=3)
    trajs = rand_trajs(3, 12, seed=1)
    truth = {t.unit_id: 1.0 for t in trajs}
    forward, vjp = dc._OPS["affine"]
    first_layer = []

    def counting(W, x, b):
        if W.shape == params.rho["l1.W"].shape:
            first_layer.append(x.shape[0])
        return forward(W, x, b)

    monkeypatch.setitem(dc._OPS, "affine", (counting, vjp))
    for t in trajs:
        predict_rul(params, [t], truth)
    predict_rul(params, trajs, truth)
    assert first_layer == [1, 1, 1, 3]


@pytest.mark.parametrize("markovian", [False, True])
def test_supervised_prediction_equals_last_row_readout(markovian):
    """On a default-spec batch of several runs, supervised predictions
    are the readout of each unit's last filtered row, bit for bit, and
    the last per-cycle estimate up to rounding."""
    spec = NetworkSpec(n_x=4, n_u=2)
    params = init_params(spec, markovian=markovian, seed=5)
    g = np.random.default_rng(9)
    trajs = [Trajectory(unit_id=k + 1, x=g.standard_normal((T, 4)),
                        u=g.standard_normal((T, 2)))
             for k, T in enumerate((23, 9, 40, 23, 1, 31))]
    pred = predict_rul(params, trajs, {t.unit_id: 0.0 for t in trajs},
                       cap=10**9)
    batch = Batch(trajs)
    feats = np.vstack([np.hstack([f[-1] for f in fs]) for fs in zip(
        *[batch.unpack(f) for f in filter_means(params, batch)])])
    with dc.no_tape():
        want = rul_head(params, feats).data
    assert np.array_equal(pred.predicted, want)
    last = np.array([p[-1] for p in predict_sequence_rul(params, trajs)])
    assert np.abs(pred.predicted - last).max() <= 1e-12 * np.abs(last).max()


def test_predict_error_contracts():
    params = tiny_params(n_x=5)
    trajs = rand_trajs(2, 6)  # 3 channels, model wants 5
    truth = {1: 1.0, 2: 2.0}
    with pytest.raises(ValueError, match="channel mismatch"):
        predict_rul(params, trajs, truth)
    wide_u = tiny_params(n_u=2)  # the units carry one setting channel
    with pytest.raises(ValueError,
                       match="channel mismatch.* 2 setting channels.* 1$"):
        predict_rul(wide_u, trajs, truth)
    params3 = tiny_params()
    with pytest.raises(ValueError, match="no true remaining life"):
        predict_rul(params3, trajs, {1: 1.0})
    empty = Trajectory(unit_id=9, x=np.zeros((0, 3)), u=np.zeros((0, 1)))
    with pytest.raises(ValueError, match="empty"):
        predict_rul(params3, [empty], {9: 0.0})
    with pytest.raises(ValueError, match="unknown prediction mode"):
        predict_rul(params3, trajs, truth, mode="oracle")
    with pytest.raises(ValueError, match="no test units"):
        predict_rul(params3, [], {})


# ---------------------------------------------------------------------------
# health-index mode


def test_health_index_prefix_copy_recovers_remaining_life():
    params = tiny_params(seed=1)
    train_trajs = rand_trajs(3, 30, seed=10)
    cut = 12
    probe = train_trajs[1]
    test_traj = Trajectory(unit_id=99, x=probe.x[:cut].copy(),
                           u=probe.u[:cut].copy())
    pred = predict_rul(params, [test_traj], {99: 0.0}, mode="health_index",
                       train_trajs=train_trajs)
    # identical prefix -> zero-distance window at the cut -> its true
    # remaining life, 30 - 12
    assert pred.predicted[0] == pytest.approx(18.0)


def test_health_index_prediction_is_capped():
    params = tiny_params(seed=1)
    train_trajs = rand_trajs(2, 200, seed=20)
    test_traj = Trajectory(unit_id=7, x=train_trajs[0].x[:10].copy(),
                           u=train_trajs[0].u[:10].copy())
    pred = predict_rul(params, [test_traj], {7: 0.0}, mode="health_index",
                       cap=125, train_trajs=train_trajs)
    assert pred.predicted[0] == 125.0


def test_health_index_requires_train_trajectories():
    params = tiny_params()
    trajs = rand_trajs(1, 5)
    with pytest.raises(ValueError, match="training trajectories"):
        predict_rul(params, trajs, {1: 0.0}, mode="health_index")


def test_health_index_map_shape_and_matching():
    params = tiny_params(seed=2)
    train_trajs = rand_trajs(4, 25, seed=5)
    hi = fit_health_index(params, train_trajs)
    assert np.linalg.norm(hi.direction) == pytest.approx(1.0, abs=1e-12)
    assert len(hi.curves) == 4
    assert all(len(c) == 25 for c in hi.curves)
    # matching an exact full curve leaves zero remaining life
    assert match_remaining_life(hi, hi.curves[2].copy()) == 0.0


def test_health_index_filters_train_and_test_units_in_one_scan(monkeypatch):
    """One latent_scan over ragged train and test units together, with
    the predictions of the index fitted on the train units alone and each
    test unit's own curve."""
    params = tiny_params(seed=4)
    train_trajs = []
    for i, T in enumerate((26, 41, 33)):
        tr = rand_trajs(1, T, seed=30 + i)[0]
        tr.unit_id = i + 1
        train_trajs.append(tr)
    test_trajs = []
    for i, T in enumerate((9, 17, 4)):
        tr = rand_trajs(1, T, seed=50 + i)[0]
        tr.unit_id = 20 - i     # not in unit-id order
        test_trajs.append(tr)
    truth = {t.unit_id: 0.0 for t in test_trajs}
    cap = 30

    forward, vjp = dc._OPS["latent_scan"]
    calls = []

    def counted(*arrays, **kw):
        calls.append(arrays[0].shape[0])
        return forward(*arrays, **kw)

    with monkeypatch.context() as m:
        m.setitem(dc._OPS, "latent_scan", (counted, vjp))
        pred = predict_rul(params, test_trajs, truth, mode="health_index",
                           cap=cap, train_trajs=train_trajs)
    assert calls == [26 + 41 + 33 + 9 + 17 + 4]

    hi = fit_health_index(params, train_trajs)
    ordered = sorted(test_trajs, key=lambda t: t.unit_id)
    assert pred.unit_ids == tuple(t.unit_id for t in ordered)
    assert pred.predicted.tolist() == [
        match_remaining_life(hi, hi.index_curve(params, t), cap)
        for t in ordered]


def loop_match(curves, test_curve, cap):
    """The matcher as one window search per training curve: the
    reference that match_remaining_life must equal exactly."""
    best = None
    for c in curves:
        w = min(len(test_curve), len(c))
        tail = test_curve[-w:]
        windows = np.lib.stride_tricks.sliding_window_view(c, w)
        mses = ((windows - tail) ** 2).mean(axis=1)
        pos = int(np.argmin(mses))
        key = (float(mses[pos]), len(c) - (pos + w))
        if best is None or key[0] < best[0]:
            best = key
    return float(min(max(best[1], 0), cap))


def index_map(curves):
    return HealthIndexMap(direction=np.ones(1), center=np.zeros(1),
                          curves=[np.asarray(c, dtype=float) for c in curves])


def match_cases(kind, g):
    """(training curves, test curve) draws of one kind."""
    for _ in range(60):
        lengths = g.integers(1, 30, size=g.integers(1, 7))
        curves = [g.standard_normal(n) for n in lengths]
        t = g.standard_normal(g.integers(1, 25))
        if kind == "exact copy":        # a zero-distance window, or several
            src = curves[g.integers(len(curves))]
            a = g.integers(len(src))
            t = src[a:a + g.integers(1, len(src) - a + 1)].copy()
            curves.insert(g.integers(len(curves) + 1), t.copy())
        elif kind == "constant":        # every window ties
            curves = [np.full(n, 2.5) for n in lengths]
            t = np.full(t.size, 2.5 if g.random() < 0.7 else 1.5)
        elif kind == "short and equal":
            t = g.standard_normal(int(lengths.max()))
            curves.append(g.standard_normal(t.size))
        elif kind == "length one":
            t = t[:1]
        elif kind == "magnitude 1e6":   # cancellation in the screen
            curves = [1e6 + 1e-3 * np.cumsum(c) for c in curves]
            t = 1e6 + 1e-3 * np.cumsum(t)
        yield curves, t


@pytest.mark.parametrize("kind", ["random ragged", "exact copy", "constant",
                                  "short and equal", "length one",
                                  "magnitude 1e6"])
def test_matcher_equals_the_window_loop(kind):
    g = np.random.default_rng(sum(map(ord, kind)))
    for curves, t in match_cases(kind, g):
        assert match_remaining_life(index_map(curves), t, 10 ** 6) == \
            loop_match(curves, t, 10 ** 6)


def test_matcher_tie_rule():
    """The lowest distance wins, then the earlier training curve, then
    the earlier window; a shorter curve is one window at its end."""
    t = np.array([0.0, 1.0])
    near = [0.0, 1.5, 9.0]               # distance 0.125, remaining 1
    late = [5.0, 5.0, 5.0, 0.0, 1.0]     # distance 0, remaining 0
    early = [0.0, 1.0, 9.0, 9.0]         # distance 0, remaining 2
    twice = [0.0, 1.0, 7.0, 0.0, 1.0, 7.0, 7.0]   # remaining 5 or 2
    cases = [([near, early], 2.0), ([late, early], 0.0), ([early, late], 2.0),
             ([twice], 5.0), ([near, [1.0], early], 0.0),
             ([[4.0], twice], 5.0)]
    for curves, want in cases:
        assert match_remaining_life(index_map(curves), t, 100) == want
        assert loop_match([np.array(c) for c in curves], t, 100) == want


def test_matcher_input_errors():
    with pytest.raises(ValueError, match="no training curves"):
        match_remaining_life(index_map([]), np.arange(3.0))
    with pytest.raises(ValueError, match="non-finite test curve"):
        match_remaining_life(index_map([np.arange(10.0)]),
                             np.array([np.nan, 1.0]))
    with pytest.raises(ValueError, match="empty test curve"):
        match_remaining_life(index_map([np.arange(10.0)]), np.zeros(0))


def test_health_index_curves_are_views_of_one_array():
    hi = fit_health_index(tiny_params(seed=2), rand_trajs(3, 12, seed=5))
    assert hi.flat.shape == (36,)
    assert all(np.shares_memory(c, hi.flat) for c in hi.curves)
    assert np.array_equal(np.concatenate(hi.curves), hi.flat)
    assert np.array_equal(hi.sq_prefix[1:], np.cumsum(hi.flat ** 2))


# ---------------------------------------------------------------------------
# experiment harness


@pytest.fixture(scope="module")
def corpus(synth_dir):
    return load_corpus(synth_dir)


@pytest.fixture(scope="module")
def exp_setup(corpus):
    spec = NetworkSpec(n_x=corpus.n_x, n_u=corpus.n_u, n_z=4, n_h=16,
                       enc_hidden=16, dec_hidden=16, prior_hidden=16,
                       rul_hidden=16, disc_hidden=16)
    config = TrainConfig(epochs=2, trajectories_per_batch=4, eval_every=2,
                         lambda_adv=0.0, seed=0)
    return spec, config


def test_run_experiment_single_run_aggregates(corpus, exp_setup):
    spec, config = exp_setup
    s = run_experiment(corpus.train_trajs, corpus.test_trajs, corpus.truth,
                       spec, config, n_runs=1)
    assert len(s.records) == 1 and not s.aborted_runs
    r = s.records[0]
    assert s.mean_rmse == s.min_rmse == r.best_rmse
    assert s.std_rmse == 0.0
    assert (r.best_step, r.best_rmse) in [(st, v) for st, v in r.curve]
    assert all(v > 0 for _, v in r.curve)


def test_run_experiment_scores_the_test_set_at_every_eval(corpus, exp_setup):
    """The curve has one point per step the run evaluates, its last one
    the final state's test RMSE."""
    spec, config = exp_setup
    config = replace(config, eval_every=4)   # the last step is off-cadence
    r = run_experiment(corpus.train_trajs, corpus.test_trajs, corpus.truth,
                       spec, config, n_runs=1).records[0]
    res = train(corpus.train_trajs, spec, config)
    assert res.checkpoint.step % 4 != 0
    assert [s for s, _ in r.curve] == [e.step for e in res.evals]
    assert r.curve[-1] == (res.checkpoint.step, rmse(predict_rul(
        res.params, corpus.test_trajs, corpus.truth, cap=config.rul_cap)))


def test_run_experiment_deterministic_across_calls(corpus, exp_setup):
    spec, config = exp_setup
    a = run_experiment(corpus.train_trajs, corpus.test_trajs, corpus.truth,
                       spec, config, n_runs=1)
    b = run_experiment(corpus.train_trajs, corpus.test_trajs, corpus.truth,
                       spec, config, n_runs=1)
    assert a.records[0].curve == b.records[0].curve
    assert a.records[0].best_rmse == b.records[0].best_rmse
    # identical seeds would therefore aggregate to zero spread
    both = np.array([a.records[0].best_rmse, b.records[0].best_rmse])
    assert float(np.std(both)) == 0.0


def test_run_summary_invariants(corpus, exp_setup):
    spec, config = exp_setup
    s = run_experiment(corpus.train_trajs, corpus.test_trajs, corpus.truth,
                       spec, config, n_runs=2)
    assert s.min_rmse <= s.mean_rmse
    assert s.std_rmse >= 0.0
    lengths = {len(r.curve) for r in s.completed}
    assert len(lengths) == 1  # every run sees the same eval checkpoints


def test_run_experiment_records_non_finite_eval_as_aborted(
        corpus, exp_setup, monkeypatch):
    import avfp.evalcli as cli

    real_predict = cli.predict_rul
    calls = []

    def predict_once_non_finite(*a, **kw):
        calls.append(1)
        if len(calls) == 1:
            raise NonFiniteError("non-finite result from 'gru_cell'")
        return real_predict(*a, **kw)

    monkeypatch.setattr(cli, "predict_rul", predict_once_non_finite)
    spec, config = exp_setup
    s = run_experiment(corpus.train_trajs, corpus.test_trajs, corpus.truth,
                       spec, config, n_runs=2)
    assert s.aborted_runs == [0]
    assert [r.run for r in s.completed] == [1]
    assert np.isfinite(s.mean_rmse)


def test_aborted_runs_are_excluded_from_aggregates():
    good = RunRecord(run=0, seed=0, best_step=10, best_rmse=20.0,
                     curve=[(10, 20.0)])
    bad = RunRecord(run=1, seed=1, best_step=-1, best_rmse=float("nan"),
                    curve=[], aborted=True)
    s = RunSummary(records=[good, bad])
    assert s.aborted_runs == [1]
    assert s.mean_rmse == 20.0 and s.min_rmse == 20.0 and s.std_rmse == 0.0
    assert s.argmin == (0, 10)


# ---------------------------------------------------------------------------
# plot data


def fixed_summary():
    return RunSummary(records=[
        RunRecord(run=0, seed=0, best_step=20, best_rmse=17.0,
                  curve=[(10, 19.0), (20, 17.0), (30, 18.0)]),
        RunRecord(run=1, seed=1, best_step=30, best_rmse=16.0,
                  curve=[(10, 21.0), (20, 16.5), (30, 16.0)]),
    ])


def test_emit_plot_data_rows_and_markers(tmp_path):
    s = RunSummary(records=[fixed_summary().records[0]])
    curves, _ = emit_plot_data(s, str(tmp_path))
    lines = open(curves).read().splitlines()
    assert lines[0] == "run,step,rmse,is_best,is_min"
    assert len(lines) == 4  # header + one row per eval point
    marked_best = [l for l in lines[1:] if l.split(",")[3] == "1"]
    marked_min = [l for l in lines[1:] if l.split(",")[4] == "1"]
    assert len(marked_best) == 1 and len(marked_min) == 1
    # the global-min marker sits on the smallest rmse row
    vals = [float(l.split(",")[2]) for l in lines[1:]]
    assert float(marked_min[0].split(",")[2]) == min(vals)


def test_emit_plot_data_reemission_byte_identical(tmp_path):
    s = fixed_summary()
    c1, j1 = emit_plot_data(s, str(tmp_path / "a"))
    c2, j2 = emit_plot_data(s, str(tmp_path / "b"))
    assert open(c1, "rb").read() == open(c2, "rb").read()
    assert open(j1, "rb").read() == open(j2, "rb").read()


def test_summary_json_matches_csv_recomputation(tmp_path):
    s = fixed_summary()
    curves, summary = emit_plot_data(s, str(tmp_path))
    doc = json.load(open(summary))
    rows = [l.split(",") for l in open(curves).read().splitlines()[1:]]
    selected = [float(r[2]) for r in rows if r[3] == "1"]
    assert doc["mean_rmse"] == float(np.mean(selected))
    assert doc["std_rmse"] == float(np.std(selected))
    assert doc["min_rmse"] == float(np.min(selected))
    all_vals = [float(r[2]) for r in rows]
    assert doc["curve_min_rmse"] == min(all_vals)
    min_row = next(r for r in rows if r[4] == "1")
    assert (int(min_row[0]), int(min_row[1])) == (doc["curve_min_run"],
                                                  doc["curve_min_step"])


# ---------------------------------------------------------------------------
# config file handling


def test_load_config_defaults_when_no_file():
    spec, config, doc = load_config(None, n_x=14, n_u=2)
    assert spec.n_x == 14 and spec.n_u == 2
    assert config == TrainConfig()
    assert doc == {}


def test_load_config_routes_fields(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"n_z": 4, "n_h": 24, "lr": 5e-4, "epochs": 7,
                             "markovian": True}))
    spec, config, _ = load_config(str(p), n_x=10, n_u=2)
    assert spec.n_z == 4 and spec.n_h == 24
    assert config.lr == 5e-4 and config.epochs == 7 and config.markovian


def test_load_config_rejections(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"n_x": 10}))
    with pytest.raises(ValueError, match="set from the data"):
        load_config(str(p), n_x=10, n_u=2)
    p.write_text(json.dumps({"warmup": 1}))
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(str(p), n_x=10, n_u=2)
    p.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError, match="JSON object"):
        load_config(str(p), n_x=10, n_u=2)


def test_load_config_types(tmp_path):
    """A float field takes any JSON number and holds it as a float."""
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"lr": 1, "val_frac": 0, "markovian": False}))
    _, config, _ = load_config(str(p), n_x=10, n_u=2)
    assert type(config.lr) is float and config.lr == 1.0
    assert type(config.val_frac) is float and config.markovian is False


# ---------------------------------------------------------------------------
# command line


@pytest.fixture(scope="module")
def cli_cfg(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "c.json"
    p.write_text(json.dumps({
        "epochs": 1, "trajectories_per_batch": 4, "eval_every": 2,
        "lambda_adv": 0.05, "n_z": 4, "n_h": 16, "enc_hidden": 16,
        "dec_hidden": 16, "prior_hidden": 16, "rul_hidden": 16,
        "disc_hidden": 16,
    }))
    return str(p)


@pytest.fixture(scope="module")
def cli_run(synth_dir, cli_cfg, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run"))
    rc = main(["train", "--data", synth_dir, "--out", out,
               "--config", cli_cfg])
    assert rc == 0
    return out


def test_cli_ingest_writes_cache(synth_dir, tmp_path, capsys):
    out = str(tmp_path / "cache")
    assert main(["ingest", "--data", synth_dir, "--out", out]) == 0
    assert sorted(os.listdir(out)) == [
        "stats.json", "test_normalized.csv", "train_normalized.csv"]
    said = capsys.readouterr().out
    assert "12 units" in said and "6 units" in said


def test_cli_train_artifacts(cli_run):
    names = sorted(os.listdir(cli_run))
    assert names == ["evals.csv", "manifest.json", "model.ckpt", "trace.csv"]
    manifest = json.load(open(os.path.join(cli_run, "manifest.json")))
    assert set(manifest) == {"version", "config_sha256", "data_sha256",
                             "seed", "wall_time_s"}
    assert len(manifest["data_sha256"]) == 3
    trace = open(os.path.join(cli_run, "trace.csv")).read().splitlines()
    assert trace[0].startswith("step,epoch,combined")
    assert len(trace) > 1


def test_cli_eval_and_predict(cli_run, synth_dir, tmp_path, capsys):
    ckpt = os.path.join(cli_run, "model.ckpt")
    assert main(["eval", "--data", synth_dir, "--checkpoint", ckpt]) == 0
    assert "test RMSE (supervised)" in capsys.readouterr().out
    out = str(tmp_path / "preds.csv")
    assert main(["predict", "--data", synth_dir, "--checkpoint", ckpt,
                 "--out", out, "--mode", "health_index"]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "unit_id,predicted_rul,true_rul"
    assert len(lines) == 7  # six test units


def test_cli_experiment_writes_plot_data(synth_dir, cli_cfg, tmp_path, capsys):
    out = str(tmp_path / "exp")
    rc = main(["experiment", "--data", synth_dir, "--out", out,
               "--config", cli_cfg, "--runs", "1"])
    assert rc == 0
    assert sorted(os.listdir(out)) == ["curves.csv", "manifest.json",
                                       "summary.json"]
    said = capsys.readouterr().out
    assert "mean RMSE" in said and "16.91" in said  # context line present


def test_cli_experiment_markovian_table(synth_dir, cli_cfg, tmp_path, capsys):
    out = str(tmp_path / "abl")
    rc = main(["experiment", "--data", synth_dir, "--out", out,
               "--config", cli_cfg, "--runs", "1", "--compare-markovian"])
    assert rc == 0
    table = open(os.path.join(out, "ablation.csv")).read().splitlines()
    assert table[0] == "markovian,runs,mean_rmse,std_rmse,min_rmse"
    assert len(table) == 3
    assert table[1].startswith("false,1,") and table[2].startswith("true,1,")
    for row in table[1:]:
        assert all(np.isfinite(float(v)) for v in row.split(",")[2:])


def test_cli_usage_errors_exit_1(tmp_path, monkeypatch, capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err
    monkeypatch.delenv("AVFP_DATA_DIR", raising=False)
    assert main(["ingest", "--out", str(tmp_path)]) == 1


def test_cli_data_errors_exit_2(synth_dir, tmp_path):
    assert main(["ingest", "--data", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"learningrate": 1}))
    assert main(["train", "--data", synth_dir, "--out", str(tmp_path),
                 "--config", str(bad)]) == 2


def test_cli_checkpoint_mismatch_exits_2(synth_dir, tmp_path, capsys):
    trajs = rand_trajs(3, 8, n_x=5)
    spec = tiny_spec(n_x=5, n_u=1)
    cfg = TrainConfig(epochs=0, rul_supervision=False, val_frac=0.0)
    res = train(trajs, spec, cfg)
    ckpt = str(tmp_path / "oddball.ckpt")
    save_checkpoint(res.checkpoint, ckpt)
    rc = main(["eval", "--data", synth_dir, "--checkpoint", ckpt])
    assert rc == 2
    assert "mismatch" in capsys.readouterr().err


def test_cli_truncated_checkpoint_exits_2(synth_dir, tmp_path, capsys):
    ckpt = tmp_path / "short.ckpt"
    for size in range(4, 8):
        ckpt.write_bytes((CHECKPOINT_MAGIC + b"\x01\x00\x00")[:size])
        assert main(["eval", "--data", synth_dir, "--checkpoint",
                     str(ckpt)]) == 2
        assert "truncated checkpoint" in capsys.readouterr().err


def _resigned_checkpoint(tmp_path, edit) -> str:
    """A checkpoint of an untrained fleet model whose entry table was
    changed by edit and then signed again."""
    res = train(rand_trajs(3, 8), tiny_spec(3, 1),
                TrainConfig(epochs=0, rul_supervision=False, val_frac=0.0))
    table = _checkpoint_table(res.checkpoint)
    edit(table)
    body = struct.pack("<Q", len(table)) + b"".join(
        _pack_entry(name, table[name]) for name in sorted(table))
    ckpt = tmp_path / "resigned.ckpt"
    ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION)
                     + body + hashlib.sha256(body).digest()[:8])
    return str(ckpt)


def test_cli_checkpoint_missing_entry_exits_2(synth_dir, tmp_path, capsys):
    ckpt = _resigned_checkpoint(tmp_path, lambda t: t.pop("config/rul_cap"))
    assert main(["eval", "--data", synth_dir, "--checkpoint", ckpt]) == 2
    assert ("checkpoint missing entry 'config/rul_cap'"
            in capsys.readouterr().err)


def test_cli_checkpoint_fractional_cap_exits_2(synth_dir, tmp_path, capsys):
    """An int entry that is not integral is refused, not truncated."""
    ckpt = _resigned_checkpoint(
        tmp_path, lambda t: t.update({"config/rul_cap": 40.5}))
    assert main(["eval", "--data", synth_dir, "--checkpoint", ckpt]) == 2
    assert "config/rul_cap must be of type int" in capsys.readouterr().err


def test_cli_checkpoint_fractional_opt_counter_exits_2(synth_dir, tmp_path,
                                                      capsys):
    """The Adam groups' step and skip counters are ints like the rest."""
    ckpt = _resigned_checkpoint(
        tmp_path, lambda t: t.update({"opt/gen/t": 1.5}))
    assert main(["eval", "--data", synth_dir, "--checkpoint", ckpt]) == 2
    assert ("checkpoint entry opt/gen/t must be of type int"
            in capsys.readouterr().err)


def test_cli_checkpoint_non_scalar_setting_exits_2(synth_dir, tmp_path,
                                                  capsys):
    """A spec, config, meta or optimizer-counter entry must be 0-d."""
    ckpt = _resigned_checkpoint(
        tmp_path, lambda t: t.update({"spec/n_z": np.array([2.0, 2.0])}))
    assert main(["eval", "--data", synth_dir, "--checkpoint", ckpt]) == 2
    assert ("checkpoint entry spec/n_z must be a scalar, got shape (2,)"
            in capsys.readouterr().err)


@pytest.mark.parametrize("doc", [
    {"lr": float("nan")}, {"lr": float("inf")}, {"lambda_adv": float("nan")}],
    ids=lambda d: f"{next(iter(d))}={next(iter(d.values()))}")
def test_cli_non_finite_rate_exits_2(synth_dir, tmp_path, capsys, doc):
    """json reads NaN and Infinity; the config refuses them by key and
    nothing is trained."""
    (key,) = doc
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["train", "--data", synth_dir, "--out", str(out),
                 "--config", str(cfg)]) == 2
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not (out / "model.ckpt").exists()


@pytest.mark.parametrize("doc", [
    {"markovian": "false"}, {"trajectories_per_batch": 2.5},
    {"rul_cap": 40.5}, {"epochs": True}, {"n_z": 4.0}, {"lr": "1e-3"}],
    ids=lambda d: next(iter(d)))
def test_cli_mistyped_config_value_exits_2(synth_dir, tmp_path, capsys, doc):
    """A bool field takes only true/false, an int field only integers,
    a float field any number; the error names the key and nothing is
    trained."""
    (key,) = doc
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["train", "--data", synth_dir, "--out", str(out),
                 "--config", str(cfg)]) == 2
    assert f"config key {key} must be of type" in capsys.readouterr().err
    assert not (out / "model.ckpt").exists()


@pytest.mark.parametrize("key", ["beta1", "beta2", "eps", "disc_steps",
                                 "gradient_clip_norm", "kl_warmup_steps"])
def test_cli_retired_config_keys_exit_2(synth_dir, tmp_path, capsys, key):
    """Adam's constants, the clip norm, the discriminator step count and
    the KL warm-up are fixed, not settings."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({key: 1}))
    assert main(["train", "--data", synth_dir, "--out", str(tmp_path / "out"),
                 "--config", str(cfg)]) == 2
    assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "experiment"])
def test_cli_training_targets_use_the_config_cap(synth_dir, monkeypatch,
                                                 tmp_path, command):
    """The config's rul_cap caps the targets that training sees (the
    conftest fleet's lives reach 119)."""
    import avfp.evalcli as cli

    seen = []

    def record(trajs, *a, **kw):
        seen.append(max(float(t.rul.max()) for t in trajs))
        raise TrainingAborted("stop after recording the targets")

    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"rul_cap": 40}))
    # experiment drives the step generator, not train
    monkeypatch.setattr(cli, "train" if command == "train" else "run_steps",
                        record)
    assert main([command, "--data", synth_dir, "--out", str(tmp_path / "out"),
                 "--config", str(cfg)]) == 3
    assert seen and all(m == 40.0 for m in seen)


def test_cli_training_abort_exits_3(synth_dir, monkeypatch, tmp_path, capsys):
    import avfp.evalcli as cli

    def explode(*a, **kw):
        raise TrainingAborted("11 consecutive non-finite batches at step 11")

    monkeypatch.setattr(cli, "train", explode)
    rc = main(["train", "--data", synth_dir, "--out", str(tmp_path)])
    assert rc == 3
    assert "aborted" in capsys.readouterr().err


def test_cli_experiment_with_every_run_aborted_exits_3(
        synth_dir, cli_cfg, monkeypatch, tmp_path, capsys):
    import avfp.evalcli as cli

    def explode(*a, **kw):
        raise TrainingAborted("11 consecutive non-finite batches at step 11")

    monkeypatch.setattr(cli, "run_steps", explode)
    rc = main(["experiment", "--data", synth_dir, "--out", str(tmp_path),
               "--config", cli_cfg, "--runs", "2"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["training aborted: all 2 runs aborted"]


def test_cli_non_finite_exits_3(synth_dir, monkeypatch, tmp_path, capsys):
    import avfp.evalcli as cli

    def explode(*a, **kw):
        raise NonFiniteError("non-finite result from 'gauss_kl'")

    monkeypatch.setattr(cli, "train", explode)
    rc = main(["train", "--data", synth_dir, "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["non-finite values: non-finite result from 'gauss_kl'"]


def test_cli_gradcheck_smoke(capsys):
    assert main(["gradcheck", "--draws", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 5 and "FAIL" not in out


def test_cli_oracle_smoke(capsys):
    rc = main(["oracle", "--instances", "1", "--draws", "32",
               "--fit-steps", "100"])
    assert rc == 0
    assert "bound held on 1/1" in capsys.readouterr().out


def test_cli_gradcheck_failure_exits_4(monkeypatch, capsys):
    import avfp.evalcli as cli

    monkeypatch.setattr(cli, "gradient_audit", lambda draws, seed: {
        "log_density": 1e-9, "kl": 3e-2})
    assert main(["gradcheck", "--draws", "1"]) == 4
    out = capsys.readouterr().out
    assert out.count("ok") == 1 and out.count("FAIL") == 1


def test_cli_oracle_failure_exits_4(monkeypatch, capsys):
    import avfp.evalcli as cli
    from avfp.training import BoundAuditRow

    above = BoundAuditRow(seed=0, n_z=2, n_x=3, length=20, exact=-50.0,
                          before_mean=-40.0, before_se=0.1,
                          after_mean=-45.0, after_se=0.1)
    monkeypatch.setattr(cli, "bound_gap_audit", lambda **kw: [above])
    assert main(["oracle", "--instances", "1"]) == 4
    assert "bound held on 0/1" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["gradcheck", "--draws", "0"],
    ["gradcheck", "--draws", "-3"],
    ["oracle", "--instances", "0"],
    ["oracle", "--instances", "1", "--draws", "2", "--fit-steps", "-5"],
    ["oracle", "--instances", "1", "--draws", "1", "--fit-steps", "0"],
    ["oracle", "--instances", "1", "--draws", "0", "--fit-steps", "0"],
    ["experiment", "--data", "no-data", "--out", "no-out", "--runs", "0"],
], ids=["gradcheck-draws-0", "gradcheck-draws-negative", "oracle-instances-0",
        "oracle-fit-steps-negative", "oracle-draws-1", "oracle-draws-0",
        "experiment-runs-0"])
def test_cli_audit_of_nothing_is_a_usage_error(argv, capsys):
    """An audit that would check nothing, skip its fitting silently or
    report a standard error of one draw, and an experiment of no runs,
    are refused before they run: before any data is read."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: argument --")
    assert "must be at least" in err


def test_gradient_audit_reports_every_objective():
    worst = gradient_audit(draws=1, seed=3)
    assert set(worst) == {"log_density", "kl", "elbo", "adversarial",
                          "combined"}
    assert all(err < 1e-4 for err in worst.values())


def test_module_entry_point_runs_once():
    """`python -m avfp` runs the command line without importing the
    CLI module a second time as __main__."""
    import subprocess
    import sys

    import avfp

    src = os.path.dirname(os.path.dirname(os.path.abspath(avfp.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-W", "default", "-m", "avfp", "--help"],
                         capture_output=True, text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    assert "usage" in out.stdout and "gradcheck" in out.stdout
    assert "Warning" not in out.stderr
