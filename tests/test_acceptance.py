"""Acceptance criteria, one test per criterion.

Criteria that require the real FD001 files look for them under
AVFP_DATA_DIR.  The RMSE target (criterion 1) is data-specific and is
skipped honestly when the files are absent; the harness-behavior
criteria (7, 8) run on the bundled synthetic counterpart instead, which
exercises the identical code path on files of the same format.
"""

import json
import os
import time

import numpy as np
import pytest
from conftest import scan_counts

from avfp import rng
from avfp.data import build_rul_targets, normalize, parse_cmapss
from avfp.diffcore import constant, gauss_kl
from avfp.evalcli import (
    gradient_audit,
    load_config,
    load_corpus,
    main,
    predict_rul,
    rmse,
    run_experiment,
)
from avfp.model import NetworkSpec
from avfp.training import (
    TrainConfig,
    bound_gap_audit,
    save_checkpoint,
    train,
    train_toy_gan,
)

NEEDED = ("train_FD001.txt", "test_FD001.txt", "RUL_FD001.txt")


def real_fd001_dir():
    d = os.environ.get("AVFP_DATA_DIR")
    if d and all(os.path.exists(os.path.join(d, n)) for n in NEEDED):
        return d
    return None


def small_net(n_x, n_u):
    return NetworkSpec(n_x=n_x, n_u=n_u, n_z=4, n_h=16, enc_hidden=16,
                       dec_hidden=16, prior_hidden=16, rul_hidden=16,
                       disc_hidden=16)


def test_criterion_1_fd001_rmse_bound():
    """Single default run RMSE <= 25; five-run experiment min <= 22."""
    d = real_fd001_dir()
    if d is None:
        pytest.skip(
            "real FD001 files not present under AVFP_DATA_DIR; the RMSE "
            "target is specific to that dataset (see the data setup section "
            "of the README); the pipeline itself is exercised end to end on "
            "synthetic data by the remaining tests")
    corpus = load_corpus(d)
    spec, config, _ = load_config(None, corpus.n_x, corpus.n_u)
    single = run_experiment(corpus.train_trajs, corpus.test_trajs,
                            corpus.truth, spec, config, n_runs=1)
    assert single.min_rmse <= 25.0
    five = run_experiment(corpus.train_trajs, corpus.test_trajs,
                          corpus.truth, spec, config, n_runs=5)
    assert five.min_rmse <= 22.0


def test_criterion_2_bound_never_exceeds_exact_and_gap_shrinks():
    """20 instances: bound holds within 3 SE; gap shrinks in >= 18."""
    t0 = time.time()
    rows = bound_gap_audit(n_instances=20, draws=256, fit_steps=2000, seed=0)
    elapsed = time.time() - t0
    assert len(rows) == 20
    for r in rows:
        assert r.n_z <= 3 and r.n_x <= 4 and r.length <= 30
        assert r.bound_ok, (r.seed, r.exact, r.before_mean, r.after_mean)
    assert sum(r.shrunk for r in rows) >= 18
    assert elapsed <= 600.0, f"audit took {elapsed:.0f}s"


def test_criterion_3_gradient_correctness_all_objectives():
    """Reverse mode within 1e-4 of central differences, 20 draws each."""
    worst = gradient_audit(draws=20, seed=0)
    assert set(worst) == {"log_density", "kl", "elbo", "adversarial",
                          "combined"}
    for name, err in worst.items():
        assert err < 1e-4, (name, err)


def test_criterion_4_kl_closed_form_vs_monte_carlo():
    """Closed-form KL within 3 SE of a 1e6-sample estimate, 100 pairs."""
    n_samples = 1_000_000
    for i in range(100):
        g = rng.stream(0, "kl-oracle", i)
        n = int(g.integers(1, 5))
        m1, m2 = g.uniform(-2, 2, n), g.uniform(-2, 2, n)
        lv1, lv2 = g.uniform(-2, 2, n), g.uniform(-2, 2, n)
        closed = gauss_kl(constant(m1), constant(lv1),
                          constant(m2), constant(lv2)).item()
        x = m1 + np.exp(0.5 * lv1) * g.standard_normal((n_samples, n))
        log_p = -0.5 * (((x - m1) ** 2 * np.exp(-lv1)).sum(axis=1)
                        + lv1.sum())
        log_q = -0.5 * (((x - m2) ** 2 * np.exp(-lv2)).sum(axis=1)
                        + lv2.sum())
        diffs = log_p - log_q  # the 2-pi terms cancel
        mc = float(diffs.mean())
        se = float(diffs.std(ddof=1) / np.sqrt(n_samples))
        assert abs(closed - mc) <= 3.0 * se, (i, closed, mc, se)


def test_criterion_5_toy_gan_equilibrium():
    """After 5000 steps the discriminator cannot separate the sides."""
    res = train_toy_gan(steps=5000, seed=0)
    assert 0.4 <= res.d_real_mean <= 0.6, res.d_real_mean
    assert 0.4 <= res.d_fake_mean <= 0.6, res.d_fake_mean
    assert abs(res.fake_mean - 2.0) <= 0.2, res.fake_mean


def test_criterion_6_determinism_and_resume(synth_dir, tmp_path):
    """Same seed -> bit-identical checkpoints; resume == uninterrupted."""
    corpus = load_corpus(synth_dir)
    spec = small_net(corpus.n_x, corpus.n_u)
    config = TrainConfig(epochs=2, trajectories_per_batch=4, eval_every=3,
                         lambda_adv=0.05, seed=0)

    a = train(corpus.train_trajs, spec, config)
    b = train(corpus.train_trajs, spec, config)
    pa, pb = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(a.checkpoint, pa)
    save_checkpoint(b.checkpoint, pb)
    assert open(pa, "rb").read() == open(pb, "rb").read()

    ra = rmse(predict_rul(a.params, corpus.test_trajs, corpus.truth))
    rb = rmse(predict_rul(b.params, corpus.test_trajs, corpus.truth))
    assert abs(ra - rb) <= 1e-6

    half = train(corpus.train_trajs, spec, config, stop_after_steps=3)
    rest = train(corpus.train_trajs, spec, config, resume=half.checkpoint)
    for name, t in a.params.named().items():
        assert np.array_equal(t.data, rest.params.named()[name].data), name


def test_criterion_7_markovian_ablation_table(synth_dir, tmp_path):
    """The experiment command emits a two-row comparison table."""
    data = real_fd001_dir() or synth_dir
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "epochs": 2, "trajectories_per_batch": 4, "eval_every": 3,
        "lambda_adv": 0.05, "n_z": 4, "n_h": 16, "enc_hidden": 16,
        "dec_hidden": 16, "prior_hidden": 16, "rul_hidden": 16,
        "disc_hidden": 16,
    }))
    out = str(tmp_path / "ablation")
    rc = main(["experiment", "--data", data, "--out", out,
               "--config", str(cfg), "--runs", "1", "--compare-markovian"])
    assert rc == 0
    table = open(os.path.join(out, "ablation.csv")).read().splitlines()
    assert table[0] == "markovian,runs,mean_rmse,std_rmse,min_rmse"
    assert len(table) == 3
    assert table[1].startswith("false,") and table[2].startswith("true,")
    for row in table[1:]:
        cells = row.split(",")
        assert int(cells[1]) == 1  # both configurations completed
        assert all(np.isfinite(float(v)) for v in cells[2:])


def test_criterion_8_data_pipeline_invariants(synth_dir):
    """Parse counts match a scan; z-scores hold; targets obey the cap."""
    data = real_fd001_dir() or synth_dir
    for split in ("train", "test"):
        path = os.path.join(data, f"{split}_FD001.txt")
        ds = parse_cmapss(path, split=split)
        total, per_unit = scan_counts(path)
        assert ds.n_rows == total
        assert ds.n_units == len(per_unit)
        counts = np.diff(ds.offsets).tolist()
        assert dict(zip(ds.unit_ids.tolist(), counts)) == per_unit

    train_ds = parse_cmapss(os.path.join(data, "train_FD001.txt"), "train")
    normed, stats = normalize(train_ds)
    assert np.all(np.abs(normed.sensors.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(normed.sensors.std(axis=0) - 1.0) < 1e-9)

    targets = build_rul_targets(train_ds, cap=125)
    for unit, life in zip(train_ds.unit_ids.tolist(),
                          np.diff(train_ds.offsets).tolist()):
        t = targets[unit]
        assert t[-1] == 0.0  # zero exactly at failure
        assert np.all(t <= 125.0)
        want = np.minimum(life - np.arange(1, life + 1, dtype=float), 125.0)
        assert np.array_equal(t, want)


def test_synthetic_end_to_end_counterpart(synth_dir):
    """Full pipeline on the synthetic fleet learns more than a constant.

    This is not one of the numbered criteria; it keeps the end-to-end
    path honest in environments without the real dataset.
    """
    corpus = load_corpus(synth_dir)
    spec = small_net(corpus.n_x, corpus.n_u)
    config = TrainConfig(epochs=3, trajectories_per_batch=4, eval_every=4,
                         lambda_adv=0.05, seed=0)
    summary = run_experiment(corpus.train_trajs, corpus.test_trajs,
                             corpus.truth, spec, config, n_runs=1)
    truths = np.array(sorted(corpus.truth.values()))
    always_cap = float(np.sqrt(np.mean((125.0 - truths) ** 2)))
    assert summary.min_rmse < always_cap - 10.0
    assert 0.0 < summary.min_rmse < 125.0
