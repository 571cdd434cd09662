"""Parsing, normalization, RUL targets, and the Kalman oracle."""

import json
import re

import numpy as np
import pytest

from avfp import data as avdata
from avfp.data import (
    DEFAULT_RUL_CAP,
    DataFormatError,
    LinearGaussianSpec,
    build_rul_targets,
    gen_linear_gaussian,
    kalman_loglik,
    load_test_rul,
    normalize,
    parse_cmapss,
    save_dataset,
    save_stats,
    to_trajectories,
    train_val_split,
)
from conftest import joint_gaussian_loglik, scan_counts


# ---------------------------------------------------------------------------
# parsing


def test_parse_counts_match_text_scan(synth_dir, synth_train):
    total, per_unit = scan_counts(f"{synth_dir}/train_FD001.txt")
    assert synth_train.n_rows == total
    assert synth_train.n_units == len(per_unit)
    counts = np.diff(synth_train.offsets)
    assert dict(zip(synth_train.unit_ids.tolist(), counts.tolist())) == per_unit


def test_parse_record_shape(synth_train):
    assert synth_train.unit_ids[0] == 1 and synth_train.offsets[0] == 0
    assert synth_train.offsets.shape == (synth_train.n_units + 1,)
    assert synth_train.settings.shape == (synth_train.n_rows, 3)
    assert synth_train.sensors.shape == (synth_train.n_rows, 21)


def test_parse_split_is_required_and_checked(synth_dir, synth_test):
    assert synth_test.split == "test"
    with pytest.raises(TypeError):   # no guess from the file name
        parse_cmapss(f"{synth_dir}/test_FD001.txt")
    with pytest.raises(DataFormatError, match="split must be"):
        parse_cmapss(f"{synth_dir}/test_FD001.txt", "val")


def test_parse_rejects_wrong_columns(tmp_path):
    p = tmp_path / "train_bad.txt"
    p.write_text("1 1 0.1 0.2 100\n")
    with pytest.raises(DataFormatError, match="columns"):
        parse_cmapss(str(p), "train")


def test_parse_rejects_nonnumeric(tmp_path):
    p = tmp_path / "train_bad.txt"
    row = " ".join(["1", "1"] + ["oops"] * 24)
    p.write_text(row + "\n")
    with pytest.raises(DataFormatError):
        parse_cmapss(str(p), "train")


def test_parse_rejects_gap_in_cycles(tmp_path):
    p = tmp_path / "train_bad.txt"
    r1 = " ".join(["1", "1"] + ["0.0"] * 24)
    r3 = " ".join(["1", "3"] + ["0.0"] * 24)
    p.write_text(r1 + "\n" + r3 + "\n")
    with pytest.raises(DataFormatError, match="consecutive"):
        parse_cmapss(str(p), "train")


def _row(unit, cycle, value=0.0):
    return " ".join([str(unit), str(cycle)] + [repr(value)] * 24)


def test_parse_groups_interleaved_units(tmp_path):
    p = tmp_path / "train_mixed.txt"
    rows = [_row(2, 1, 20.0), _row(1, 1, 10.0), _row(2, 2, 21.0),
            _row(1, 2, 11.0), _row(2, 3, 22.0)]
    p.write_text("\n".join(rows) + "\n")
    ds = parse_cmapss(str(p), "train")
    assert ds.unit_ids.tolist() == [1, 2]
    assert ds.offsets.tolist() == [0, 2, 5]
    assert ds.sensors[:, 0].tolist() == [10.0, 11.0, 20.0, 21.0, 22.0]


@pytest.mark.parametrize("unit", ["1.5", "0"])
def test_parse_rejects_bad_unit_id(tmp_path, unit):
    p = tmp_path / "train_bad.txt"
    p.write_text(_row(unit, 1) + "\n")
    with pytest.raises(DataFormatError, match="unit id"):
        parse_cmapss(str(p), "train")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_rejects_non_finite_values(tmp_path, value):
    # a NaN sensor would give a NaN std, and the channel would be dropped
    # as constant without a word
    p = tmp_path / "train_bad.txt"
    fields = _row(1, 2).split()
    fields[6] = value   # unit, cycle, setting_1..3, sensor_01, sensor_02
    p.write_text(_row(1, 1) + "\n" + " ".join(fields) + "\n")
    with pytest.raises(DataFormatError,
                       match=re.escape(f"{p}: non-finite sensor_02 in data row 2")):
        parse_cmapss(str(p), "train")


def test_parse_rejects_empty(tmp_path):
    p = tmp_path / "train_empty.txt"
    p.write_text("")
    with pytest.raises(DataFormatError):
        parse_cmapss(str(p), "train")


# ---------------------------------------------------------------------------
# normalization


def test_constant_channels_dropped(synth_train):
    norm, stats = normalize(synth_train)
    assert "setting_3" in stats.dropped
    assert len(stats.dropped) == 1 + 7  # fixed constant set in the generator
    assert len(stats.sensor_names) == 14
    assert norm.normalized


def test_train_moments_are_zero_one(synth_train):
    norm, stats = normalize(synth_train)
    assert np.all(np.abs(norm.sensors.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(norm.sensors.std(axis=0) - 1.0) < 1e-9)
    assert np.all(np.abs(norm.settings.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(norm.settings.std(axis=0) - 1.0) < 1e-9)


def test_normalized_columns_are_direct_z_scores(synth_dir, synth_train):
    norm, stats = normalize(synth_train)
    raw = np.loadtxt(f"{synth_dir}/train_FD001.txt")
    for names, values, first in ((stats.setting_names, norm.settings, 2),
                                 (stats.sensor_names, norm.sensors, 5)):
        cols = [first + int(n.split("_")[1]) - 1 for n in names]
        # compute_stats sums row by row (an axis-0 reduction of a row-major
        # block); a 1-D col.mean() sums pairwise and can differ in the last
        # bit, so exact equality is checked against the former
        block = np.ascontiguousarray(raw[:, cols])
        direct = (block - block.mean(axis=0)) / block.std(axis=0)
        assert np.array_equal(values, direct)
        for j, c in enumerate(cols):
            col = raw[:, c]
            assert np.allclose(values[:, j], (col - col.mean()) / col.std(),
                               rtol=0, atol=1e-12)


def test_test_split_uses_train_stats(synth_train, synth_test):
    _, stats = normalize(synth_train)
    norm_test, _ = normalize(synth_test, stats)
    assert norm_test.sensor_names == stats.sensor_names
    # test moments are NOT exactly 0/1: stats came from train
    assert np.any(np.abs(norm_test.sensors.mean(axis=0)) > 1e-6)


def test_shifted_copy_mean_is_shift_over_std(synth_train):
    _, stats = normalize(synth_train)
    shifted = avdata.Dataset(
        unit_ids=synth_train.unit_ids.copy(),
        offsets=synth_train.offsets.copy(),
        settings=synth_train.settings.copy(),
        sensors=synth_train.sensors + 5.0,
        split="train",
    )
    norm, _ = normalize(shifted, stats)
    base_norm, _ = normalize(synth_train, stats)
    observed = norm.sensors.mean(axis=0) - base_norm.sensors.mean(axis=0)
    assert np.allclose(observed, 5.0 / stats.sensor_std, rtol=1e-9)


def test_double_normalize_rejected(synth_train):
    norm, stats = normalize(synth_train)
    with pytest.raises(ValueError):
        normalize(norm, stats)


def test_stats_require_train_split(synth_test):
    with pytest.raises(ValueError):
        normalize(synth_test)


# ---------------------------------------------------------------------------
# cache round trip


def test_dataset_cache_roundtrip(tmp_path, synth_train):
    norm, stats = normalize(synth_train)
    csv = tmp_path / "train_norm.csv"
    save_dataset(norm, str(csv))
    with open(csv) as f:
        header = f.readline().strip().split(",")
    back = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
    n_set = len(norm.setting_names)
    assert header == ["unit", "cycle", *norm.setting_names, *norm.sensor_names]
    assert back.shape[0] == norm.n_rows
    counts = np.diff(norm.offsets)
    assert np.array_equal(back[:, 0], np.repeat(norm.unit_ids, counts))
    assert np.array_equal(back[:, 1], np.concatenate(
        [np.arange(1, n + 1) for n in counts]))
    # bit-exact via repr-precision floats
    assert np.array_equal(back[:, 2 : 2 + n_set], norm.settings)
    assert np.array_equal(back[:, 2 + n_set :], norm.sensors)


def test_stats_sidecar_roundtrip(tmp_path, synth_train):
    _, stats = normalize(synth_train)
    p = tmp_path / "stats.json"
    save_stats(stats, str(p))
    with open(p) as f:
        back = json.load(f)
    assert tuple(back["sensor_mean"]) == stats.sensor_names
    assert tuple(back["dropped"]) == stats.dropped
    assert back["rul_cap"] == DEFAULT_RUL_CAP
    assert np.array_equal(list(back["sensor_mean"].values()), stats.sensor_mean)
    assert np.array_equal(list(back["sensor_std"].values()), stats.sensor_std)


# ---------------------------------------------------------------------------
# RUL targets


def test_rul_targets_shape_and_invariants(synth_train):
    targets = build_rul_targets(synth_train, cap=125)
    counts = np.diff(synth_train.offsets)
    assert sorted(targets) == synth_train.unit_ids.tolist()
    for unit, n in zip(synth_train.unit_ids.tolist(), counts):
        t = targets[unit]
        assert t.shape == (n,)
        assert t[-1] == 0.0  # failure cycle
        assert np.all(t >= 0) and np.all(t <= 125)
        assert np.all(np.diff(t) <= 0)  # nonincreasing


def test_rul_cap_applies(tmp_path):
    avdata.write_synthetic_cmapss(
        str(tmp_path), n_train_units=2, n_test_units=1, seed=9,
        min_life=80, max_life=90,
    )
    ds = parse_cmapss(f"{tmp_path}/train_FD001.txt", "train")
    targets = build_rul_targets(ds, cap=30)
    for t in targets.values():
        assert t[0] == 30.0  # early life is clamped
        assert np.all(t <= 30.0)
        assert t[-1] == 0.0


def test_rul_targets_reject_test_split(synth_test):
    with pytest.raises(ValueError):
        build_rul_targets(synth_test)


def test_load_test_rul(synth_dir, synth_test):
    truth = load_test_rul(f"{synth_dir}/RUL_FD001.txt")
    assert len(truth) == synth_test.n_units
    assert all(v >= 0 for v in truth.values())


def test_load_test_rul_rejects_negative(tmp_path):
    p = tmp_path / "RUL_bad.txt"
    p.write_text("10\n-3\n")
    with pytest.raises(DataFormatError):
        load_test_rul(str(p))


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_load_test_rul_rejects_non_finite(tmp_path, value):
    p = tmp_path / "RUL_bad.txt"
    p.write_text(f"10\n{value}\n")
    with pytest.raises(DataFormatError, match=re.escape(f"{p}: non-finite")):
        load_test_rul(str(p))


# ---------------------------------------------------------------------------
# trajectories and splits


def test_to_trajectories(synth_train):
    norm, stats = normalize(synth_train)
    targets = build_rul_targets(synth_train, cap=DEFAULT_RUL_CAP)
    trajs = to_trajectories(norm, targets)
    assert [t.unit_id for t in trajs] == norm.unit_ids.tolist()
    tr = trajs[0]
    assert tr.x.shape[1] == len(stats.sensor_names)
    assert tr.u.shape == (tr.length, len(stats.setting_names))
    assert tr.rul.shape == (tr.length,)
    assert all(t.x.flags.c_contiguous and t.u.flags.c_contiguous for t in trajs)


def test_train_val_split_last_units(synth_train):
    norm, _ = normalize(synth_train)
    trajs = to_trajectories(norm)
    tr, val = train_val_split(trajs, frac=0.25)
    assert len(val) == 3 and len(tr) == 9
    assert max(t.unit_id for t in tr) < min(t.unit_id for t in val)


# ---------------------------------------------------------------------------
# linear-Gaussian instances and the Kalman oracle


def _small_lg(seed=0):
    g = np.random.default_rng(seed)
    n_z, n_x = 2, 3
    A = 0.8 * np.eye(n_z) + 0.1 * g.standard_normal((n_z, n_z))
    C = g.standard_normal((n_x, n_z))
    return LinearGaussianSpec(
        A=A,
        C=C,
        q_diag=g.uniform(0.2, 0.8, n_z),
        r_diag=g.uniform(0.2, 0.8, n_x),
        init_mean=np.zeros(n_z),
        init_cov=np.eye(n_z),
    )


def test_gen_deterministic():
    lg = _small_lg()
    a = gen_linear_gaussian(lg, 10, seed=4)
    b = gen_linear_gaussian(lg, 10, seed=4)
    c = gen_linear_gaussian(lg, 10, seed=5)
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.x, c.x)
    assert a.x.shape == (10, 3)


def test_gen_second_step_covariance():
    # across draws, cov(x at t=1) must equal C (A S0 A' + Q) C' + R
    lg = _small_lg(1)
    n = 20000
    xs = np.stack([gen_linear_gaussian(lg, 2, seed=s).x[1] for s in range(n)])
    expected = (
        lg.C @ (lg.A @ lg.init_cov @ lg.A.T + np.diag(lg.q_diag)) @ lg.C.T
        + np.diag(lg.r_diag)
    )
    sample = np.cov(xs.T, ddof=1)
    d = np.sqrt(np.diag(expected))
    se = np.sqrt((np.outer(d, d) ** 2 + expected**2) / n)
    assert np.all(np.abs(sample - expected) < 5.0 * se)


def test_kalman_single_step_closed_form():
    # T=1 collapses to log N(x; C m0, C S0 C' + R)
    from scipy.stats import multivariate_normal

    lg = _small_lg(2)
    traj = gen_linear_gaussian(lg, 1, seed=7)
    expected = multivariate_normal(
        mean=lg.C @ lg.init_mean,
        cov=lg.C @ lg.init_cov @ lg.C.T + np.diag(lg.r_diag),
    ).logpdf(traj.x[0])
    assert kalman_loglik(lg, traj.x) == pytest.approx(float(expected), abs=1e-10)


def test_kalman_matches_joint_gaussian_brute_force():
    for seed in range(5):
        lg = _small_lg(seed)
        traj = gen_linear_gaussian(lg, 6, seed=seed + 100)
        fast = kalman_loglik(lg, traj.x)
        brute = joint_gaussian_loglik(lg, traj.x)
        assert fast == pytest.approx(brute, abs=1e-8)


def test_kalman_rejects_bad_shapes():
    lg = _small_lg()
    with pytest.raises(ValueError):
        kalman_loglik(lg, np.zeros((4, 5)))


def test_lg_spec_validation():
    with pytest.raises(ValueError):
        LinearGaussianSpec(
            A=np.eye(2), C=np.ones((3, 2)),
            q_diag=[0.1, -0.1], r_diag=[0.1, 0.1, 0.1],
            init_mean=np.zeros(2), init_cov=np.eye(2),
        )
