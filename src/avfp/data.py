"""Run-to-failure sensor data: parsing, normalization, RUL targets.

Handles the 26-column turbofan degradation text format (unit id, cycle,
3 operating settings, 21 sensor channels, whitespace separated), plus
linear-Gaussian state-space simulation with an exact Kalman-filter
log-likelihood used as an oracle for variational bounds.

A parsed split is columnar: one settings array and one sensors array
with a row per cycle, grouped by ascending unit id, plus the row offset
at which each unit starts.  Parsing, normalization, targets and the CSV
cache are array operations on that layout; trajectories are row slices.

Normalization is strict train-statistics z-scoring: constant channels
(population std below 1e-8 on the training split) are dropped, and the
same retained-channel list and moments are applied verbatim to test
data.  RUL targets are capped piecewise-linear: min(failure_cycle -
cycle, cap), so late-life cycles decay linearly to 0 at failure.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import rng

N_SETTINGS = 3
N_SENSORS = 21
N_COLUMNS = 2 + N_SETTINGS + N_SENSORS
CONSTANT_STD_THRESHOLD = 1e-8
DEFAULT_RUL_CAP = 125

SETTING_NAMES = tuple(f"setting_{i + 1}" for i in range(N_SETTINGS))
SENSOR_NAMES = tuple(f"sensor_{i + 1:02d}" for i in range(N_SENSORS))


class DataFormatError(ValueError):
    """Input file violates the expected on-disk format."""


@dataclass
class Dataset:
    """Columnar cycle records, either raw (3+21 channels) or normalized.

    Rows are grouped by ascending unit id and, within a unit, ordered by
    cycle 1..n, so unit i owns rows offsets[i]:offsets[i + 1] and a row's
    cycle is its position in that range plus one.
    """

    unit_ids: np.ndarray
    offsets: np.ndarray
    settings: np.ndarray
    sensors: np.ndarray
    split: str
    setting_names: tuple[str, ...] = SETTING_NAMES
    sensor_names: tuple[str, ...] = SENSOR_NAMES
    normalized: bool = False

    @property
    def n_units(self) -> int:
        return len(self.unit_ids)

    @property
    def n_rows(self) -> int:
        return int(self.offsets[-1])


@dataclass
class NormalizationStats:
    """Train-split channel moments and the retained-channel lists."""

    setting_names: tuple[str, ...]
    sensor_names: tuple[str, ...]
    setting_mean: np.ndarray
    setting_std: np.ndarray
    sensor_mean: np.ndarray
    sensor_std: np.ndarray
    dropped: tuple[str, ...]


@dataclass
class Trajectory:
    """Model-facing sequence: x are observations, u exogenous inputs.

    rul, when present, is the per-cycle capped target aligned with x.
    """

    unit_id: int
    x: np.ndarray
    u: np.ndarray
    rul: np.ndarray | None = None

    @property
    def length(self) -> int:
        return self.x.shape[0]


# ---------------------------------------------------------------------------
# parsing


def parse_cmapss(path: str, split: str) -> Dataset:
    """Parse a 26-column run-to-failure text file of the given split
    ("train" or "test") into a Dataset.

    Raises DataFormatError on an unknown split, wrong column counts,
    non-numeric or non-finite fields, or per-unit cycle indices that are
    not 1, 2, 3, ...
    """
    if split not in ("train", "test"):
        raise DataFormatError(f"split must be 'train' or 'test', got '{split}'")

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty file warns before we raise
            raw = np.loadtxt(path, dtype=np.float64, ndmin=2)
    except ValueError as e:
        raise DataFormatError(f"non-numeric or ragged data in {path}: {e}") from e
    if raw.size == 0:
        raise DataFormatError(f"empty data file: {path}")
    if raw.shape[1] != N_COLUMNS:
        raise DataFormatError(
            f"{path}: expected {N_COLUMNS} columns, found {raw.shape[1]}"
        )

    bad = ~np.isfinite(raw[:, 2:])
    if bad.any():
        row, col = np.argwhere(bad)[0]
        name = (SETTING_NAMES + SENSOR_NAMES)[col]
        raise DataFormatError(f"{path}: non-finite {name} in data row {row + 1}")
    ids = raw[:, 0]
    # positive whole numbers within int64 range (NaN compares false)
    bad = ~((ids >= 1) & (ids < 2.0**63) & (ids == np.trunc(ids)))
    if bad.any():
        raise DataFormatError(f"bad unit id {ids[np.argmax(bad)]!r}")

    # stable: a unit's rows keep their file order even when interleaved
    order = np.argsort(ids, kind="stable")
    unit_ids, starts = np.unique(ids[order].astype(np.int64), return_index=True)
    offsets = np.append(starts, len(raw))
    wrong = raw[order, 1] != _cycles(offsets)
    if wrong.any():
        unit = unit_ids[np.searchsorted(offsets, np.argmax(wrong), "right") - 1]
        raise DataFormatError(f"unit {unit}: cycles are not consecutive from 1")
    return Dataset(
        unit_ids=unit_ids,
        offsets=offsets,
        settings=raw[order, 2 : 2 + N_SETTINGS],
        sensors=raw[order, 2 + N_SETTINGS :],
        split=split,
    )


def _cycles(offsets: np.ndarray) -> np.ndarray:
    """Each row's cycle: its position within its unit's rows, from 1."""
    return np.arange(offsets[-1]) - np.repeat(offsets[:-1], np.diff(offsets)) + 1


# ---------------------------------------------------------------------------
# normalization


def compute_stats(ds: Dataset) -> NormalizationStats:
    """Channel moments from a raw training split; constants get dropped."""
    if ds.normalized:
        raise ValueError("stats must be computed on raw data")
    if ds.split != "train":
        raise ValueError("normalization statistics come from the train split only")
    set_mean, set_std = ds.settings.mean(axis=0), ds.settings.std(axis=0)
    sen_mean, sen_std = ds.sensors.mean(axis=0), ds.sensors.std(axis=0)

    keep_set = set_std >= CONSTANT_STD_THRESHOLD
    keep_sen = sen_std >= CONSTANT_STD_THRESHOLD
    dropped = tuple(
        [n for n, k in zip(ds.setting_names, keep_set) if not k]
        + [n for n, k in zip(ds.sensor_names, keep_sen) if not k]
    )
    return NormalizationStats(
        setting_names=tuple(np.array(ds.setting_names)[keep_set]),
        sensor_names=tuple(np.array(ds.sensor_names)[keep_sen]),
        setting_mean=set_mean[keep_set],
        setting_std=set_std[keep_set],
        sensor_mean=sen_mean[keep_sen],
        sensor_std=sen_std[keep_sen],
        dropped=dropped,
    )


def normalize(
    ds: Dataset, stats: NormalizationStats | None = None
) -> tuple[Dataset, NormalizationStats]:
    """Z-score retained channels; stats default to this (train) split's."""
    if ds.normalized:
        raise ValueError("dataset is already normalized")
    if stats is None:
        stats = compute_stats(ds)

    keep_set = [ds.setting_names.index(n) for n in stats.setting_names]
    keep_sen = [ds.sensor_names.index(n) for n in stats.sensor_names]

    norm = replace(
        ds,
        # take, not [:, keep]: the latter is column-major, which would make
        # every unit's row slice in to_trajectories strided
        settings=(ds.settings.take(keep_set, axis=1) - stats.setting_mean)
        / stats.setting_std,
        sensors=(ds.sensors.take(keep_sen, axis=1) - stats.sensor_mean)
        / stats.sensor_std,
        setting_names=stats.setting_names,
        sensor_names=stats.sensor_names,
        normalized=True,
    )
    return norm, stats


# ---------------------------------------------------------------------------
# dataset cache and stats sidecar (written for inspection; nothing reads them)


def save_dataset(ds: Dataset, path: str) -> None:
    """CSV cache: header row names retained channels, rows keep unit order."""
    cols = ["unit", "cycle", *ds.setting_names, *ds.sensor_names]
    table = np.column_stack([
        np.repeat(ds.unit_ids, np.diff(ds.offsets)),
        _cycles(ds.offsets),
        ds.settings,
        ds.sensors,
    ])
    fmt = ["%d", "%d"] + ["%.17g"] * (len(cols) - 2)
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=",".join(cols),
               comments="")


def save_stats(stats: NormalizationStats, path: str) -> None:
    doc = {
        "setting_mean": dict(zip(stats.setting_names, stats.setting_mean.tolist())),
        "setting_std": dict(zip(stats.setting_names, stats.setting_std.tolist())),
        "sensor_mean": dict(zip(stats.sensor_names, stats.sensor_mean.tolist())),
        "sensor_std": dict(zip(stats.sensor_names, stats.sensor_std.tolist())),
        "dropped": list(stats.dropped),
        "rul_cap": DEFAULT_RUL_CAP,
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)


# ---------------------------------------------------------------------------
# RUL targets


def build_rul_targets(ds: Dataset, cap: int = DEFAULT_RUL_CAP) -> dict[int, np.ndarray]:
    """Capped remaining-life target per cycle for run-to-failure units.

    target[t] = min(T_u - cycle_t, cap); 0 at the failure cycle.  Test
    splits are truncated before failure, so asking for their targets is
    an error.
    """
    if ds.split != "train":
        raise ValueError("per-cycle RUL targets exist only for run-to-failure data")
    if cap <= 0:
        raise ValueError("cap must be positive")
    return {
        unit: np.minimum(np.arange(n - 1, -1, -1, dtype=np.float64), float(cap))
        for unit, n in zip(ds.unit_ids.tolist(), np.diff(ds.offsets).tolist())
    }


def load_test_rul(
    path: str, unit_ids: np.ndarray | list[int] | None = None
) -> dict[int, float]:
    """True remaining life at each test unit's last observed cycle.

    One integer per line, line i belongs to the i-th unit (ascending id
    when unit_ids not given).
    """
    try:
        vals = np.loadtxt(path, dtype=np.float64, ndmin=1)
    except ValueError as e:
        raise DataFormatError(f"non-numeric value in {path}: {e}") from e
    if vals.ndim != 1:
        raise DataFormatError(f"{path}: expected one value per line")
    if not np.isfinite(vals).all():
        raise DataFormatError(f"{path}: non-finite remaining life")
    if np.any(vals < 0):
        raise DataFormatError(f"{path}: negative remaining life")
    ids = unit_ids if unit_ids is not None else list(range(1, len(vals) + 1))
    if len(ids) != len(vals):
        raise DataFormatError(
            f"{path}: {len(vals)} values for {len(ids)} test units"
        )
    return {int(u): float(v) for u, v in zip(ids, vals)}


def to_trajectories(
    ds: Dataset, targets: dict[int, np.ndarray] | None = None
) -> list[Trajectory]:
    """Dataset rows -> per-unit arrays, ascending unit id.

    When every exogenous channel was dropped, u is a zero column so the
    model keeps a fixed input width.
    """
    trajs = []
    for unit, a, b in zip(ds.unit_ids.tolist(), ds.offsets[:-1], ds.offsets[1:]):
        x = ds.sensors[a:b]
        u = ds.settings[a:b] if len(ds.setting_names) > 0 else np.zeros((b - a, 1))
        rul = None
        if targets is not None:
            if unit not in targets:
                raise ValueError(f"no RUL target for unit {unit}")
            rul = np.asarray(targets[unit], dtype=np.float64)
            if rul.shape[0] != x.shape[0]:
                raise ValueError(f"unit {unit}: target length mismatch")
        trajs.append(Trajectory(unit_id=unit, x=x, u=u, rul=rul))
    return trajs


def train_val_split(
    trajs: list[Trajectory], frac: float = 0.1
) -> tuple[list[Trajectory], list[Trajectory]]:
    """Hold out the last fraction of units by ascending unit id."""
    if not 0.0 < frac < 1.0:
        raise ValueError("frac must be in (0, 1)")
    ordered = sorted(trajs, key=lambda t: t.unit_id)
    n_val = max(1, int(round(frac * len(ordered))))
    if n_val >= len(ordered):
        raise ValueError("not enough units to split")
    return ordered[:-n_val], ordered[-n_val:]


# ---------------------------------------------------------------------------
# linear-Gaussian state-space instances


@dataclass
class LinearGaussianSpec:
    """z_0 ~ N(init_mean, init_cov); z_t = A z_{t-1} + w, w ~ N(0, diag(q));
    x_t = C z_t + v, v ~ N(0, diag(r))."""

    A: np.ndarray
    C: np.ndarray
    q_diag: np.ndarray
    r_diag: np.ndarray
    init_mean: np.ndarray
    init_cov: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=np.float64))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=np.float64))
        self.q_diag = np.asarray(self.q_diag, dtype=np.float64)
        self.r_diag = np.asarray(self.r_diag, dtype=np.float64)
        self.init_mean = np.asarray(self.init_mean, dtype=np.float64)
        self.init_cov = np.atleast_2d(np.asarray(self.init_cov, dtype=np.float64))
        n_z, n_x = self.A.shape[0], self.C.shape[0]
        if self.A.shape != (n_z, n_z):
            raise ValueError("A must be square")
        if self.C.shape != (n_x, n_z):
            raise ValueError(f"C shape {self.C.shape} incompatible with A")
        if self.q_diag.shape != (n_z,) or self.r_diag.shape != (n_x,):
            raise ValueError("noise diagonals have wrong length")
        if np.any(self.q_diag <= 0) or np.any(self.r_diag <= 0):
            raise ValueError("noise variances must be positive")
        if self.init_mean.shape != (n_z,) or self.init_cov.shape != (n_z, n_z):
            raise ValueError("initial moments have wrong shape")

    @property
    def n_z(self) -> int:
        return self.A.shape[0]

    @property
    def n_x(self) -> int:
        return self.C.shape[0]


def random_linear_gaussian_instance(seed: int) -> tuple[LinearGaussianSpec, int]:
    """Random stable instance plus a trajectory length, for bound audits:
    1-3 latent and 1-4 observed dimensions, 5-30 steps.

    The transition matrix is rescaled to spectral radius <= 0.9 so the
    simulated state stays well conditioned over the drawn horizon.
    """
    g = rng.stream(seed, "lg-instance")
    n_z = int(g.integers(1, 4))
    n_x = int(g.integers(1, 5))
    A = g.normal(0.0, 0.5, (n_z, n_z))
    radius = float(np.max(np.abs(np.linalg.eigvals(A))))
    if radius > 0.9:
        A *= 0.9 / radius
    lg = LinearGaussianSpec(
        A=A,
        C=g.normal(0.0, 1.0, (n_x, n_z)),
        q_diag=g.uniform(0.05, 0.5, n_z),
        r_diag=g.uniform(0.05, 0.5, n_x),
        init_mean=np.zeros(n_z),
        init_cov=np.eye(n_z),
    )
    return lg, int(g.integers(5, 31))


def gen_linear_gaussian(lg: LinearGaussianSpec, T: int, seed: int) -> Trajectory:
    """Simulate T observed steps of the instance."""
    if T <= 0:
        raise ValueError("T must be positive")
    g = rng.stream(seed, "lgssm")
    chol0 = np.linalg.cholesky(lg.init_cov)
    z = lg.init_mean + chol0 @ g.standard_normal(lg.n_z)
    xs = []
    for t in range(T):
        if t > 0:
            z = lg.A @ z + np.sqrt(lg.q_diag) * g.standard_normal(lg.n_z)
        xs.append(lg.C @ z + np.sqrt(lg.r_diag) * g.standard_normal(lg.n_x))
    return Trajectory(unit_id=0, x=np.stack(xs), u=np.zeros((T, 1)))


def kalman_loglik(lg: LinearGaussianSpec, x: np.ndarray) -> float:
    """Exact log p(x_{1:T}) for a linear-Gaussian instance.

    Standard predict/update recursion; the innovation covariance must
    be positive definite or a ValueError is raised.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != lg.n_x:
        raise ValueError(f"x has {x.shape[1]} channels, expected {lg.n_x}")
    m = lg.init_mean.copy()
    P = lg.init_cov.copy()
    Q = np.diag(lg.q_diag)
    R = np.diag(lg.r_diag)
    total = 0.0
    k = lg.n_x
    for t in range(x.shape[0]):
        if t > 0:
            m = lg.A @ m
            P = lg.A @ P @ lg.A.T + Q
        S = lg.C @ P @ lg.C.T + R
        try:
            L = np.linalg.cholesky(S)
        except np.linalg.LinAlgError as e:
            raise ValueError("innovation covariance not positive definite") from e
        e_t = x[t] - lg.C @ m
        alpha = np.linalg.solve(L, e_t)
        total += -0.5 * (
            k * np.log(2.0 * np.pi)
            + 2.0 * np.log(np.diag(L)).sum()
            + alpha @ alpha
        )
        K = P @ lg.C.T @ np.linalg.solve(S, np.eye(k))
        m = m + K @ e_t
        P = (np.eye(lg.n_z) - K @ lg.C) @ P
    return float(total)


# ---------------------------------------------------------------------------
# synthetic run-to-failure generator (format-faithful stand-in)


def write_synthetic_cmapss(
    out_dir: str,
    n_train_units: int = 12,
    n_test_units: int = 6,
    seed: int = 0,
    min_life: int = 60,
    max_life: int = 120,
) -> dict[str, str]:
    """Write train/test/RUL files in the 26-column turbofan format, named
    like those of the FD001 subset.

    Units degrade along a smooth health curve; a fixed subset of
    channels is constant (to exercise channel dropping) and the rest
    respond to degradation with unit-specific gains plus noise.  Test
    units are truncated before failure and the true remaining life goes
    into the RUL file.  Returns the three file paths.
    """
    g = rng.stream(seed, "synthetic-cmapss")
    os.makedirs(out_dir, exist_ok=True)
    const_sensors = {0, 4, 5, 9, 15, 17, 18}
    base = 100.0 + 20.0 * g.standard_normal(N_SENSORS)

    def unit_rows(unit: int, life: int, n_obs: int) -> list[str]:
        p = 1.5 + 1.5 * g.random()
        gains = g.normal(0.0, 8.0, size=N_SENSORS)
        rows = []
        for t in range(1, n_obs + 1):
            wear = (t / life) ** p
            settings = [
                0.0019 * g.standard_normal(),
                0.0003 * g.standard_normal(),
                100.0,
            ]
            sensors = []
            for i in range(N_SENSORS):
                if i in const_sensors:
                    sensors.append(base[i])
                else:
                    level = base[i] + gains[i] * wear + 0.02 * abs(
                        gains[i]
                    ) * g.standard_normal()
                    sensors.append(level)
            vals = [f"{unit}", f"{t}"]
            vals += [f"{v:.4f}" for v in settings]
            vals += [f"{v:.4f}" for v in sensors]
            rows.append(" ".join(vals))
        return rows

    train_path = os.path.join(out_dir, "train_FD001.txt")
    test_path = os.path.join(out_dir, "test_FD001.txt")
    rul_path = os.path.join(out_dir, "RUL_FD001.txt")

    with open(train_path, "w") as f:
        for unit in range(1, n_train_units + 1):
            life = int(g.integers(min_life, max_life + 1))
            f.write("\n".join(unit_rows(unit, life, life)) + "\n")

    truths = []
    with open(test_path, "w") as f:
        for unit in range(1, n_test_units + 1):
            life = int(g.integers(min_life, max_life + 1))
            remaining = int(g.integers(5, max(6, life // 2)))
            n_obs = life - remaining
            f.write("\n".join(unit_rows(unit, life, n_obs)) + "\n")
            truths.append(remaining)

    with open(rul_path, "w") as f:
        f.write("\n".join(str(v) for v in truths) + "\n")

    return {"train": train_path, "test": test_path, "rul": rul_path}
