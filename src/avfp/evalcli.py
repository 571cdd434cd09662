"""Remaining-life scoring, the repeated-runs harness, and the command line.

Prediction works in two modes: a supervised readout from the trained
regression head, and a label-free health-index mode that projects latent
mean trajectories onto their first principal direction and matches each
test unit's recent degradation curve against the training fleet.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import rng
from .data import (
    DEFAULT_RUL_CAP,
    DataFormatError,
    Dataset,
    NormalizationStats,
    Trajectory,
    build_rul_targets,
    load_test_rul,
    normalize,
    parse_cmapss,
    save_dataset,
    save_stats,
    to_trajectories,
)
from .diffcore import (
    NonFiniteError,
    Tensor,
    constant,
    gauss_kl,
    gauss_logpdf,
    grad_check,
    no_tape,
)
from .model import ModelParams, NetworkSpec, init_params, rul_head
from .objectives import (
    Batch,
    adversarial_losses,
    combined_objective,
    filter_means,
    prior_rollout,
    sequence_elbo,
)
from .training import (
    TrainConfig,
    TrainingAborted,
    bound_gap_audit,
    load_checkpoint,
    params_from_checkpoint,
    run_steps,
    save_checkpoint,
    train,
    typed_fields,
)

# previously reported FD001 results, printed as context next to our
# numbers; they are a reporting reference, never an assertion
REFERENCE_FD001 = {"mean": 16.91, "std": 1.48, "min": 14.69}

DATA_DIR_ENV = "AVFP_DATA_DIR"


# ---------------------------------------------------------------------------
# prediction and scoring


@dataclass
class PredictionSet:
    """Predicted and true remaining life at each test unit's last cycle."""

    unit_ids: tuple[int, ...]
    predicted: np.ndarray
    truth: np.ndarray

    def __post_init__(self):
        self.predicted = np.asarray(self.predicted, dtype=np.float64)
        self.truth = np.asarray(self.truth, dtype=np.float64)
        n = len(self.unit_ids)
        if self.predicted.shape != (n,) or self.truth.shape != (n,):
            raise ValueError("one prediction and one truth per unit required")
        if len(set(self.unit_ids)) != n:
            raise ValueError("duplicate unit ids")
        if np.any(self.predicted < 0):
            raise ValueError("negative remaining-life prediction")


def rmse(pred: PredictionSet) -> float:
    """Root mean squared error over units."""
    if len(pred.unit_ids) == 0:
        raise ValueError("empty prediction set")
    return float(np.sqrt(np.mean((pred.predicted - pred.truth) ** 2)))


def _latent_means(params: ModelParams,
                  trajs: list[Trajectory]) -> list[np.ndarray]:
    """Every unit's (T, n_z) posterior means from one filter pass."""
    batch = Batch(trajs)
    return batch.unpack(filter_means(params, batch)[1])


def latent_mean_curve(params: ModelParams, traj: Trajectory) -> np.ndarray:
    """(T, n_z) posterior means from a deterministic filter pass."""
    return _latent_means(params, [traj])[0]


@dataclass
class HealthIndexMap:
    """Scalar degradation signal fitted on the training fleet.

    direction is the first principal direction of all per-cycle latent
    means, oriented so the index rises toward failure; curves holds one
    index trajectory per training unit, each a view of flat, where they
    lie one after another.  For the matcher, sq_prefix[i] is the sum of
    flat[:i] ** 2, and element i of flat lies in curve curve_of[i],
    to_end[i] elements (itself included) before that curve's end.
    """

    direction: np.ndarray
    center: np.ndarray
    curves: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False)
    sq_prefix: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)
    curve_of: np.ndarray = field(init=False, repr=False)
    to_end: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lengths = np.array([np.size(c) for c in self.curves], dtype=np.intp)
        if any(np.ndim(c) != 1 for c in self.curves) or np.any(lengths == 0):
            raise ValueError("health index curves must be non-empty and 1-D")
        flat = np.concatenate([np.zeros(0), *self.curves], dtype=np.float64)
        if not np.all(np.isfinite(flat)):
            raise ValueError("non-finite health index curve")
        ends = np.cumsum(lengths)
        self.flat = flat
        self.curves = np.split(flat, ends[:-1]) if len(lengths) else []
        self.sq_prefix = np.concatenate(([0.0], np.cumsum(flat * flat)))
        self.starts = ends - lengths
        self.curve_of = np.repeat(np.arange(len(lengths)), lengths)
        self.to_end = np.repeat(ends, lengths) - np.arange(flat.size)

    def project(self, means: np.ndarray) -> np.ndarray:
        """Index curve of one unit's (T, n_z) latent means."""
        return (means - self.center) @ self.direction

    def index_curve(self, params: ModelParams, traj: Trajectory) -> np.ndarray:
        return self.project(latent_mean_curve(params, traj))


def fit_health_index(params: ModelParams,
                     train_trajs: list[Trajectory]) -> HealthIndexMap:
    return _fit_index(_latent_means(params, train_trajs))


def _fit_index(means: list[np.ndarray]) -> HealthIndexMap:
    """The health index of the training units' (T, n_z) latent means."""
    if not means:
        raise ValueError("health index needs training trajectories")
    stacked = np.concatenate(means)
    center = stacked.mean(axis=0)
    _, _, vt = np.linalg.svd(stacked - center, full_matrices=False)
    direction = vt[0]
    curves = [(m - center) @ direction for m in means]
    # orient the index to rise over each unit's life on average
    drift = float(np.mean([c[-1] - c[0] for c in curves]))
    if drift < 0:
        direction = -direction
        curves = [-c for c in curves]
    return HealthIndexMap(direction=direction, center=center, curves=curves)


def match_remaining_life(hi: HealthIndexMap, test_curve: np.ndarray,
                         cap: int = DEFAULT_RUL_CAP) -> float:
    """Remaining life of the best-matching training window.

    The test unit's index curve t (length T) is slid over every training
    curve c; on a curve at least T long each window of T cycles is
    scored, a shorter curve is one window against t's last len(c)
    cycles.  The window with the lowest mean squared distance
    ((window - tail) ** 2).mean() wins, ties going to the earlier
    training curve and then to the earlier window, and the prediction
    is that curve's remaining life after the window's end, clipped to
    [0, cap].

    One array pass per call finds the winner exactly.  Screen: a window
    inside a long curve scores (sum c^2 - 2 c.t + sum t^2) / T, with
    sum c^2 from hi.sq_prefix and every c.t from one np.correlate over
    hi.flat; a short curve's one window scores its squared differences
    summed by np.bincount.  Bound: let u = eps / 2 be the unit
    roundoff, N = len(hi.flat), P = hi.sq_prefix, s a window's start and
    Q = P[s] + P[s+T] + sum t^2.  Counted as T times a distance, the
    prefix sums err by at most N u Q, the dot product and sum t^2 by
    2T u Q, the subtractions and the division by 7 u Q, and the loop's
    own expression by 2 (T + 3) u Q, so a screened window lies within
    (N + 4T + 13) u Q / T of the loop's value for it;
    r = 2 (N + 2T + 8) eps (Q + tiny) / T covers that at least twice,
    tiny (the least normal float) standing for underflow.  A short
    curve's screen and the loop's expression share every squared
    difference and differ only in summation order and the division:
    r = 2 (L + 4) eps (score + tiny) for a curve of length L.  Exact
    pick: every window whose score - r does not exceed the least
    score + r holds the loop's minimum or could tie with it; those few
    are recomputed with the loop's expression and ranked by (distance,
    training curve, window), as the loop ranks them.
    """
    t = np.asarray(test_curve, dtype=np.float64)
    if t.size == 0:
        raise ValueError("empty test curve")
    if t.ndim != 1:
        raise ValueError("test curve must be 1-D")
    if not hi.curves:
        raise ValueError("health index map has no training curves")
    T, N = t.size, hi.flat.size
    tt = float(t @ t)
    # the same check keeps every screened sum below overflow
    if not np.isfinite(4.0 * (tt + hi.sq_prefix[-1])):
        raise ValueError("non-finite test curve, or index values too large")
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    flat, to_end, sq = hi.flat, hi.to_end, hi.sq_prefix

    # screen every window of T cycles inside one curve, by its start
    pos = np.flatnonzero(to_end[:max(N - T + 1, 0)] >= T)
    head, end = sq[pos], sq[pos + T]
    cross = np.correlate(flat, t, "valid")[pos]
    score = (end - head - 2.0 * cross + tt) / T
    r = (2.0 * (N + 2 * T + 8) * eps / T) * (head + end + tt + tiny)
    # and each curve shorter than T, one window at its start
    lengths = to_end[hi.starts]
    short = np.flatnonzero(lengths < T)
    el = np.flatnonzero(lengths[hi.curve_of] < T)
    d = flat[el] - t[T - to_end[el]]
    s_short = np.bincount(hi.curve_of[el], weights=d * d,
                          minlength=lengths.size)[short] / lengths[short]
    score = np.concatenate((score, s_short))
    r = np.concatenate((r, 2.0 * (lengths[short] + 4) * eps * (s_short + tiny)))
    pos = np.concatenate((pos, hi.starts[short]))

    # rescore the windows that could hold the loop's minimum
    pos = pos[score - r <= np.min(score + r)]
    exact = np.empty(pos.size)
    long_ = to_end[pos] >= T
    windows = flat[pos[long_, None] + np.arange(T)]
    exact[long_] = ((windows - t) ** 2).mean(axis=1)
    for j in np.flatnonzero(~long_):
        L = to_end[pos[j]]
        window = flat[pos[j]:pos[j] + L][None]
        exact[j] = ((window - t[-L:]) ** 2).mean(axis=1)[0]
    best = pos[np.lexsort((pos, exact))[0]]
    return float(min(max(to_end[best] - T, 0), cap))


def predict_rul(params: ModelParams, test_trajs: list[Trajectory],
                truth: dict[int, float], mode: str = "supervised",
                cap: int = DEFAULT_RUL_CAP,
                train_trajs: list[Trajectory] | None = None) -> PredictionSet:
    """One remaining-life estimate per test unit at its last cycle."""
    if mode not in ("supervised", "health_index"):
        raise ValueError(f"unknown prediction mode '{mode}'")
    if not test_trajs:
        raise ValueError("no test units")
    for t in test_trajs:
        if t.length == 0:
            raise ValueError(f"unit {t.unit_id} is empty")
        for name, width, have in (("sensor", params.spec.n_x, t.x.shape[1]),
                                  ("setting", params.spec.n_u, t.u.shape[1])):
            if have != width:
                raise ValueError(f"channel mismatch: model expects {width} "
                                 f"{name} channels, data provides {have}")
        if t.unit_id not in truth:
            raise ValueError(f"no true remaining life for unit {t.unit_id}")

    ordered = sorted(test_trajs, key=lambda t: t.unit_id)
    if mode == "supervised":
        # the readout runs on each unit's last filtered row only
        batch = Batch(ordered)
        last = [rows[-1] for rows in batch.rows]
        feats = np.hstack([f[last] for f in filter_means(params, batch)])
        with no_tape():
            preds = np.minimum(rul_head(params, feats).data, float(cap))
    else:
        if train_trajs is None:
            raise ValueError("health_index mode needs training trajectories")
        # one filter pass over the training and the test units
        means = _latent_means(params, [*train_trajs, *ordered])
        hi = _fit_index(means[:len(train_trajs)])
        preds = [match_remaining_life(hi, hi.project(m), cap)
                 for m in means[len(train_trajs):]]
    return PredictionSet(
        unit_ids=tuple(t.unit_id for t in ordered),
        predicted=np.array(preds),
        truth=np.array([truth[t.unit_id] for t in ordered]),
    )


# ---------------------------------------------------------------------------
# repeated-runs experiment harness


@dataclass
class RunRecord:
    run: int
    seed: int
    best_step: int
    best_rmse: float
    curve: list[tuple[int, float]]
    aborted: bool = False


@dataclass
class RunSummary:
    """Per-run scores plus fleet-level aggregates over completed runs."""

    records: list[RunRecord]

    @property
    def completed(self) -> list[RunRecord]:
        return [r for r in self.records if not r.aborted]

    @property
    def aborted_runs(self) -> list[int]:
        return [r.run for r in self.records if r.aborted]

    def _scores(self) -> np.ndarray:
        done = self.completed
        if not done:
            raise ValueError("no completed runs")
        return np.array([r.best_rmse for r in done])

    @property
    def mean_rmse(self) -> float:
        return float(np.mean(self._scores()))

    @property
    def std_rmse(self) -> float:
        return float(np.std(self._scores()))  # population std over runs

    @property
    def min_rmse(self) -> float:
        return float(np.min(self._scores()))

    @property
    def argmin(self) -> tuple[int, int]:
        """(run, step) of the smallest per-run selected score."""
        best = min(self.completed, key=lambda r: (r.best_rmse, r.run))
        return best.run, best.best_step

    @property
    def curve_min(self) -> tuple[float, int, int]:
        """(rmse, run, step) of the smallest value on any curve."""
        rows = [(v, r.run, s) for r in self.completed for s, v in r.curve]
        if not rows:
            raise ValueError("no curve points")
        return min(rows)


def run_experiment(train_trajs: list[Trajectory],
                   test_trajs: list[Trajectory], truth: dict[int, float],
                   spec: NetworkSpec, config: TrainConfig,
                   n_runs: int) -> RunSummary:
    """Train n_runs independent models at seeds seed, seed+1, ...

    Each run's curve is the test-set RMSE, predictions capped at the
    config's rul_cap, at every evaluation checkpoint; its reported score
    is the curve value at the step with the best validation RMSE
    (falling back to the curve minimum when no validation split
    exists).  Runs aborted by training or by a non-finite value are
    recorded and excluded from the aggregates.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")

    records = []
    for i in range(n_runs):
        cfg = replace(config, seed=config.seed + i)
        curve = []   # the test score at every step the run evaluates
        try:
            for res in run_steps(train_trajs, spec, cfg):
                if len(res.evals) > len(curve):
                    curve.append((res.evals[-1].step, rmse(predict_rul(
                        res.params, test_trajs, truth, cap=config.rul_cap))))
        except (TrainingAborted, NonFiniteError):
            records.append(RunRecord(run=i, seed=cfg.seed, best_step=-1,
                                     best_rmse=float("nan"), curve=[],
                                     aborted=True))
            continue
        if res.best_step is not None:
            sel = next(p for p in curve if p[0] == res.best_step)
        else:
            sel = min(curve, key=lambda p: (p[1], p[0]))
        records.append(RunRecord(run=i, seed=cfg.seed, best_step=sel[0],
                                 best_rmse=sel[1], curve=curve))
    return RunSummary(records=records)


def emit_plot_data(summary: RunSummary, out_dir: str) -> tuple[str, str]:
    """Write curves.csv and summary.json; byte-identical on re-emission.

    curves.csv columns: run, step, rmse, is_best (the run's selected
    checkpoint), is_min (the single lowest-rmse row over all curves).
    """
    os.makedirs(out_dir, exist_ok=True)
    cm_val, cm_run, cm_step = summary.curve_min
    lines = ["run,step,rmse,is_best,is_min"]
    for r in summary.completed:
        for s, v in r.curve:
            is_best = int(s == r.best_step)
            is_min = int(r.run == cm_run and s == cm_step)
            lines.append(f"{r.run},{s},{v:.17g},{is_best},{is_min}")
    curves_path = os.path.join(out_dir, "curves.csv")
    with open(curves_path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")

    run_min, step_min = summary.argmin
    doc = {
        "n_runs": len(summary.records),
        "completed_runs": len(summary.completed),
        "aborted_runs": summary.aborted_runs,
        "mean_rmse": summary.mean_rmse,
        "std_rmse": summary.std_rmse,
        "min_rmse": summary.min_rmse,
        "argmin_run": run_min,
        "argmin_step": step_min,
        "curve_min_rmse": cm_val,
        "curve_min_run": cm_run,
        "curve_min_step": cm_step,
    }
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w", newline="") as f:
        f.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return curves_path, summary_path


# ---------------------------------------------------------------------------
# derivative audit over every objective


def _model_leaves(params: ModelParams, parts: tuple[str, ...]):
    leaves = params.group(*parts)
    return (list(leaves.values()),
            lambda trial: params.with_tensors(dict(zip(leaves, trial))))


def _audit_spec() -> NetworkSpec:
    return NetworkSpec(n_x=2, n_u=1, n_z=2, n_h=3, enc_hidden=2,
                       dec_hidden=2, prior_hidden=2, disc_hidden=2,
                       rul_hidden=2)


def gradient_audit(draws: int = 20, seed: int = 0) -> dict[str, float]:
    """Reverse-mode vs central differences on every objective.

    Returns the worst relative error per objective over the requested
    number of random parameter draws.
    """
    worst = {"log_density": 0.0, "kl": 0.0, "elbo": 0.0,
             "adversarial": 0.0, "combined": 0.0}
    for d in range(draws):
        g = rng.stream(seed, "grad-audit", d)

        n = int(g.integers(1, 5))
        x = g.normal(0, 2.0, n)
        leaves = [Tensor(g.uniform(-1.5, 1.5, n)),
                  Tensor(g.uniform(-1.5, 1.5, n))]
        worst["log_density"] = max(worst["log_density"], grad_check(
            lambda ps: gauss_logpdf(constant(x), *ps), leaves))

        k = int(g.integers(1, 5))
        leaves = [Tensor(g.uniform(-1.5, 1.5, k)) for _ in range(4)]
        worst["kl"] = max(worst["kl"], grad_check(
            lambda ps: gauss_kl(*ps), leaves))

        m = int(g.integers(2, 5))
        probs = [Tensor(g.uniform(0.05, 0.95, m)),
                 Tensor(g.uniform(0.05, 0.95, m))]
        worst["adversarial"] = max(
            worst["adversarial"],
            grad_check(lambda ps: adversarial_losses(ps[0], ps[1])[0], probs),
            grad_check(lambda ps: adversarial_losses(ps[0], ps[1])[1], probs),
        )

        # a ragged batch of two, so the audit covers the row cuts
        spec = _audit_spec()
        params = init_params(spec, markovian=False, seed=1000 + d)
        trajs = [Trajectory(unit_id=k, x=g.standard_normal((T, spec.n_x)),
                            u=g.standard_normal((T, spec.n_u)))
                 for k, T in enumerate((5, 3))]
        noise = [g.standard_normal((t.length, spec.n_z)) for t in trajs]
        batch = Batch(trajs)

        tensors, rebuild = _model_leaves(params, ("theta", "phi"))
        worst["elbo"] = max(worst["elbo"], grad_check(
            lambda ps: sequence_elbo(rebuild(ps), batch, batch.pack(noise))[0],
            tensors, step=1e-5))

        prior = prior_rollout(params, batch, batch.pack(
            [g.standard_normal((t.length, spec.n_z)) for t in trajs])).data
        tensors, rebuild = _model_leaves(params, ("theta", "phi", "psi"))
        worst["combined"] = max(worst["combined"], grad_check(
            lambda ps: combined_objective(rebuild(ps), batch, noise, 0.3,
                                          prior)[1],
            tensors, step=1e-5))
    return worst


# ---------------------------------------------------------------------------
# dataset plumbing shared by the subcommands


@dataclass
class Corpus:
    train_trajs: list[Trajectory]
    test_trajs: list[Trajectory]
    truth: dict[int, float]
    n_x: int
    n_u: int
    files: dict[str, str]
    train_ds: Dataset
    test_ds: Dataset
    stats: NormalizationStats


def load_corpus(data_dir: str, tag: str = "FD001") -> Corpus:
    """The normalized train and test units of one subset; the train
    targets take the default cap (_training_setup recaps them)."""
    files = {
        "train": os.path.join(data_dir, f"train_{tag}.txt"),
        "test": os.path.join(data_dir, f"test_{tag}.txt"),
        "rul": os.path.join(data_dir, f"RUL_{tag}.txt"),
    }
    for path in files.values():
        if not os.path.exists(path):
            raise DataFormatError(f"missing data file: {path}")
    train_raw = parse_cmapss(files["train"], split="train")
    test_raw = parse_cmapss(files["test"], split="test")
    train_ds, stats = normalize(train_raw)
    test_ds, _ = normalize(test_raw, stats)
    targets = build_rul_targets(train_raw)
    train_trajs = to_trajectories(train_ds, targets)
    test_trajs = to_trajectories(test_ds)
    truth = load_test_rul(files["rul"], test_ds.unit_ids)
    return Corpus(
        train_trajs=train_trajs, test_trajs=test_trajs, truth=truth,
        n_x=train_trajs[0].x.shape[1], n_u=train_trajs[0].u.shape[1],
        files=files, train_ds=train_ds, test_ds=test_ds, stats=stats,
    )


def load_config(path: str | None, n_x: int,
                n_u: int) -> tuple[NetworkSpec, TrainConfig, dict]:
    """Single JSON file carrying network and training fields, snake_case.

    n_x and n_u always come from the data, so listing them in the file
    is an error, as is any unknown key or a value of the wrong JSON type
    (training.typed_fields).
    """
    doc = {}
    if path is not None:
        with open(path) as f:
            doc = json.load(f)
        if not isinstance(doc, dict):
            raise ValueError("config file must hold a JSON object")
    if "n_x" in doc or "n_u" in doc:
        raise ValueError("n_x and n_u are set from the data, not the config")
    unknown = set(doc) - {f.name for cls in (NetworkSpec, TrainConfig)
                          for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    spec = NetworkSpec(n_x=n_x, n_u=n_u,
                       **typed_fields(NetworkSpec, doc, "config key "))
    config = TrainConfig(**typed_fields(TrainConfig, doc, "config key "))
    return spec, config, doc


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path: str, config_doc: dict, data_files: dict[str, str],
                   seed: int, wall_time: float) -> None:
    from . import __version__

    doc = {
        "version": __version__,
        "config_sha256": hashlib.sha256(
            json.dumps(config_doc, sort_keys=True,
                       separators=(",", ":")).encode()).hexdigest(),
        "data_sha256": {os.path.basename(p): _sha256_file(p)
                        for p in data_files.values()},
        "seed": seed,
        "wall_time_s": round(wall_time, 3),
    }
    with open(path, "w", newline="") as f:
        f.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we report 1
        raise _UsageError(message)


def _at_least(lo: int):
    """An argument type: an integer no less than lo."""
    def integer(text: str) -> int:   # argparse names it in its messages
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {text}")
        return int(text)
    return integer


def _data_dir(args) -> str:
    d = args.data or os.environ.get(DATA_DIR_ENV)
    if not d:
        raise _UsageError(
            f"no dataset location: pass --data or set {DATA_DIR_ENV}")
    return d


def cmd_ingest(args) -> int:
    corpus = load_corpus(_data_dir(args), args.tag)
    os.makedirs(args.out, exist_ok=True)
    save_dataset(corpus.train_ds, os.path.join(args.out, "train_normalized.csv"))
    save_dataset(corpus.test_ds, os.path.join(args.out, "test_normalized.csv"))
    save_stats(corpus.stats, os.path.join(args.out, "stats.json"))
    print(f"train: {corpus.train_ds.n_units} units, "
          f"{corpus.train_ds.n_rows} rows")
    print(f"test: {corpus.test_ds.n_units} units, {corpus.test_ds.n_rows} rows")
    print(f"retained channels: {corpus.n_x} sensors, {corpus.n_u} settings")
    return 0


def _training_setup(args) -> tuple[Corpus, NetworkSpec, TrainConfig, dict]:
    """The corpus and config of a training command; the training
    targets are capped at the config's rul_cap."""
    corpus = load_corpus(_data_dir(args), args.tag)
    spec, config, doc = load_config(args.config, corpus.n_x, corpus.n_u)
    targets = build_rul_targets(corpus.train_ds, config.rul_cap)
    corpus = replace(corpus, train_trajs=to_trajectories(corpus.train_ds,
                                                         targets))
    return corpus, spec, config, doc


def cmd_train(args) -> int:
    t0 = time.time()
    corpus, spec, config, doc = _training_setup(args)
    res = train(corpus.train_trajs, spec, config)
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(res.checkpoint, os.path.join(args.out, "model.ckpt"))
    with open(os.path.join(args.out, "trace.csv"), "w", newline="") as f:
        f.write("step,epoch,combined,recon,kl,adv_gen,adv_disc,"
                "disc_loss,rul_loss\n")
        for s in res.steps:
            dl = "" if s.disc_loss is None else f"{s.disc_loss:.17g}"
            rl = "" if s.rul_loss is None else f"{s.rul_loss:.17g}"
            f.write(f"{s.step},{s.epoch},{s.combined:.17g},{s.recon:.17g},"
                    f"{s.kl:.17g},{s.adv_gen:.17g},{s.adv_disc:.17g},"
                    f"{dl},{rl}\n")
    with open(os.path.join(args.out, "evals.csv"), "w", newline="") as f:
        f.write("step,val_rmse\n")
        for e in res.evals:
            v = "" if e.val_rmse is None else f"{e.val_rmse:.17g}"
            f.write(f"{e.step},{v}\n")
    write_manifest(os.path.join(args.out, "manifest.json"), doc,
                   corpus.files, config.seed, time.time() - t0)
    best = ("none" if res.best_val_rmse is None
            else f"{res.best_val_rmse:.4f} at step {res.best_step}")
    print(f"trained {res.checkpoint.step} steps; "
          f"skipped {res.skipped_batches} batches; best val RMSE {best}")
    return 0


def _checkpoint_predictions(args) -> PredictionSet:
    """The test-split predictions of the checkpoint in args.mode."""
    ckpt = load_checkpoint(args.checkpoint)
    corpus = load_corpus(_data_dir(args), args.tag)
    if ckpt.spec.n_x != corpus.n_x or ckpt.spec.n_u != corpus.n_u:
        raise ValueError(
            f"checkpoint/data mismatch: model expects {ckpt.spec.n_x} sensor "
            f"and {ckpt.spec.n_u} setting channels, data provides "
            f"{corpus.n_x} and {corpus.n_u}")
    return predict_rul(params_from_checkpoint(ckpt), corpus.test_trajs,
                       corpus.truth, mode=args.mode, cap=ckpt.config.rul_cap,
                       train_trajs=corpus.train_trajs)


def cmd_eval(args) -> int:
    pred = _checkpoint_predictions(args)
    print(f"test RMSE ({args.mode}): {rmse(pred):.4f} "
          f"over {len(pred.unit_ids)} units")
    return 0


def cmd_predict(args) -> int:
    pred = _checkpoint_predictions(args)
    with open(args.out, "w", newline="") as f:
        f.write("unit_id,predicted_rul,true_rul\n")
        for u, p, t in zip(pred.unit_ids, pred.predicted, pred.truth):
            f.write(f"{u},{p:.17g},{t:.17g}\n")
    print(f"wrote {len(pred.unit_ids)} predictions to {args.out}")
    return 0


def _print_summary(tagline: str, s: RunSummary) -> None:
    run_min, step_min = s.argmin
    print(f"{tagline}: {len(s.completed)}/{len(s.records)} runs completed; "
          f"mean RMSE {s.mean_rmse:.4f}, std {s.std_rmse:.4f}, "
          f"min {s.min_rmse:.4f} (run {run_min}, step {step_min})")


def cmd_experiment(args) -> int:
    t0 = time.time()
    corpus, spec, config, doc = _training_setup(args)
    os.makedirs(args.out, exist_ok=True)

    def experiment(cfg: TrainConfig) -> RunSummary:
        s = run_experiment(corpus.train_trajs, corpus.test_trajs,
                           corpus.truth, spec, cfg, args.runs)
        if not s.completed:
            raise TrainingAborted(f"all {len(s.records)} runs aborted")
        return s

    if args.compare_markovian:
        header = "markovian,runs,mean_rmse,std_rmse,min_rmse"
        rows = []
        for markov in (False, True):
            s = experiment(replace(config, markovian=markov))
            emit_plot_data(s, os.path.join(
                args.out, "markov" if markov else "history"))
            _print_summary("markovian" if markov else "full-history", s)
            rows.append(f"{str(markov).lower()},{len(s.completed)},"
                        f"{s.mean_rmse:.17g},{s.std_rmse:.17g},"
                        f"{s.min_rmse:.17g}")
        with open(os.path.join(args.out, "ablation.csv"), "w", newline="") as f:
            f.write(header + "\n" + "\n".join(rows) + "\n")
        print(header)
        for row in rows:
            print(row)
    else:
        s = experiment(config)
        emit_plot_data(s, args.out)
        _print_summary("experiment", s)
        print(f"context, previously reported FD001 results: "
              f"mean {REFERENCE_FD001['mean']}, std {REFERENCE_FD001['std']}, "
              f"best {REFERENCE_FD001['min']}")
    write_manifest(os.path.join(args.out, "manifest.json"), doc,
                   corpus.files, config.seed, time.time() - t0)
    return 0


def cmd_gradcheck(args) -> int:
    worst = gradient_audit(draws=args.draws, seed=args.seed)
    ok = True
    for name, err in worst.items():
        status = "ok" if err < args.tol else "FAIL"
        ok = ok and err < args.tol
        print(f"{name:12s} max relative error {err:.3e}  {status}")
    return 0 if ok else 4


def cmd_oracle(args) -> int:
    rows = bound_gap_audit(n_instances=args.instances, draws=args.draws,
                           fit_steps=args.fit_steps, seed=args.seed)
    held = sum(r.bound_ok for r in rows)
    shrunk = sum(r.shrunk for r in rows)
    for r in rows:
        print(f"seed {r.seed}: n_z={r.n_z} n_x={r.n_x} T={r.length} "
              f"exact={r.exact:.3f} bound {r.before_mean:.3f} -> "
              f"{r.after_mean:.3f} (gap {r.gap_before:.3f} -> "
              f"{r.gap_after:.3f})")
    print(f"bound held on {held}/{len(rows)} instances; "
          f"gap shrank on {shrunk}/{len(rows)}")
    return 0 if held == len(rows) else 4


# ---------------------------------------------------------------------------
# argument surface


def build_parser() -> _Parser:
    p = _Parser(prog="avfp", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_data(sp):
        sp.add_argument("--data", default=None,
                        help=f"dataset directory (default ${DATA_DIR_ENV})")
        sp.add_argument("--tag", default="FD001",
                        help="dataset tag in file names (default FD001)")

    sp = sub.add_parser("ingest", help="parse, normalize, and cache a dataset")
    add_data(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("train", help="run one seeded training")
    add_data(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--config", default=None, help="JSON config file")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="score a checkpoint on the test split")
    add_data(sp)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--mode", default="supervised",
                    choices=("supervised", "health_index"))
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("predict", help="write per-unit predictions CSV")
    add_data(sp)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--mode", default="supervised",
                    choices=("supervised", "health_index"))
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("experiment", help="repeated seeded runs + plot data")
    add_data(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--config", default=None, help="JSON config file")
    sp.add_argument("--runs", type=_at_least(1), default=1)
    sp.add_argument("--compare-markovian", action="store_true",
                    help="run both history modes and emit a comparison table")
    sp.set_defaults(func=cmd_experiment)

    sp = sub.add_parser("gradcheck", help="derivative audit of every objective")
    sp.add_argument("--draws", type=_at_least(1), default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.set_defaults(func=cmd_gradcheck)

    sp = sub.add_parser("oracle", help="variational bound vs exact filter")
    sp.add_argument("--instances", type=_at_least(1), default=20)
    sp.add_argument("--draws", type=_at_least(2), default=256)
    sp.add_argument("--fit-steps", type=_at_least(0), default=2000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_oracle)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except TrainingAborted as e:
        print(f"training aborted: {e}", file=sys.stderr)
        return 3
    except NonFiniteError as e:
        print(f"non-finite values: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

