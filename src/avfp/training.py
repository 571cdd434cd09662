"""Minimax training loop, flat-packed Adam, and bit-exact checkpointing.

Each batch runs up to three phases with strict parameter isolation,
each as one time-major pass over the whole batch (objectives.Batch):

  1. discriminator (psi): latent sequences are rolled out from the
     prior (real) and the recognition path (fake) with recording off,
     then scored by one pooled discriminator call each; only psi moves.
     The same prior rollout also draws phase 2's reference sequences
     (both draws read theta before phase 2 moves it).
  2. joint generative/recognition (theta, phi): maximize the combined
     objective; psi gradients exist on the tape but are not applied.
  3. remaining-life readout (rho): mean squared error against capped
     targets of one readout over the batch's stacked, detached filter
     rows [h_t, mean_t].

The bound audits use the same pass: fit_recognition filters a batch of
one, and mc_elbo scores its draws as the rows of one batch.

Randomness is derived per (seed, purpose, step), never from generator
state carried between draws, so a run checkpointed at step s and resumed
reproduces the uninterrupted run bit-exactly.  A batch whose phase-2
loss or gradients or whose prior rollout go non-finite is skipped in
phase 2: it moves no parameter there, logs no trace row and counts in
skipped_batches, and more than 10 such batches in a row abort the run.
Every phase's step whose loss or gradients go non-finite moves nothing
and counts in its Adam group's skipped count; a phase-1 or phase-3 step
counts nowhere else.

Checkpoints are a single binary file: magic "AVFP", u32 version, a
length-prefixed table of named float64 arrays, and a trailing 64-bit
checksum (first 8 bytes of the SHA-256 of the table).
"""

from __future__ import annotations

import hashlib
import os
import struct
from contextlib import contextmanager, suppress
from copy import deepcopy
from dataclasses import dataclass, field, fields, replace
from types import SimpleNamespace

import numpy as np

from . import rng
from .data import (
    DEFAULT_RUL_CAP,
    Trajectory,
    gen_linear_gaussian,
    kalman_loglik,
    random_linear_gaussian_instance,
    train_val_split,
)
from .diffcore import (
    NonFiniteError,
    Tape,
    Tensor,
    _check_finite,
    affine,
    backward,
    constant,
    log,
    no_tape,
    sigmoid,
    tanh,
)
from .model import (
    DISC_LOGIT_CLIP,
    ModelParams,
    NetworkSpec,
    discriminate,
    init_params,
    linear_gaussian_model,
    rul_head,
)
from .objectives import (
    Batch,
    adversarial_losses,
    combined_objective,
    filter_forward,
    filter_means,
    prior_rollout,
    sequence_elbo,
)

CHECKPOINT_MAGIC = b"AVFP"
CHECKPOINT_VERSION = 1
MAX_CONSECUTIVE_SKIPS = 10
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
GRADIENT_CLIP_NORM = 5.0  # global-norm bound of every Adam step's gradients


class TrainingAborted(RuntimeError):
    """Loss stayed non-finite for more than the tolerated streak."""


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimizerState:
    """Adam moments keyed by canonical parameter name."""

    lr: float
    t: int = 0
    skipped: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    _flat = None  # _pack's vectors and views; not a field


def _pack(group: dict[str, Tensor], state: OptimizerState) -> tuple:
    """The group's parameters, m and v as one float64 vector each, which
    the tensors and moment entries view; repacked once one does not."""
    data = {name: p.data for name, p in group.items()}
    held = [*data.values(), *map(state.m.get, data), *map(state.v.get, data)]
    if state._flat and len(held) == len(state._flat[3]) and all(
            a is b for a, b in zip(held, state._flat[3])):
        return state._flat
    ends = np.cumsum([arr.size for arr in data.values()])
    flats, views = [], []
    for saved in (data, state.m, state.v):
        parts = [saved.get(name, np.zeros(arr.shape)) for name, arr in data.items()]
        if [a.shape for a in parts] != [arr.shape for arr in data.values()]:
            raise ValueError("Adam moment shapes differ from the group's")
        flats.append(flat := np.concatenate(parts, axis=None))
        views.append({name: flat[end - arr.size:end].reshape(arr.shape)
                      for (name, arr), end in zip(data.items(), ends)})
    for name, p in group.items():
        p.data = views[0][name]
    state.m.update(views[1])
    state.v.update(views[2])
    state._flat = (*flats, [a for v in views for a in v.values()])
    return state._flat


def adam_step(group: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: OptimizerState) -> bool:
    """One bias-corrected update applied in place to the partition.

    grads must cover exactly this partition.  Any non-finite gradient
    skips the whole step (returns False, counted on the state).
    """
    if grads.keys() != group.keys():
        missing = set(group) ^ set(grads)
        raise ValueError(f"gradient/parameter name mismatch: {sorted(missing)}")
    for name, p in group.items():
        if grads[name].shape != p.data.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
    g = np.concatenate([grads[name] for name in group], axis=None)
    try:
        _check_finite("adam_step", g)
    except NonFiniteError:
        state.skipped += 1
        return False
    p, m, v, _ = _pack(group, state)
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return True


def clip_by_global_norm(grads: dict[str, np.ndarray],
                        max_norm: float) -> tuple[dict[str, np.ndarray], float]:
    """Scale the whole gradient set so its global norm is <= max_norm;
    finite squares that overflow are summed in units of the largest |g|."""
    total, unit = 0.0, 1.0
    with np.errstate(over="ignore"):
        for g in grads.values():
            total += float((g * g).sum())
    if total == np.inf and all(np.isfinite(g).all() for g in grads.values()):
        unit = max(float(np.abs(g).max(initial=0.0)) for g in grads.values())
        total = sum(float(np.square(g / unit).sum()) for g in grads.values())
    root = float(np.sqrt(total))
    norm = unit * root
    if norm <= max_norm or norm == 0.0:
        return grads, norm
    scale = max_norm / unit / root
    return {k: g * scale for k, g in grads.items()}, norm


@contextmanager
def _adam_update(group: dict[str, Tensor], state: OptimizerState):
    """Tape the body, which sets .loss on the yielded record, then take
    one Adam step on group along the loss's gradients, clipped as a
    whole to GRADIENT_CLIP_NORM.  The record's .applied tells whether
    the step moved anything; nothing moves if the body raises, and a
    NonFiniteError from it counts as a skipped step on state."""
    step = SimpleNamespace(loss=None, applied=False)
    try:
        with Tape() as tape:
            yield step
    except NonFiniteError:
        state.skipped += 1
        raise
    by_uid = backward(tape, step.loss)
    grads = {name: by_uid[p.uid] if p.uid in by_uid else np.zeros(p.data.shape)
             for name, p in group.items()}
    step.applied = adam_step(
        group, clip_by_global_norm(grads, GRADIENT_CLIP_NORM)[0], state)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    epochs: int = 30
    trajectories_per_batch: int = 8
    lr: float = 1e-3
    lambda_adv: float = 0.1
    markovian: bool = False
    rul_supervision: bool = True
    eval_every: int = 200
    val_frac: float = 0.1
    rul_cap: int = DEFAULT_RUL_CAP

    def __post_init__(self):
        if self.epochs < 0 or self.trajectories_per_batch <= 0:
            raise ValueError("epochs must be >= 0 and batch size positive")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.lambda_adv < np.inf:
            raise ValueError("lambda_adv must be non-negative and finite, "
                             f"got {self.lambda_adv}")


# ---------------------------------------------------------------------------
# trace records


@dataclass
class StepRecord:
    step: int
    epoch: int
    combined: float
    recon: float
    kl: float
    adv_gen: float
    adv_disc: float
    disc_loss: float | None
    rul_loss: float | None


@dataclass
class EvalRecord:
    step: int
    val_rmse: float | None
    extra: float | None


@dataclass
class TrainResult:
    params: ModelParams
    steps: list[StepRecord]
    evals: list[EvalRecord]
    checkpoint: "Checkpoint"

    @property
    def skipped_batches(self) -> int:
        return self.checkpoint.skipped_batches

    @property
    def best_step(self) -> int | None:
        """Step of the best validation score; None before the first one."""
        return self.checkpoint.best_step if self.checkpoint.best_step >= 0 else None

    @property
    def best_val_rmse(self) -> float | None:
        return self.checkpoint.best_val if self.checkpoint.best_step >= 0 else None


# ---------------------------------------------------------------------------
# readout helpers


def predict_sequence_rul(params: ModelParams,
                         trajs: list[Trajectory]) -> list[np.ndarray]:
    """Per-cycle remaining-life estimates from deterministic filtering,
    one array per trajectory."""
    batch = Batch(trajs)
    feats = np.hstack(filter_means(params, batch))
    with no_tape():
        return batch.unpack(rul_head(params, feats).data)


def readout_loss(params: ModelParams, batch: Batch,
                 targets: np.ndarray) -> Tensor:
    """Mean squared error of one readout over the stacked rows of a
    batch against its capped targets, stacked alike; the filter rows are
    detached."""
    err = rul_head(params, np.hstack(filter_means(params, batch))) - targets
    return (err * err).mean()


def rmse_per_cycle(params: ModelParams, trajs: list[Trajectory]) -> float:
    """RMSE of per-cycle predictions against capped targets."""
    for traj in trajs:
        if traj.rul is None:
            raise ValueError(f"unit {traj.unit_id} has no targets")
    preds = predict_sequence_rul(params, trajs)
    sq = sum(float(((p - t.rul) ** 2).sum()) for p, t in zip(preds, trajs))
    return float(np.sqrt(sq / sum(t.length for t in trajs)))


def _discriminator_loss(params: ModelParams, batch: Batch,
                        fake_noise: list[np.ndarray],
                        real: np.ndarray) -> Tensor:
    """Phase 1's loss: recognition samples (fake), filtered with
    recording off, against prior rollout rows (real), both stacked as
    the batch's rows, so only psi is taped."""
    with no_tape():
        fake = filter_forward(params, batch, batch.pack(fake_noise))["z"]
    pool = batch.pool
    d_fake = discriminate(params, constant(fake.data), pool)
    d_real = discriminate(params, real, pool)
    return adversarial_losses(d_real, d_fake)[0]


# ---------------------------------------------------------------------------
# training loop


def train(
    trajs: list[Trajectory],
    spec: NetworkSpec,
    config: TrainConfig,
    eval_extra=None,
    stop_after_steps: int | None = None,
    resume: "Checkpoint | None" = None,
) -> TrainResult:
    """Run the minimax loop over run-to-failure trajectories.

    When trajectories carry RUL targets and supervision is on, the last
    val_frac of units is held out and scored every eval_every steps;
    eval_extra(params) may compute an additional metric (say, test
    RMSE) at the same cadence.  stop_after_steps ends the run early
    with a resumable checkpoint in the result.
    """
    supervised = config.rul_supervision and all(t.rul is not None for t in trajs)
    if supervised and len(trajs) >= 5:
        train_trajs, val_trajs = train_val_split(trajs, config.val_frac)
    else:
        train_trajs, val_trajs = list(trajs), []

    state = Checkpoint(spec, config) if resume is None else replace(resume)
    if state.spec != spec or state.config != config:
        raise ValueError("checkpoint was created with a different setup")
    params = (init_params(spec, config.markovian, config.seed) if resume is None
              else params_from_checkpoint(resume))
    groups = {"gen": params.group("theta", "phi"), "disc": params.group("psi"),
              "rul": params.group("rho")}
    opts = {g: OptimizerState(config.lr, **deepcopy(state.opt.get(g, {})))
            for g in groups}

    def update(group: str):
        return _adam_update(groups[group], opts[group])

    def noise(*ids) -> list[np.ndarray]:
        return [rng.normal(config.seed, (t.length, spec.n_z), *ids, i)
                for i, t in enumerate(batch)]

    def run_eval():
        val = rmse_per_cycle(params, val_trajs) if val_trajs else None
        extra = eval_extra(params) if eval_extra is not None else None
        evals.append(EvalRecord(step=state.step, val_rmse=val, extra=extra))
        if val is not None and (state.best_step < 0 or val < state.best_val):
            state.best_val, state.best_step = val, state.step

    steps_log: list[StepRecord] = []
    evals: list[EvalRecord] = []
    n_batch = config.trajectories_per_batch
    stopped = False
    while state.epoch < config.epochs and not stopped:
        order = rng.stream(config.seed, "shuffle", state.epoch).permutation(
            len(train_trajs)
        )
        batches = [
            order[i : i + n_batch] for i in range(0, len(order), n_batch)
        ]
        while state.batch_idx < len(batches) and not stopped:
            batch = [train_trajs[i] for i in batches[state.batch_idx]]
            packed = Batch(batch)   # every phase's layout
            state.step += 1
            step = state.step

            # phase 1: discriminator; one prior rollout draws its real
            # rows and phase 2's reference
            disc_loss_val = prior_rows = None
            if config.lambda_adv > 0.0:
                with suppress(NonFiniteError), update("disc") as u:
                    real, prior_rows = prior_rollout(params, packed, np.stack(
                        [packed.pack(noise("disc-real", step, 0)),
                         packed.pack(noise("prior-noise", step))])).data
                    u.loss = _discriminator_loss(
                        params, packed, noise("disc-fake", step, 0), real)
                    disc_loss_val = u.loss.item()

            # phase 2: joint generative/recognition update; a batch whose
            # loss, gradients or prior rollout go non-finite is skipped
            with suppress(NonFiniteError), update("gen") as u:
                if config.lambda_adv > 0.0 and prior_rows is None:
                    raise NonFiniteError("latent_scan: prior rollout overflow")
                breakdowns, target = combined_objective(
                    params, packed, noise("noise", step), config.lambda_adv,
                    prior_rows)
                # minimize -combined
                u.loss = target * (-1.0 / len(batch))
            if u.applied:
                state.consecutive_skips = 0
                steps_log.append(StepRecord(
                    step=step, epoch=state.epoch,
                    combined=float(np.mean([b.combined for b in breakdowns])),
                    recon=float(np.mean([b.recon_loglik for b in breakdowns])),
                    kl=float(np.mean([b.kl_total for b in breakdowns])),
                    adv_gen=float(np.mean([b.adv_gen for b in breakdowns])),
                    adv_disc=float(np.mean([b.adv_disc for b in breakdowns])),
                    disc_loss=disc_loss_val,
                    rul_loss=None,
                ))
            else:
                state.skipped_batches += 1
                state.consecutive_skips += 1
                if state.consecutive_skips > MAX_CONSECUTIVE_SKIPS:
                    raise TrainingAborted(
                        f"{state.consecutive_skips} consecutive non-finite "
                        f"batches at step {step}")

            # phase 3: remaining-life readout
            if supervised:
                with suppress(NonFiniteError), update("rul") as u:
                    u.loss = readout_loss(params, packed, packed.pack(
                        [t.rul for t in batch]))
                    if steps_log and steps_log[-1].step == step:
                        steps_log[-1].rul_loss = u.loss.item()

            state.batch_idx += 1
            if config.eval_every > 0 and step % config.eval_every == 0:
                run_eval()
            stopped = stop_after_steps is not None and step >= stop_after_steps
        if state.batch_idx >= len(batches):
            state.epoch, state.batch_idx = state.epoch + 1, 0
    if (not stopped and state.step > 0
            and (not evals or evals[-1].step != state.step)):
        run_eval()  # final state always scored

    state.params = {k: t.data.copy() for k, t in params.named().items()}
    state.opt = {g: {"t": o.t, "skipped": o.skipped, "m": o.m, "v": o.v}
                 for g, o in opts.items()}
    return TrainResult(params=params, steps=steps_log, evals=evals,
                       checkpoint=state)


def fit_recognition(params: ModelParams, trajs: list[Trajectory], steps: int,
                    seed: int = 0) -> list[float]:
    """Adam (step size 1e-2) on the recognition partition only,
    maximizing the bound.

    The generative side stays frozen, which is what makes the bound
    comparable against a fixed exact marginal likelihood throughout; its
    tensors enter the bound as constants, so no gradient is formed for
    them.  Returns the per-step bound values.
    """
    params = params.with_tensors({k: constant(t.data)
                                  for k, t in params.group("theta").items()})
    phi_group = params.group("phi")
    opt = OptimizerState(1e-2)
    batches = [Batch([traj]) for traj in trajs]
    trace = []
    for step in range(1, steps + 1):
        batch = batches[(step - 1) % len(trajs)]
        noise = rng.normal(seed, (batch.length, params.spec.n_z),
                           "fit-phi", step)   # one trajectory: packed as drawn
        with _adam_update(phi_group, opt) as update:
            elbo = sequence_elbo(params, batch, noise)[0]
            update.loss = -elbo
        trace.append(elbo.item())
    return trace


def mc_elbo(params: ModelParams, traj: Trajectory, draws: int,
            seed: int) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of the single-sample bound;
    the draws are the rows of one batch."""
    if draws < 2:
        raise ValueError(f"a standard error needs at least 2 draws, got {draws}")
    noise = [rng.normal(seed, (traj.length, params.spec.n_z), "mc-elbo", d)
             for d in range(draws)]
    batch = Batch([traj] * draws)
    with no_tape():
        terms = sequence_elbo(params, batch, batch.pack(noise))[1].data
    vals = batch.per_trajectory(terms[0]) - batch.per_trajectory(terms[1])
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(draws))


@dataclass
class BoundAuditRow:
    """One linear-Gaussian instance checked against its exact likelihood."""

    seed: int
    n_z: int
    n_x: int
    length: int
    exact: float
    before_mean: float
    before_se: float
    after_mean: float
    after_se: float

    @property
    def bound_ok(self) -> bool:
        """Estimated bound never above exact by more than 3 standard errors."""
        return (self.before_mean <= self.exact + 3.0 * self.before_se
                and self.after_mean <= self.exact + 3.0 * self.after_se)

    @property
    def gap_before(self) -> float:
        return self.exact - self.before_mean

    @property
    def gap_after(self) -> float:
        return self.exact - self.after_mean

    @property
    def shrunk(self) -> bool:
        return self.gap_after < self.gap_before


def bound_gap_audit(n_instances: int = 20, draws: int = 256,
                    fit_steps: int = 2000, seed: int = 0) -> list[BoundAuditRow]:
    """Check the variational bound against exact marginals instance by instance.

    For each random linear-Gaussian instance the generative side of the
    model is set to the true parameters and only the recognition side is
    fitted, so the exact Kalman log-likelihood stays a valid ceiling for
    the whole run.  Returns one row per instance.
    """
    if n_instances < 1 or draws < 2 or fit_steps < 0:
        raise ValueError(f"a bound audit needs at least 1 instance, 2 draws and "
                         f"0 fit steps, got {n_instances}, {draws}, {fit_steps}")
    rows = []
    for i in range(n_instances):
        inst_seed = seed + i
        lg, length = random_linear_gaussian_instance(inst_seed)
        traj = gen_linear_gaussian(lg, length, seed=inst_seed)
        exact = kalman_loglik(lg, traj.x)
        params = linear_gaussian_model(lg, seed=inst_seed)
        b_mean, b_se = mc_elbo(params, traj, draws, seed=inst_seed)
        if fit_steps > 0:
            fit_recognition(params, [traj], fit_steps, seed=inst_seed)
        a_mean, a_se = mc_elbo(params, traj, draws, seed=inst_seed + 1)
        rows.append(BoundAuditRow(
            seed=inst_seed, n_z=lg.n_z, n_x=lg.n_x, length=length,
            exact=exact, before_mean=b_mean, before_se=b_se,
            after_mean=a_mean, after_se=a_se,
        ))
    return rows


# ---------------------------------------------------------------------------
# checkpoint container and binary codec


@dataclass
class Checkpoint:
    """The state of a training run: what train advances, what a resume
    restores and what save_checkpoint writes.

    params holds the named parameter arrays; opt[group] holds that Adam
    group's step count t, skipped-step count and moments m and v.  epoch
    and batch_idx name the next batch to run; best_step is -1 and
    best_val nan until a validation score exists.
    """

    spec: NetworkSpec
    config: TrainConfig
    params: dict[str, np.ndarray] = field(default_factory=dict)
    opt: dict[str, dict] = field(default_factory=dict)
    step: int = 0
    epoch: int = 0
    batch_idx: int = 0
    skipped_batches: int = 0
    consecutive_skips: int = 0
    best_step: int = -1
    best_val: float = float("nan")


# the values each scalar field type takes (typed_fields keeps bools apart)
_SCALAR_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,)}


def _scalar_fields(cls) -> list:
    return [f for f in fields(cls) if f.type in _SCALAR_TYPES]


def typed_fields(cls, values: dict, where: str) -> dict:
    """The entries of values that name scalar fields of cls, each checked
    against its field: a bool field takes only a bool, an int field only
    an int that is not a bool, and a float field any other number, made
    a float.  A mismatch raises a ValueError naming where + the field."""
    out = {}
    for f in _scalar_fields(cls):
        if f.name in values:
            value = values[f.name]
            if (isinstance(value, bool) != (f.type == "bool")
                    or not isinstance(value, _SCALAR_TYPES[f.type])):
                raise ValueError(f"{where}{f.name} must be of type {f.type}, "
                                 f"got {value!r}")
            out[f.name] = float(value) if f.type == "float" else value
    return out


def params_from_checkpoint(ckpt: Checkpoint) -> ModelParams:
    """Rebuild the partitioned parameter container from named arrays."""
    params = init_params(ckpt.spec, ckpt.config.markovian, ckpt.config.seed)
    named = params.named()
    if set(named) != set(ckpt.params):
        raise ValueError("checkpoint parameter set mismatch: "
                         f"{sorted(set(named) ^ set(ckpt.params))}")
    for name, arr in ckpt.params.items():
        if named[name].data.shape != arr.shape:
            raise ValueError(f"shape mismatch for '{name}' in checkpoint")
    return params.with_tensors({name: Tensor(arr.copy())
                                for name, arr in ckpt.params.items()})


def _pack_entry(name: str, arr) -> bytes:
    # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
    arr = np.asarray(arr, dtype=np.float64)
    nb = name.encode("utf-8")
    head = struct.pack("<I", len(nb)) + nb
    head += struct.pack("<Q", arr.ndim)
    head += b"".join(struct.pack("<Q", d) for d in arr.shape)
    return head + arr.tobytes()


# the scalar entries of an Adam group in a checkpoint
_OPT_COUNTERS = ("t", "skipped")


def _checkpoint_table(ckpt: Checkpoint) -> dict:
    """Every entry of the record by its "/"-joined path: spec/, config/,
    param/, opt/<group>/{t,skipped,m/,v/} and meta/<counter>.  Values are
    written as float64 (ints and bools are exact below 2^53)."""
    table = {f"{branch}/{f.name}": getattr(obj, f.name)
             for branch, obj in (("spec", ckpt.spec), ("config", ckpt.config),
                                 ("meta", ckpt))
             for f in _scalar_fields(type(obj))}
    table.update((f"param/{k}", v) for k, v in ckpt.params.items())
    for g, o in ckpt.opt.items():
        table.update((f"opt/{g}/{k}", o[k]) for k in _OPT_COUNTERS)
        table.update((f"opt/{g}/{part}/{k}", v) for part in ("m", "v")
                     for k, v in o[part].items())
    return table


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    """Write via a synced sibling temp file renamed over path, so a crash
    mid-write leaves the previous checkpoint intact."""
    table = _checkpoint_table(ckpt)
    body = b"".join([struct.pack("<Q", len(table))]
                    + [_pack_entry(name, table[name]) for name in sorted(table)])
    digest = hashlib.sha256(body).digest()[:8]
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            f.write(body)
            f.write(digest)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read(buf: bytes, off: int, n: int) -> tuple[bytes, int]:
    if off + n > len(buf):
        raise ValueError("truncated checkpoint")
    return buf[off : off + n], off + n


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", _read(blob, 4, 4)[0])
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    body, digest = blob[8:-8], blob[-8:]
    if hashlib.sha256(body).digest()[:8] != digest:
        raise ValueError("checkpoint checksum mismatch")

    off = 0
    raw, off = _read(body, off, 8)
    (n_entries,) = struct.unpack("<Q", raw)
    table = {}
    for _ in range(n_entries):
        raw, off = _read(body, off, 4)
        (name_len,) = struct.unpack("<I", raw)
        raw, off = _read(body, off, name_len)
        name = raw.decode("utf-8")
        raw, off = _read(body, off, 8)
        (ndim,) = struct.unpack("<Q", raw)
        shape = []
        for _ in range(ndim):
            raw, off = _read(body, off, 8)
            shape.append(struct.unpack("<Q", raw)[0])
        count = int(np.prod(shape)) if shape else 1
        raw, off = _read(body, off, count * 8)
        table[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    if off != len(body):
        raise ValueError("trailing bytes in checkpoint")

    def under(prefix: str) -> dict:   # the entries below prefix, by the rest
        return {k[len(prefix):]: v for k, v in table.items()
                if k.startswith(prefix)}

    def typed(cls, branch: str, names=None) -> dict:
        # the entries under branch of cls's scalar fields names (all by
        # default): integral values of int and bool fields back to ints,
        # and 0 and 1 of a bool field to bools; any other value fails
        # typed_fields
        kinds = {f.name: f.type for f in _scalar_fields(cls)}
        values = {}
        for name in names or kinds:
            path, kind = f"{branch}/{name}", kinds[name]
            if path not in table:
                raise ValueError(f"checkpoint missing entry '{path}'")
            if table[path].ndim:
                raise ValueError(f"checkpoint entry {path} must be a scalar, "
                                 f"got shape {table[path].shape}")
            x = float(table[path])
            if kind != "float" and x.is_integer():
                x = bool(x) if kind == "bool" and x in (0.0, 1.0) else int(x)
            values[name] = x
        return typed_fields(cls, values, f"checkpoint entry {branch}/")

    opt = {g: {**typed(OptimizerState, f"opt/{g}", _OPT_COUNTERS),
               "m": under(f"opt/{g}/m/"), "v": under(f"opt/{g}/v/")}
           for g in dict.fromkeys(k.split("/")[0] for k in under("opt/"))}
    return Checkpoint(spec=NetworkSpec(**typed(NetworkSpec, "spec")),
                      config=TrainConfig(**typed(TrainConfig, "config")),
                      params=under("param/"), opt=opt,
                      **typed(Checkpoint, "meta"))


# ---------------------------------------------------------------------------
# 1-D adversarial sanity task


@dataclass
class ToyGanResult:
    gen_scale: float
    gen_shift: float
    d_real_mean: float
    d_fake_mean: float
    fake_mean: float
    trace: list[tuple[int, float, float]]


def train_toy_gan(steps: int = 5000, seed: int = 0) -> ToyGanResult:
    """Affine generator vs small discriminator on 1-D Gaussian data.

    Real samples come from N(2, 0.5^2), 64 per step against 64 generated
    ones; the discriminator has one tanh layer of 16 units, and both
    sides take Adam steps at learning rate 1e-3.  At equilibrium the
    discriminator cannot tell the two apart (outputs near 1/2) and the
    generator's sample mean sits at 2.
    """
    batch, hidden, lr = 64, 16, 1e-3
    real_mean, real_std = 2.0, 0.5
    g_params = {"scale": Tensor(np.array(1.0)), "shift": Tensor(np.array(0.0))}
    ginit = rng.stream(seed, "toy-gan-init")
    d_params = {
        "W1": Tensor(ginit.normal(0, 1.0, (hidden, 1))),
        "b1": Tensor(np.zeros(hidden)),
        "w2": Tensor(ginit.normal(0, 1.0 / np.sqrt(hidden), hidden)),
        "b2": Tensor(np.array(0.0)),
    }
    opt_g = OptimizerState(lr)
    opt_d = OptimizerState(lr)

    def disc_prob(x: Tensor) -> Tensor:
        # x holds one sample per row; one probability per sample
        h = tanh(affine(d_params["W1"], x, d_params["b1"]))
        logit = affine(d_params["w2"], h, d_params["b2"])
        return sigmoid(logit.clip(-DISC_LOGIT_CLIP, DISC_LOGIT_CLIP))

    trace = []
    for step in range(1, steps + 1):
        real = rng.stream(seed, "toy-real", step).normal(
            real_mean, real_std, (batch, 1))
        eps_d = rng.normal(seed, (batch, 1), "toy-noise-d", step)
        eps_g = rng.normal(seed, (batch, 1), "toy-noise-g", step)

        # discriminator step: generator output detached
        with no_tape():
            fake_detached = g_params["scale"].data * eps_d + g_params["shift"].data
        with _adam_update(d_params, opt_d) as update:
            d_real = disc_prob(constant(real))
            d_fake = disc_prob(constant(fake_detached))
            update.loss, _ = adversarial_losses(d_real, d_fake)

        # generator step: non-saturating loss through the sampler
        with _adam_update(g_params, opt_g) as update:
            fake = constant(eps_g) * g_params["scale"] + g_params["shift"]
            d_fake = disc_prob(fake)
            update.loss = -log(d_fake).mean()

        if step % 100 == 0 or step == steps:
            trace.append((step, float(d_real.data.mean()),
                          float(d_fake.data.mean())))

    eval_g = rng.stream(seed, "toy-eval")
    real = eval_g.normal(real_mean, real_std, (4096, 1))
    eps = eval_g.standard_normal((4096, 1))
    with no_tape():
        fake = g_params["scale"].data * eps + g_params["shift"].data
        dr = disc_prob(constant(real)).data.mean()
        df = disc_prob(constant(fake)).data.mean()
    return ToyGanResult(
        gen_scale=float(g_params["scale"].data),
        gen_shift=float(g_params["shift"].data),
        d_real_mean=float(dr),
        d_fake_mean=float(df),
        fake_mean=float(fake.mean()),
        trace=trace,
    )
