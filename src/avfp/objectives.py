"""Training objectives over time-major batches of trajectories.

A batch is packed time-major (Batch): its trajectories are ordered by
length, longest first, so at step t only the first n_t of them are
still running, and every per-cycle quantity is one stacked (N, .) array
whose rows run step by step.  No padded row is ever computed: when a
trajectory ends, the recurrent states are cut to the running rows.  The
layout is described once, as the runs of steps of equal width, one per
distinct length (Batch.runs), and every scan reads those runs.

filter_forward is the recognition chain alone, one scan primitive over
the whole batch (a Batch, built once per set of trajectories and passed
to every objective over them, with its noise rows): at each step the
recognition summary is updated with the current observation first, the
posterior over z_t is read off, and a reparameterized sample is drawn
with externally supplied noise (or, for readouts, the posterior mean
stands in for it, and the log-variance head is not run).  It returns
the scan's column blocks by name (a ScanRows: h, mean, log_var, z,
z_prev), and callers read those directly.  filter_means runs it with
recording off for the remaining-life and health-index readouts.

sequence_elbo runs the prior's recurrence over the given latents as one
scan of its GRU alone (history mode only), then one gauss_bound node
that runs the transition prior and emission heads, the log-density and
the KL (first-step prior pinned to N(0, I)) over all stacked rows; that
node's two rows are the bound's per-row terms, and Batch.per_trajectory
sums them per trajectory.  A bound's tape is therefore a few nodes
whatever its batch and lengths.

The adversarial pair treats latent sequences rolled out from the
transition prior as real and recognition-sampled sequences as fake; the
discriminator pools each trajectory's rows.  The generator-side term is
the non-saturating form -log D(fake).

Per trajectory, combined = recon_loglik - kl_total - lambda_adv *
adv_gen, and the maximization target is its sum over the batch.  With
lambda_adv = 0 the combined objective is the evidence bound itself,
computed through the identical operation sequence (bit-identical).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Trajectory
from .diffcore import (
    ScanRows,
    Tensor,
    constant,
    gauss_bound,
    log,
    no_tape,
)
from .model import (
    LOG_VAR_MAX,
    LOG_VAR_MIN,
    ModelParams,
    discriminate,
    prior_chain,
    prior_history,
    recognition,
)


class Batch:
    """Time-major packed layout of a list of trajectories.

    Each step holds one row per trajectory still running, longest
    trajectories first (ties keep the input order), so the steps between
    two distinct lengths all have one width.  runs lists those runs of
    steps, one per distinct length, as (first row, end row, width): the
    only description of the layout, which the scans read.  length counts
    the cycles of all trajectories, which is the number of stacked rows.
    rows[b] lists trajectory b's rows, one per cycle, in the input order
    of the trajectories; x and u hold the packed observations and
    inputs, and xu the rows [x, u] that the recognition chain reads.
    """

    def __init__(self, trajs: list[Trajectory]):
        lengths = [t.length for t in trajs]
        if not lengths or min(lengths) < 1:
            raise ValueError("a batch needs trajectories of at least one cycle")
        # longest first; a reversed sort stays stable, so ties keep input order
        order = sorted(range(len(lengths)), key=lengths.__getitem__,
                       reverse=True)
        rank = [0] * len(order)
        runs, lo, done = [], 0, 0
        # from the shortest up: each distinct length ends a run whose steps
        # hold the `width` trajectories at least that long
        for width in range(len(order), 0, -1):
            b = order[width - 1]
            rank[b], end = width - 1, lengths[b]
            if end > done:
                runs.append((lo, lo + (end - done) * width, width))
                lo, done = runs[-1][1], end
        self.runs = tuple(runs)
        self.length = lo
        starts = np.concatenate([np.arange(*run) for run in self.runs])
        self.rows = [starts[:n] + r for n, r in zip(lengths, rank)]
        self.x = self.pack([t.x for t in trajs])
        self.u = self.pack([t.u for t in trajs])
        self.xu = np.concatenate([self.x, self.u], axis=1)

    def pack(self, arrays) -> np.ndarray:
        """Per-trajectory arrays (one leading row per cycle) as stacked rows."""
        arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        out = np.empty((self.length,) + arrays[0].shape[1:])
        for rows, a in zip(self.rows, arrays, strict=True):
            if a.shape != (len(rows),) + out.shape[1:]:
                raise ValueError(f"array of shape {a.shape}, expected "
                                 f"{(len(rows),) + out.shape[1:]}")
            out[rows] = a
        return out

    def unpack(self, stacked: np.ndarray) -> list[np.ndarray]:
        """Stacked rows back to one array per trajectory, input order."""
        return [stacked[rows] for rows in self.rows]

    def per_trajectory(self, values: np.ndarray) -> np.ndarray:
        """Sum of a per-row array over each trajectory's rows."""
        return np.array([values[rows].sum() for rows in self.rows])

    @cached_property
    def pool(self) -> np.ndarray:
        """(B, N) matrix whose row b averages trajectory b's rows."""
        pool = np.zeros((len(self.rows), self.length))
        for b, rows in enumerate(self.rows):
            pool[b, rows] = 1.0 / len(rows)
        return pool


@dataclass
class ObjectiveBreakdown:
    """Scalar summary of one trajectory's objective evaluation."""

    recon_loglik: float
    kl_total: float
    adv_gen: float
    adv_disc: float
    combined: float
    kl_per_step: np.ndarray


_RECON_MINUS_KL = constant(np.array([1.0, -1.0]))


def filter_forward(params: ModelParams, batch: Batch,
                   eps: np.ndarray | None) -> ScanRows:
    """The recognition chain over a batch, one time-major scan; its
    column blocks are model.recognition's, rows stacked as the batch's.

    eps holds the noise rows, stacked as the batch's rows (batch.pack
    of one (T_b, n_z) array per trajectory); None switches to
    deterministic filtering where the posterior mean stands in for the
    sample z and nothing else of the posterior is computed.
    """
    return recognition(params, batch.xu, eps, batch.runs)


def filter_means(params: ModelParams, batch: Batch
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic, untaped filtering of a batch: the stacked (N, d_h)
    recognition summaries h_t ([x_t, u_t, z_{t-1}] in markovian mode)
    and (N, n_z) posterior means, one row per cycle, views of the scan's
    output rows where they can be."""
    with no_tape():
        scan = filter_forward(params, batch, None)
    rows, cols = scan.rows.data, scan.cols
    if "h" not in cols:
        return np.hstack([batch.xu, rows[:, cols["z_prev"]]]), rows[:, cols["z"]]
    return rows[:, cols["h"]], rows[:, cols["z"]]


def sequence_elbo(params: ModelParams, batch: Batch, eps: np.ndarray
                  ) -> tuple[Tensor, Tensor, ScanRows]:
    """Single-sample evidence bound, summed over the batch, with the
    noise rows eps stacked as the batch's rows.

    Returns (the bound, its per-row terms, the recognition scan): the
    terms are the gauss_bound node, row 0 each row's reconstruction
    log-likelihood and row 1 its KL, whose first-step prior is N(0, I).
    """
    scan = filter_forward(params, batch, eps)
    history = prior_history(params, scan, batch.u, batch.runs)
    heads = {k: t for k, t in params.theta.items() if k[:4] in ("pri.", "dec.")}
    terms = gauss_bound(scan, constant(batch.x), heads, history,
                        batch.runs[0][2], (LOG_VAR_MIN, LOG_VAR_MAX))
    return terms.sum(axis=1) @ _RECON_MINUS_KL, terms, scan


def prior_rollout(params: ModelParams, batch: Batch,
                  eps: np.ndarray) -> Tensor:
    """Latent rows sampled from the transition prior chain, driven by
    each trajectory's inputs, with the noise rows eps, both stacked as
    the batch's rows; eps may stack several draws as (draws, N, n_z),
    which run as one scan over the batch stacked once per draw (row r of
    draw d at row r * draws + d) and come back stacked alike.

    Evaluated outside any tape: rollouts feed the discriminator as
    constants, gradients never travel through them.
    """
    n, rows = (len(eps) if eps.ndim == 3 else 1), batch.length
    runs = [(a * n, b * n, w * n) for a, b, w in batch.runs]
    with no_tape():
        z = prior_chain(params, np.repeat(batch.u, n, axis=0), np.moveaxis(
            eps.reshape(n, rows, -1), 0, 1).reshape(rows * n, -1), runs).data
    return constant(np.moveaxis(z.reshape(rows, n, -1), 1, 0).reshape(eps.shape))


def adversarial_losses(d_real: Tensor, d_fake: Tensor) -> tuple[Tensor, Tensor]:
    """(discriminator loss, non-saturating generator loss).

    disc = -mean log D(real) - mean log(1 - D(fake)); gen = -mean log
    D(fake).  Probabilities must lie strictly inside (0, 1); the log
    primitive rejects anything else.
    """
    for d in (d_real, d_fake):
        if np.any(d.data <= 0.0) or np.any(d.data >= 1.0):
            raise ValueError("discriminator outputs must be strictly inside (0, 1)")
    disc = -(log(d_real).mean() + log(1.0 - d_fake).mean())
    gen = -log(d_fake).mean()
    return disc, gen


def combined_objective(
    params: ModelParams,
    batch: Batch,
    noise: list[np.ndarray],
    lambda_adv: float,
    prior_rows: np.ndarray | None = None,
) -> tuple[list[ObjectiveBreakdown], Tensor]:
    """Evidence bound minus the weighted generator-side adversarial term,
    with one noise array per trajectory of the batch.

    Returns (one breakdown per trajectory, maximization target summed
    over the batch).
    prior_rows holds the prior rollout behind the reported discriminator
    loss, stacked as the batch's rows; lambda_adv > 0 needs it.
    """
    if lambda_adv < 0.0:
        raise ValueError("lambda_adv must be non-negative")
    if lambda_adv > 0.0 and prior_rows is None:
        raise ValueError("lambda_adv > 0 needs the prior rollout's rows")
    target, terms, scan = sequence_elbo(params, batch, batch.pack(noise))

    adv_gen_rows = adv_disc_rows = np.zeros(len(batch.rows))
    if lambda_adv > 0.0:
        pool = batch.pool
        d_fake = discriminate(params, scan["z"], pool)
        adv_gen = -log(d_fake)
        with no_tape():
            d_real = discriminate(params, prior_rows, pool)
            adv_disc = -(log(d_real) + log(1.0 - d_fake))
        adv_gen_rows, adv_disc_rows = adv_gen.data, adv_disc.data
        target = target - adv_gen.sum() * lambda_adv

    recons = batch.per_trajectory(terms.data[0])
    breakdowns = []
    for b, rows in enumerate(batch.rows):
        kl_steps = terms.data[1, rows]
        r, k, a = float(recons[b]), float(kl_steps.sum()), float(adv_gen_rows[b])
        breakdowns.append(ObjectiveBreakdown(
            recon_loglik=r, kl_total=k, adv_gen=a,
            adv_disc=float(adv_disc_rows[b]),
            combined=r - k - lambda_adv * a, kl_per_step=kl_steps))
    return breakdowns, target
