"""Training objectives: sequence evidence bound and adversarial terms.

The evidence bound is assembled by one filtering pass per trajectory:
at each step the recognition summary is updated with the current
observation first, the posterior over z_t is read off, a single
reparameterized sample is drawn with externally supplied noise, and the
emission term plus the closed-form KL against the transition prior are
accumulated.  The first-step prior is pinned to N(0, I).  filter_means
runs the pass deterministically (the posterior mean stands in for the
sample) with recording off and returns the stacked per-cycle summaries
and posterior means that the remaining-life and health-index readouts
read.

The adversarial pair treats latent sequences rolled out from the
transition prior as real and recognition-sampled sequences as fake.
The generator-side term is the non-saturating form -log D(fake).

combined = recon_loglik - kl_total - lambda_adv * adv_gen, and with
lambda_adv = 0 the combined objective is the evidence bound itself,
computed through the identical operation sequence (bit-identical).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Trajectory
from .diffcore import LN_2PI  # noqa: F401  (part of this module's interface)
from .diffcore import (
    Tensor,
    apply_primitive,
    constant,
    gauss_kl,
    gauss_logpdf,
    log,
    no_tape,
)
from .model import (
    GaussianDiag,
    ModelParams,
    advance_prior_state,
    discriminate,
    emission,
    encode_history,
    recognition,
    sample_reparam,
    transition_prior,
)


@dataclass
class ObjectiveBreakdown:
    """Scalar summary of one trajectory's objective evaluation."""

    recon_loglik: float
    kl_total: float
    adv_gen: float
    adv_disc: float
    combined: float
    kl_per_step: np.ndarray


@dataclass
class FilterPass:
    """Everything the filtering pass produced, step-aligned."""

    states: list[Tensor]
    posteriors: list[GaussianDiag]
    priors: list[GaussianDiag]
    samples: list[Tensor]
    recon_steps: list[Tensor]
    kl_steps: list[Tensor]


def gaussian_log_density(x, g: GaussianDiag) -> Tensor:
    """log N(x; mean, diag(exp(log_var))), summed over dimensions."""
    x = constant(x)
    if x.shape != g.mean.shape:
        raise ValueError(f"x shape {x.shape} vs mean shape {g.mean.shape}")
    return gauss_logpdf(x, g.mean, g.log_var)


def kl_diag_gaussians(q: GaussianDiag, p: GaussianDiag) -> Tensor:
    """KL(q || p) between diagonal Gaussians, closed form, summed."""
    if q.mean.shape != p.mean.shape:
        raise ValueError("distribution dimension mismatch")
    return gauss_kl(q.mean, q.log_var, p.mean, p.log_var)


def filter_forward(params: ModelParams, traj: Trajectory,
                   noise: np.ndarray | None) -> FilterPass:
    """One pass of stochastic filtering over a trajectory.

    noise has shape (T, n_z); None switches to deterministic filtering
    where the posterior mean stands in for the sample.
    """
    T = traj.length
    n_z = params.spec.n_z
    if noise is not None:
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape != (T, n_z):
            raise ValueError(f"noise shape {noise.shape}, expected {(T, n_z)}")
    z_prev: Tensor = constant(np.zeros(n_z))
    enc_state = None
    pri_state = None
    out = FilterPass([], [], [], [], [], [])
    for t in range(T):
        x_t, u_t = traj.x[t], traj.u[t]
        pri_state = advance_prior_state(params, pri_state, z_prev, u_t)
        prior = transition_prior(params, pri_state, z_prev, step=t)
        enc_state = encode_history(params, enc_state, x_t, u_t, z_prev)
        post = recognition(params, enc_state)
        z_t = sample_reparam(post, noise[t]) if noise is not None else post.mean
        em = emission(params, pri_state, z_t)

        out.states.append(enc_state)
        out.posteriors.append(post)
        out.priors.append(prior)
        out.samples.append(z_t)
        out.recon_steps.append(gaussian_log_density(x_t, em))
        out.kl_steps.append(kl_diag_gaussians(post, prior))
        z_prev = z_t
    return out


def filter_means(params: ModelParams,
                 traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic, untaped filtering: the stacked (T, d_h) recognition
    summaries h_t and (T, n_z) posterior means, one row per cycle."""
    with no_tape():
        fp = filter_forward(params, traj, None)
    # np.array copies a list of equal-length rows faster than np.stack
    return (np.array([h.data for h in fp.states]),
            np.array([q.mean.data for q in fp.posteriors]))


def _accumulate(parts: list[Tensor]) -> Tensor:
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total


def sequence_elbo(params: ModelParams, traj: Trajectory,
                  noise: np.ndarray) -> tuple[Tensor, FilterPass]:
    """Single-sample evidence bound for one trajectory."""
    fp = filter_forward(params, traj, noise)
    elbo = _accumulate(fp.recon_steps) - _accumulate(fp.kl_steps)
    return elbo, fp


def prior_rollout(params: ModelParams, u_seq: np.ndarray,
                  noise: np.ndarray) -> list[Tensor]:
    """Latent sequence sampled from the transition prior chain.

    Evaluated outside any tape: rollouts feed the discriminator as
    constants, gradients never travel through them.
    """
    noise = np.asarray(noise, dtype=np.float64)
    T = noise.shape[0]
    if noise.shape[1] != params.spec.n_z:
        raise ValueError("noise width must equal n_z")
    with no_tape():
        z_prev = constant(np.zeros(params.spec.n_z))
        state = None
        zs = []
        for t in range(T):
            state = advance_prior_state(params, state, z_prev, u_seq[t])
            pri = transition_prior(params, state, z_prev, step=t)
            z_t = sample_reparam(pri, noise[t])
            zs.append(z_t)
            z_prev = z_t
    return [constant(z.data) for z in zs]


def stack_scalars(vals: list[Tensor]) -> Tensor:
    """Rank-1 tensor from scalar tensors, preserving gradients."""
    parts = [apply_primitive("broadcast", v, shape=(1,)) for v in vals]
    return parts[0] if len(parts) == 1 else apply_primitive("concat", *parts)


def adversarial_losses(d_real: Tensor, d_fake: Tensor) -> tuple[Tensor, Tensor]:
    """(discriminator loss, non-saturating generator loss).

    disc = -mean log D(real) - mean log(1 - D(fake)); gen = -mean log
    D(fake).  Probabilities must lie strictly inside (0, 1); the log
    primitive rejects anything else.
    """
    for d in (d_real, d_fake):
        if np.any(d.data <= 0.0) or np.any(d.data >= 1.0):
            raise ValueError("discriminator outputs must be strictly inside (0, 1)")
    disc = (log(d_real).mean() + log(1.0 - d_fake).mean()) * -1.0
    gen = log(d_fake).mean() * -1.0
    return disc, gen


def combined_objective(
    params: ModelParams,
    traj: Trajectory,
    noise: np.ndarray,
    lambda_adv: float,
    prior_noise: np.ndarray | None = None,
    kl_weight: float = 1.0,
) -> tuple[ObjectiveBreakdown, Tensor, FilterPass]:
    """Evidence bound minus the weighted generator-side adversarial term.

    Returns (breakdown, maximization target, filter pass).  kl_weight
    scales the KL term of the returned target only (warm-up support);
    the breakdown always reports the canonical kl_weight = 1 value.
    prior_noise drives the reference rollout behind the reported
    discriminator loss and defaults to reusing noise.
    """
    if lambda_adv < 0.0:
        raise ValueError("lambda_adv must be non-negative")
    fp = filter_forward(params, traj, noise)
    recon = _accumulate(fp.recon_steps)
    kl = _accumulate(fp.kl_steps)
    elbo = recon - kl

    if lambda_adv == 0.0:
        adv_gen_val = 0.0
        adv_disc_val = 0.0
        combined = elbo
        target = combined if kl_weight == 1.0 else recon - kl * kl_weight
    else:
        d_fake = discriminate(params, fp.samples)
        adv_gen = log(d_fake) * -1.0
        with no_tape():
            pn = prior_noise if prior_noise is not None else noise
            z_real = prior_rollout(params, traj.u, pn)
            d_real = discriminate(params, z_real)
            disc_loss, _ = adversarial_losses(
                stack_scalars([d_real]), stack_scalars([d_fake]))
            adv_disc_val = disc_loss.item()
        adv_gen_val = adv_gen.item()
        combined = elbo - adv_gen * lambda_adv
        if kl_weight == 1.0:
            target = combined
        else:
            target = recon - kl * kl_weight - adv_gen * lambda_adv

    breakdown = ObjectiveBreakdown(
        recon_loglik=recon.item(),
        kl_total=kl.item(),
        adv_gen=adv_gen_val,
        adv_disc=adv_disc_val,
        combined=combined.item(),
        kl_per_step=np.array([k.item() for k in fp.kl_steps]),
    )
    return breakdown, target, fp
