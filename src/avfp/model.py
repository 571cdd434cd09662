"""Networks of the sequential latent-variable model.

Four parameter partitions with strict ownership:

  theta  generative side: latent transition prior (with its own gated
         recurrent state over past latents and inputs) and the
         emission density over observations
  phi    recognition side: gated recurrent encoder over observations,
         inputs and previous latents, plus the posterior head
  psi    latent-sequence discriminator
  rho    remaining-life regression readout over stacked rows
         [h_t, mean_t] of the filtered belief, one row per cycle

All densities are diagonal Gaussians parameterized by (mean, log_var)
with log_var hard-clamped to [-10, 10].  In markovian mode both
recurrent encoders are bypassed: the recognition head sees only
(x_t, u_t, z_prev) and the prior/emission heads see only the adjacent
latent, which removes every non-adjacent dependency.

Every block takes stacked rows, one per cycle of a time-major packed
batch (objectives.Batch), and the recurrent chains take its layout,
Batch.runs: the runs of steps of equal width, each as (first row, end
row, width).  They run whole sequences as one latent_scan each:
recognition (GRU, posterior head and sample), prior_chain (the prior's
rollout) and the prior's summary of given latents (its GRU alone), so
no per-step block exists; callers read a scan's column blocks by name
(diffcore.ScanRows).  The transition prior and emission heads (theta's
"pri." and "dec." weights) run inside the bound's one node,
diffcore.gauss_bound, over all stacked rows.  The discriminator pools
stacked latent rows into one score per trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .data import LinearGaussianSpec
from .diffcore import (
    ScanRows,
    Tensor,
    affine,
    constant,
    latent_scan,
    sigmoid,
    softplus,
    tanh,
)

LOG_VAR_MIN = -10.0
LOG_VAR_MAX = 10.0
DISC_LOGIT_CLIP = 15.0


@dataclass(frozen=True)
class NetworkSpec:
    """Dimensions and widths of every sub-network.

    Only the Gaussian heads (enc, dec, prior) may have a hidden width of
    0, which makes that head purely linear, as exact linear-Gaussian
    configurations need; the discriminator and the remaining-life readout
    always have a tanh layer, so their widths must be positive.
    """

    n_x: int
    n_u: int
    n_z: int = 8
    n_h: int = 32
    enc_hidden: int = 32
    dec_hidden: int = 32
    prior_hidden: int = 32
    disc_hidden: int = 32
    rul_hidden: int = 32

    def __post_init__(self):
        for name in ("n_x", "n_u", "n_z", "n_h", "disc_hidden", "rul_hidden"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("enc_hidden", "dec_hidden", "prior_hidden"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.n_z > self.n_h:
            raise ValueError("n_z must not exceed n_h")


@dataclass
class ModelParams:
    """Parameter partitions plus the structural metadata they imply."""

    spec: NetworkSpec
    markovian: bool
    theta: dict[str, Tensor]
    phi: dict[str, Tensor]
    psi: dict[str, Tensor]
    rho: dict[str, Tensor]

    def partitions(self) -> dict[str, dict[str, Tensor]]:
        return {"theta": self.theta, "phi": self.phi,
                "psi": self.psi, "rho": self.rho}

    def group(self, *parts: str) -> dict[str, Tensor]:
        """The tensors of the given partitions, keyed "part.name"."""
        groups = self.partitions()
        return {f"{p}.{name}": t for p in parts for name, t in groups[p].items()}

    def named(self) -> dict[str, Tensor]:
        return self.group(*self.partitions())

    def with_tensors(self, named: dict[str, Tensor]) -> ModelParams:
        """A copy holding the given tensors, keyed "part.name", in place
        of its own; every other tensor is shared."""
        groups = {p: dict(g) for p, g in self.partitions().items()}
        for key, t in named.items():
            part, name = key.split(".", 1)
            groups[part][name] = t
        return replace(self, **groups)


def recognition_input_dim(spec: NetworkSpec, markovian: bool) -> int:
    return spec.n_x + spec.n_u + spec.n_z if markovian else spec.n_h


def generative_input_dim(spec: NetworkSpec, markovian: bool) -> int:
    """Input width of the prior and emission heads: a latent, plus the
    prior's recurrent summary unless markovian."""
    return spec.n_z if markovian else spec.n_z + spec.n_h


def rul_input_dim(spec: NetworkSpec, markovian: bool) -> int:
    return recognition_input_dim(spec, markovian) + spec.n_z


# ---------------------------------------------------------------------------
# initialization


def _head(g, prefix, d_in, hidden, d_out, out: dict):
    """Gaussian head params: optional tanh layer, then mean and log-var."""
    d_feat = hidden if hidden > 0 else d_in
    if hidden > 0:
        out[f"{prefix}.W1"] = Tensor(g.normal(0, 1 / np.sqrt(d_in), (hidden, d_in)))
        out[f"{prefix}.b1"] = Tensor(np.zeros(hidden))
    s = 1 / np.sqrt(d_feat)
    out[f"{prefix}.Wm"] = Tensor(g.normal(0, s, (d_out, d_feat)))
    out[f"{prefix}.bm"] = Tensor(np.zeros(d_out))
    out[f"{prefix}.Wv"] = Tensor(g.normal(0, s, (d_out, d_feat)))
    out[f"{prefix}.bv"] = Tensor(np.zeros(d_out))


def _readout(g, first, d_in, hidden, out: dict):
    """Scalar readout params: a tanh layer named first, then one output."""
    out[f"{first}.W"] = Tensor(g.normal(0, 1 / np.sqrt(d_in), (hidden, d_in)))
    out[f"{first}.b"] = Tensor(np.zeros(hidden))
    out["out.w"] = Tensor(g.normal(0, 1 / np.sqrt(hidden), hidden))
    out["out.b"] = Tensor(np.zeros(()))


def _gru(g, d_in, n_h, out: dict):
    out["gru.W"] = Tensor(g.normal(0, 1 / np.sqrt(d_in), (3 * n_h, d_in)))
    out["gru.U"] = Tensor(g.normal(0, 1 / np.sqrt(n_h), (3 * n_h, n_h)))
    out["gru.b"] = Tensor(np.zeros(3 * n_h))


def init_params(spec: NetworkSpec, markovian: bool, seed: int) -> ModelParams:
    """Seeded initialization; weights ~ N(0, 1/fan_in), biases zero."""
    phi: dict[str, Tensor] = {}
    theta: dict[str, Tensor] = {}
    psi: dict[str, Tensor] = {}
    rho: dict[str, Tensor] = {}

    g = rng.stream(seed, "init", "phi")
    if not markovian:
        _gru(g, spec.n_x + spec.n_u + spec.n_z, spec.n_h, phi)
        phi["h0"] = Tensor(np.zeros(spec.n_h))
    _head(g, "enc", recognition_input_dim(spec, markovian),
          spec.enc_hidden, spec.n_z, phi)

    g = rng.stream(seed, "init", "theta")
    if not markovian:
        _gru(g, spec.n_z + spec.n_u, spec.n_h, theta)
        theta["g0"] = Tensor(np.zeros(spec.n_h))
    _head(g, "pri", generative_input_dim(spec, markovian),
          spec.prior_hidden, spec.n_z, theta)
    _head(g, "dec", generative_input_dim(spec, markovian),
          spec.dec_hidden, spec.n_x, theta)

    _readout(rng.stream(seed, "init", "psi"), "feat", spec.n_z,
             spec.disc_hidden, psi)
    _readout(rng.stream(seed, "init", "rho"), "l1",
             rul_input_dim(spec, markovian), spec.rul_hidden, rho)

    return ModelParams(spec=spec, markovian=markovian,
                       theta=theta, phi=phi, psi=psi, rho=rho)


# ---------------------------------------------------------------------------
# building blocks


def _gru_inputs(group: dict[str, Tensor], state0: str) -> dict[str, Tensor]:
    """latent_scan inputs of one partition's GRU; state0 names its
    initial state."""
    return dict(h0=group[state0], W=group["gru.W"], U=group["gru.U"],
                b=group["gru.b"])


def _chain_inputs(group: dict[str, Tensor], state0: str, head: str,
                  eps) -> dict[str, Tensor]:
    """latent_scan inputs from one partition: the noise, its GRU if it
    has one and the Gaussian head called head; no log-variance head
    without noise."""
    inputs = {} if eps is None else {"eps": constant(eps)}
    if state0 in group:
        inputs.update(_gru_inputs(group, state0))
    for w in ("W1", "Wm") + (("Wv",) if eps is not None else ()):
        if f"{head}.{w}" in group:  # no W1 without a hidden layer
            inputs[w] = group[f"{head}.{w}"]
            inputs["b" + w[1:]] = group[f"{head}.b{w[1:]}"]
    return inputs


# ---------------------------------------------------------------------------
# recognition side (phi)


def recognition(params: ModelParams, xu, eps, runs) -> ScanRows:
    """The recognition chain over a time-major packed batch, one
    latent_scan: per step, the summary h_t folds (x_t, u_t, z_{t-1})
    into the GRU state, the posterior head reads h_t, and z_t is the
    reparameterized sample with the supplied noise eps (the posterior
    mean without it, and no log-variance head is run).

    xu holds the packed [x_t, u_t] rows, laid out as runs says.
    Markovian mode carries no state: the head reads (x_t, u_t, z_{t-1})
    directly, so the posterior can only see adjacent information.
    Returns the scan's stacked column blocks h (history mode only),
    mean, log_var, z and z_prev.
    """
    inputs = _chain_inputs(params.phi, "h0", "enc", eps)
    return latent_scan([constant(xu)], inputs, runs, gru_in=("xu", "z"),
                       head_in=("xu", "z") if params.markovian else ("h",),
                       clip=(LOG_VAR_MIN, LOG_VAR_MAX))


# ---------------------------------------------------------------------------
# generative side (theta)


def prior_history(params: ModelParams, scan, u, runs) -> Tensor | None:
    """The prior's recurrent summaries g_t of (z_{t-1}, u_t) over packed
    rows, one latent_scan of the GRU alone on scan["z_prev"]; None in
    markovian mode, which has no such summary and reads nothing of scan."""
    if params.markovian:
        return None
    return latent_scan([scan["z_prev"], constant(u)],
                       _gru_inputs(params.theta, "g0"), runs, gru_in=("xu",))["h"]


def prior_chain(params: ModelParams, u, eps, runs) -> Tensor:
    """Latent rows sampled along the transition prior over packed rows
    of inputs u, one latent_scan: the prior's summary runs as in
    prior_history and its head as in the bound (diffcore.gauss_bound),
    and the first step is N(0, I), so its sample is the noise.  eps may
    stack several draws as (draws, N, n_z), which the scan runs side by
    side; the rows come back shaped like eps, as a constant."""
    inputs = _chain_inputs(params.theta, "g0", "pri", eps)
    scan = latent_scan([constant(u)], inputs, runs, gru_in=("z", "xu"),
                       head_in=("z",) if params.markovian else ("z", "h"),
                       clip=(LOG_VAR_MIN, LOG_VAR_MAX), pin_first=True)
    return constant(scan.draw(0) if eps.ndim == 2 else
                    np.stack([scan.draw(d) for d in range(len(eps))]))


# ---------------------------------------------------------------------------
# discriminator (psi) and remaining-life readout (rho)


def discriminate(params: ModelParams, z_rows, pool) -> Tensor:
    """Probability, per sequence, that it came from the prior rollout.

    z_rows stacks latent rows (N, n_z); row b of the constant (B, N)
    matrix pool averages sequence b's rows, so the per-step features are
    mean-pooled over time and sequences of any length share one
    readout.  The logits are clamped before the sigmoid to keep the B
    probabilities strictly inside (0, 1).
    """
    z_rows = constant(z_rows)
    if z_rows.data.size == 0:
        raise ValueError("discriminate needs at least one latent row")
    psi = params.psi
    feats = tanh(affine(psi["feat.W"], z_rows, psi["feat.b"]))
    pooled = constant(pool) @ feats
    logit = affine(psi["out.w"], pooled, psi["out.b"]).clip(
        -DISC_LOGIT_CLIP, DISC_LOGIT_CLIP)
    return sigmoid(logit)


def rul_head(params: ModelParams, feats) -> Tensor:
    """Non-negative remaining-life estimates from the filtered belief.

    feats stacks one row [h_t, mean_t] per cycle, shape (N, d); the
    result holds the N estimates.
    """
    rho = params.rho
    hidden = tanh(affine(rho["l1.W"], constant(feats), rho["l1.b"]))
    return softplus(affine(rho["out.w"], hidden, rho["out.b"]))


# ---------------------------------------------------------------------------
# exact linear-Gaussian configuration


def linear_gaussian_model(lg: LinearGaussianSpec, enc_hidden: int = 16,
                          seed: int = 0, markovian: bool = True) -> ModelParams:
    """Model whose generative side equals the given instance.

    Prior and emission heads are linear with weights set to (A, diag q)
    and (C, diag r); the recognition network stays randomly initialized
    and trainable.  With markovian=False both history GRUs run, but the
    heads' weight columns for the history summary are zero, so the
    model stays exact on the code path that training uses.  Valid only
    when the instance starts at N(0, I), matching the pinned first-step
    prior.
    """
    if not np.allclose(lg.init_mean, 0.0) or not np.allclose(lg.init_cov, np.eye(lg.n_z)):
        raise ValueError("instance must start at N(0, I) to match the fixed first prior")
    log_q = np.log(lg.q_diag)
    log_r = np.log(lg.r_diag)
    for v in (log_q, log_r):
        if np.any(v < LOG_VAR_MIN) or np.any(v > LOG_VAR_MAX):
            raise ValueError("noise variances outside the representable clamp")

    spec = NetworkSpec(
        n_x=lg.n_x, n_u=1, n_z=lg.n_z, n_h=max(lg.n_z, 4),
        enc_hidden=enc_hidden, dec_hidden=0, prior_hidden=0,
        disc_hidden=8, rul_hidden=8,
    )
    params = init_params(spec, markovian=markovian, seed=seed)
    n_hist = 0 if markovian else spec.n_h

    def weights(M):  # history columns, if any, are zero
        return Tensor(np.hstack([M, np.zeros((M.shape[0], n_hist))]))

    th = params.theta
    th["pri.Wm"] = weights(lg.A)
    th["pri.bm"] = Tensor(np.zeros(lg.n_z))
    th["pri.Wv"] = weights(np.zeros((lg.n_z, lg.n_z)))
    th["pri.bv"] = Tensor(log_q)
    th["dec.Wm"] = weights(lg.C)
    th["dec.bm"] = Tensor(np.zeros(lg.n_x))
    th["dec.Wv"] = weights(np.zeros((lg.n_x, lg.n_z)))
    th["dec.bv"] = Tensor(log_r)
    return params
