"""Shared fixtures: synthetic run-to-failure files and scan helpers."""

import numpy as np
import pytest

from avfp import data as avdata


def scan_counts(path):
    """Row counts straight from the text, bypassing the parser."""
    per_unit = {}
    total = 0
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            total += 1
            unit = int(parts[0])
            per_unit[unit] = per_unit.get(unit, 0) + 1
    return total, per_unit


def lg_bound_rows(lg, x, scan):
    """The closed-form per-row reconstruction log-likelihoods and KLs of
    a linear-Gaussian model's bound over one trajectory x, at the
    posterior and samples of the recognition scan the bound read:
    emission N(C z, diag r), transition prior N(A z_prev, diag q), and
    N(0, I) at the first step."""
    q_mean, q_lv = scan["mean"].data, scan["log_var"].data
    r = np.asarray(lg.r_diag, dtype=float)
    recon = -0.5 * ((x - scan["z"].data @ lg.C.T) ** 2 / r
                    + np.log(2.0 * np.pi * r)).sum(axis=1)
    p_mean = scan["z_prev"].data @ lg.A.T
    p_lv = np.tile(np.log(lg.q_diag), (len(x), 1))
    p_mean[0] = p_lv[0] = 0.0
    d_lv = q_lv - p_lv
    kl = 0.5 * (np.exp(d_lv) + (q_mean - p_mean) ** 2 * np.exp(-p_lv)
                - 1.0 - d_lv).sum(axis=1)
    return recon, kl


def joint_gaussian_loglik(lg, x):
    """Brute-force log-density of x_{0:T-1} from the stacked joint normal."""
    from scipy.stats import multivariate_normal

    T = x.shape[0]
    n_z, n_x = lg.n_z, lg.n_x
    P = [lg.init_cov.copy()]
    means_z = [lg.init_mean.copy()]
    for _ in range(1, T):
        P.append(lg.A @ P[-1] @ lg.A.T + np.diag(lg.q_diag))
        means_z.append(lg.A @ means_z[-1])

    def cov_z(s, t):
        if s <= t:
            out = P[s]
            for _ in range(t - s):
                out = out @ lg.A.T
            return out
        return cov_z(t, s).T

    mean = np.concatenate([lg.C @ m for m in means_z])
    cov = np.zeros((T * n_x, T * n_x))
    for s in range(T):
        for t in range(T):
            block = lg.C @ cov_z(s, t) @ lg.C.T
            if s == t:
                block = block + np.diag(lg.r_diag)
            cov[s * n_x : (s + 1) * n_x, t * n_x : (t + 1) * n_x] = block
    return float(multivariate_normal(mean=mean, cov=cov).logpdf(x.ravel()))


@pytest.fixture(scope="session")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("synth")
    avdata.write_synthetic_cmapss(str(d), n_train_units=12, n_test_units=6, seed=3)
    return str(d)


@pytest.fixture(scope="session")
def synth_train(synth_dir):
    return avdata.parse_cmapss(f"{synth_dir}/train_FD001.txt", "train")


@pytest.fixture(scope="session")
def synth_test(synth_dir):
    return avdata.parse_cmapss(f"{synth_dir}/test_FD001.txt", "test")
