"""Monte-Carlo EM for a bivariate-Gaussian missing-data model under two
dominating measures.

The model has mean (theta, theta), known equicorrelated covariance, first
coordinate observed. Against 2-D Lebesgue the missing-data conditional is an
exact Gaussian and the E-step samples it directly. Against a tilted Lebesgue
reference (theta-free positive density g) the natural sampler draws from the
normalized tilt conditional and weights by the registered kernel itself:
the kernel is precisely the density against the induced conditional
reference. The two samplers see genuinely different draw distributions, yet
the maximizers agree up to Monte Carlo error, because the tilt is theta-free.

Both runs share per-iteration standard normals and one E-step estimator,
``_mean_and_se``. Under the identity tilt the tilted run draws exactly the
Lebesgue draws and averages them with the same uniform-weight expressions, so
the two runs are bit-identical by construction, whatever order numpy sums in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The tilted run stops when its effective sample size falls below this
# fraction of the draws.
MIN_ESS_FRACTION = 0.1


@dataclass(frozen=True)
class MCEMResult:
    theta_lebesgue: float
    theta_tilted: float
    se_lebesgue: float
    se_tilted: float
    difference: float
    combined_se: float
    closed_form_mle: float
    ks_distance: float
    ess_fraction: float
    iterations: int


def _log_joint(omega1: float, s: np.ndarray, theta: float, rho: float) -> np.ndarray:
    """Bivariate Gaussian log density, mean (theta, theta), unit variances."""
    det = 1.0 - rho * rho
    d1 = omega1 - theta
    d2 = s - theta
    quad = (d1 * d1 - 2.0 * rho * d1 * d2 + d2 * d2) / det
    return -0.5 * quad - math.log(2.0 * math.pi) - 0.5 * math.log(det)


def _log_tilt(omega1: float, s: np.ndarray, tau: float) -> np.ndarray:
    return (-0.5 * (omega1 / tau) ** 2 - 0.5 * (s / tau) ** 2
            - 2.0 * (0.5 * math.log(2.0 * math.pi) + math.log(tau)))


def _mean_and_se(draws: np.ndarray, weights: np.ndarray | None = None) -> tuple[float, float]:
    """Monte Carlo mean of ``draws`` and its standard error.

    ``weights=None`` means uniform weights: the sample mean and the ``ddof=1``
    standard error. Otherwise ``weights`` are normalized importance weights and
    the result is the self-normalized importance-sampling mean and its
    delta-method standard error.
    """
    if weights is None:
        return float(np.mean(draws)), float(np.std(draws, ddof=1) / math.sqrt(draws.size))
    mean = float(np.sum(weights * draws))
    return mean, float(math.sqrt(np.sum(weights ** 2 * (draws - mean) ** 2)))


def _ks_distance(draws1: np.ndarray, draws2: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance with the bits of scipy.stats.ks_2samp,
    whose exact mode (up to 10^4 draws a side) rounds it onto its 1 / lcm grid."""
    x, y = np.sort(draws1), np.sort(draws2)
    both = np.concatenate([x, y])
    diffs = (np.searchsorted(x, both, side="right") / len(x)
             - np.searchsorted(y, both, side="right") / len(y))
    d = float(max(diffs.max(), np.clip(-diffs.min(), 0, 1)))
    lcm = math.lcm(len(x), len(y))
    return round(d * lcm) / lcm if max(len(x), len(y)) <= 10000 else d


def mcem_missing_data(omega1: float, rho: float, mc_size: int, iterations: int,
                      tilt: str, tilt_tau: float, seed: int) -> MCEMResult:
    """Run MC-EM under both dominating measures and compare the MLEs.

    Both runs start at theta = 0. The M-step is closed form: theta maximizing
    the expected complete log density is (omega1 + E[omega2]) / 2. Reported
    standard errors inflate the last E-step error by the stationary factor of
    the EM recursion.

    Both E-steps go through ``_mean_and_se`` on draws built from the same
    per-iteration normals. With ``tilt="identity"`` the tilted run uses uniform
    weights (``ess_fraction`` is exactly 1.0), so ``theta_tilted`` equals
    ``theta_lebesgue`` bit for bit and ``se_tilted`` equals ``se_lebesgue``.
    """
    if mc_size < 100:
        raise ValueError("mc_size must be at least 100")
    if tilt not in ("gaussian", "identity"):
        raise ValueError("tilt must be 'gaussian' or 'identity'")
    cond_var = 1.0 - rho * rho
    cond_sd = math.sqrt(cond_var)

    def cond_mean(theta: float) -> float:
        return theta + rho * (omega1 - theta)

    theta1 = theta2 = 0.0
    se1 = se2 = 0.0
    ess_fraction = 1.0
    draws1 = draws2 = np.asarray([0.0])
    for k in range(iterations):
        z = np.random.default_rng([int(seed), k]).standard_normal(mc_size)

        # Lebesgue route: exact conditional draws.
        draws1 = cond_mean(theta1) + cond_sd * z
        mean1, se1 = _mean_and_se(draws1)
        theta1 = 0.5 * (omega1 + mean1)

        # Tilted route: draws from the tilt conditional, weights equal to the
        # registered kernel (joint density over tilt density). The identity
        # tilt's weights are uniform.
        if tilt == "identity":
            draws2 = cond_mean(theta2) + cond_sd * z
            weights = None
            ess_fraction = 1.0
        else:
            draws2 = tilt_tau * z
            logw = _log_joint(omega1, draws2, theta2, rho) - _log_tilt(omega1, draws2, tilt_tau)
            logw -= logw.max()
            w = np.exp(logw)
            weights = w / w.sum()
            ess_fraction = float(1.0 / np.sum(weights ** 2) / mc_size)
        if ess_fraction < MIN_ESS_FRACTION:
            raise RuntimeError(
                f"importance degeneracy: effective sample size fraction {ess_fraction:.3f} "
                f"below {MIN_ESS_FRACTION}")
        mean2, se2 = _mean_and_se(draws2, weights)
        theta2 = 0.5 * (omega1 + mean2)

    # The EM map is theta <- kappa theta + const + (E-step noise) / 2 with
    # kappa = (1 - rho) / 2; inflate the last-step error to stationary scale.
    kappa = 0.5 * (1.0 - rho)
    inflate = 1.0 / math.sqrt(1.0 - kappa * kappa)
    se_theta1 = 0.5 * se1 * inflate
    se_theta2 = 0.5 * se2 * inflate
    ks = _ks_distance(draws1, draws2) if iterations else 0.0
    return MCEMResult(
        theta_lebesgue=theta1,
        theta_tilted=theta2,
        se_lebesgue=se_theta1,
        se_tilted=se_theta2,
        difference=abs(theta1 - theta2),
        combined_se=math.sqrt(se_theta1 ** 2 + se_theta2 ** 2),
        closed_form_mle=omega1,
        ks_distance=ks,
        ess_fraction=ess_fraction,
        iterations=iterations,
    )
