"""Monte Carlo estimates of the Lyapunov exponent and dispersion.

This is the stochastic cross-check on the series machinery: draw words of
fixed length k with i.i.d. uniform digits, track ln of the infinity norm of
the matrix product, and report mean/k and variance/k with standard errors.
For nonnegative matrices the infinity norm of a product P is max(P 1), so
each trial carries one vector, the product applied to the ones vector from
the right (m^2 work per digit rather than m^3), and the vector is
renormalized whenever its largest entry exceeds 2^100 so nothing overflows.
Each step forms both products D0 v and D1 v for the whole block and keeps
one per trial by weighting them with the trial's digit as 0.0 or 1.0.  The
weighting is exact, not an approximation: every entry is finite and >= 0,
so x * 1 = x, x * 0 = +0 and x + 0 = x, and the block equals a per-trial
selection of the two products bit for bit.  That needs the products to stay
finite, so a family whose 2^100 * ||D_d||_inf reaches half the float
maximum is refused.
Digits come from a counter-based Philox stream keyed by the seed; trial i
always consumes the same fixed slice of the stream, so results are
reproducible and independent of how trials would be partitioned across
workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import catalog
from .catalog import MatrixFamily

__all__ = [
    "SimConfig",
    "SimResult",
    "simulate",
    "simulate_moment",
    "log_product_norms",
    "DegenerateProduct",
]

RENORM_THRESHOLD = 2.0**100
# a step starts with entries <= RENORM_THRESHOLD, so its products stay below
# RENORM_THRESHOLD * MAX_ROW_SUM, half the float maximum: the other half is
# room for the rounding of those sums and of the row sums
MAX_ROW_SUM = np.finfo(np.float64).max / 2 / RENORM_THRESHOLD
BOOTSTRAP_RESAMPLES = 200


class DegenerateProduct(ArithmeticError):
    """A product collapsed to exactly zero, so ln of its norm is -inf."""


@dataclass(frozen=True)
class SimConfig:
    family: str | MatrixFamily
    k: int
    trials: int
    seed: int = 20080318

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("word length k must be >= 1")
        if self.trials < 2:
            raise ValueError("need at least 2 trials")


@dataclass(frozen=True)
class SimResult:
    family: str
    k: int
    trials: int
    seed: int
    mean_log_norm: float
    var_log_norm: float
    lyap_hat: float
    sigma2_hat: float
    stderr_lyap: float
    stderr_sigma2: float
    degenerate_trials: int
    # ln norm of every non-degenerate trial, in trial order
    log_norms: np.ndarray = field(repr=False, compare=False)
    t: float | None = None
    moment_rate: float | None = None
    moment_stderr: float | None = None

    def csv_rows(self):
        """The `simulate --csv` table, a generator: a header, then each
        trial's index among the non-degenerate ones and its ln norm."""
        yield "trial,log_norm"
        for i, v in enumerate(self.log_norms.tolist()):
            yield f"{i},{v!r}"

    def to_json_dict(self) -> dict:
        out = {
            "family": self.family,
            "k": self.k,
            "trials": self.trials,
            "seed": self.seed,
            "mean_log_norm": self.mean_log_norm,
            "var_log_norm": self.var_log_norm,
            "lyap_hat": self.lyap_hat,
            "sigma2_hat": self.sigma2_hat,
            "stderr_lyap": self.stderr_lyap,
            "stderr_sigma2": self.stderr_sigma2,
            "degenerate_trials": self.degenerate_trials,
        }
        if self.t is not None:
            out["t"] = self.t
            out["moment_rate"] = self.moment_rate
            out["moment_stderr"] = self.moment_stderr
        return out


def _digit_matrix(seed: int, trials: int, k: int) -> np.ndarray:
    """(trials, k) uint8 digits; trial i owns stream words [i*wpt, (i+1)*wpt).

    Digit j of a trial is bit j & 63 of its stream word j >> 6.
    """
    wpt = (k + 63) // 64
    raw = np.random.Philox(key=seed).random_raw(trials * wpt)
    raw = raw.reshape(trials, wpt).astype("<u8", copy=False)
    return np.unpackbits(raw.view(np.uint8), axis=1, bitorder="little")[:, :k]


def log_product_norms(config: SimConfig) -> tuple[np.ndarray, int]:
    """Per-trial ln of the infinity norm of D_{z_0} ... D_{z_{k-1}}.

    The digit matrices must be nonnegative: then the norm is the largest
    entry of the product times the ones vector, which is built right to
    left, D_{z_j} applied for j = k-1 .. 0 to an (m, trials) block of
    vectors.  Each step computes D1 v and D0 v for the block and adds them
    weighted by the digit (1.0 or 0.0) and its complement, which equals
    picking one per trial exactly while every entry is finite and >= 0.
    A step starts with entries at most 2^100, so its products are at most
    2^100 times the larger infinity norm (largest row sum) of D0 and D1.
    Raises ValueError on a negative entry, or when that bound is not below
    half the float maximum, where a product could reach inf and inf * 0
    would give NaN.

    Returns (log norms over non-degenerate trials, number of degenerate
    trials whose product was exactly zero).
    """
    fam = catalog.resolve_family(config.family)
    if not (fam.d0.is_nonnegative() and fam.d1.is_nonnegative()):
        raise ValueError(
            f"family {fam.name} has a negative entry; the vector norm "
            "needs nonnegative matrices"
        )
    d0, d1 = fam.d0.to_float(), fam.d1.to_float()
    row_sum = max(d0.sum(axis=1).max(), d1.sum(axis=1).max())
    if not row_sum < MAX_ROW_SUM:
        raise ValueError(
            f"family {fam.name} has a row sum of {row_sum:.3g}; 2^100 times it "
            "must stay below half the float maximum"
        )
    digits = np.ascontiguousarray(
        _digit_matrix(config.seed, config.trials, config.k).T, dtype=bool)
    vec = np.ones((fam.dim, config.trials))
    log_acc = np.zeros(config.trials)
    for j in range(config.k - 1, -1, -1):
        on = digits[j].astype(np.float64)
        by_one = d1 @ vec
        by_one *= on
        vec = d0 @ vec
        vec *= 1.0 - on
        vec += by_one
        norms = vec.max(axis=0)
        big = norms > RENORM_THRESHOLD
        if big.any():
            # x / 1 = x and ln 1 = 0: the other trials are left as they are
            scale = np.where(big, norms, 1.0)
            vec /= scale
            log_acc += np.log(scale)
    norms = vec.max(axis=0)
    alive = norms > 0.0
    degenerate = int(config.trials - alive.sum())
    if degenerate == config.trials:
        raise DegenerateProduct("every trial product collapsed to zero")
    log_norms = log_acc[alive] + np.log(norms[alive])
    return log_norms, degenerate


def simulate(config: SimConfig) -> SimResult:
    """Estimate lambda and sigma^2 from independent random words."""
    # resolved once, so a family file is read and validated once
    config = replace(config, family=catalog.resolve_family(config.family))
    log_norms, degenerate = log_product_norms(config)
    n = log_norms.size
    mean = float(log_norms.mean())
    var = float(log_norms.var(ddof=1))
    centered = log_norms - mean
    m4 = float((centered**4).mean())
    var_of_var = max(m4 - var * var, 0.0) / n
    k = config.k
    return SimResult(
        family=config.family.name,
        k=k,
        trials=config.trials,
        seed=config.seed,
        mean_log_norm=mean,
        var_log_norm=var,
        lyap_hat=mean / k,
        sigma2_hat=var / k,
        stderr_lyap=math.sqrt(var / n) / k,
        stderr_sigma2=math.sqrt(var_of_var) / k,
        degenerate_trials=degenerate,
        log_norms=log_norms,
    )


def simulate_moment(config: SimConfig, t: float) -> SimResult:
    """Estimate the moment growth rate (1/k) ln E(norm^t) beside `simulate`'s
    estimates, from the same trials.

    Moment estimates are heavy-tailed as |t| grows, so t is capped at 4 in
    magnitude, the sample mean of norm^t is taken in log space, and the
    standard error is a bootstrap over trials rather than a CLT formula.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    if abs(t) > 4:
        raise ValueError("simulate_moment is limited to |t| <= 4")
    base = simulate(config)
    log_norms = base.log_norms
    n = log_norms.size
    k = config.k

    def rate(values: np.ndarray) -> float:
        scaled = t * values
        peak = scaled.max()
        return float(
            (peak + np.log(np.exp(scaled - peak).sum()) - math.log(values.size))
            / k
        )

    estimate = rate(log_norms)
    rng = np.random.Generator(np.random.Philox(key=[config.seed, 0xB007]))
    resampled = np.empty(BOOTSTRAP_RESAMPLES)
    for b in range(BOOTSTRAP_RESAMPLES):
        resampled[b] = rate(log_norms[rng.integers(0, n, n)])
    stderr = float(resampled.std(ddof=1))
    return replace(base, t=t, moment_rate=estimate, moment_stderr=stderr)
