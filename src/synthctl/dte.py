"""Distributional treatment effects: counterfactual bootstrap, quantiles, MMD.

The bootstrap targets the pooled post-period counterfactual density: each
draw resamples one post-period value from every untreated unit, then keeps
the value of a unit selected with the fitted weights. All randomness flows
through an explicit 64-bit seed; there is no global RNG state. Parallel
replications must derive distinct child seeds (see ``synthctl.seeding``).

The MMD permutation test runs in O(n * (block + P)) memory for n pooled
values and P permutations, never O(n^2). The median-heuristic bandwidth is
an exact selection over the sorted sample, bit-identical to the median of
the dense pairwise differences. The Gaussian kernel is formed one strip of
rows at a time (at most 2**20 entries, upper block triangle only, since the
kernel is symmetric); each strip adds to the row sums and to one product
with the n x (P + 1) matrix of 0/1 split indicators, which scores the
observed split and every permutation together.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import BadProbError, DimensionMismatchError, EmptyPostError
from .panel import PanelData
from .solver import WeightVector

__all__ = [
    "BootstrapSample",
    "MmdReport",
    "bootstrap_counterfactual",
    "quantiles",
    "mmd_squared",
    "mmd_test",
    "save_draws",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BootstrapSample:
    draws: np.ndarray
    l: int
    seed: int
    weights_used: WeightVector

    def __post_init__(self):
        d = np.asarray(self.draws, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "draws", d)


@dataclass(frozen=True)
class MmdReport:
    mmd2: float
    p_value: float
    bandwidth: float
    permutations: int

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "mmd2": self.mmd2,
            "p_value": self.p_value,
            "bandwidth": self.bandwidth,
            "permutations": self.permutations,
        }


def bootstrap_counterfactual(
    panel: PanelData, weights: WeightVector, l: int, seed: int
) -> BootstrapSample:
    """Resample L counterfactual outcome draws from the post-period panel.

    For each draw: (i) one post-period outcome is resampled uniformly from
    every untreated unit's post series; (ii) one unit is selected with the
    fitted weight probabilities and its resampled value is kept. When the
    weights carry an intercept (demeaned fit), the intercept is added to
    every draw so the sample targets the shifted counterfactual density; the
    raw-mixture bootstrap corresponds to intercept-free weights.
    """
    if l <= 1:
        raise DimensionMismatchError(f"need l > 1 draws, got {l}")
    t1 = panel.n_post
    if t1 == 0:
        raise EmptyPostError("panel has no post-intervention periods")
    post = panel.untreated_outcomes[:, panel.t0 :]  # (J, T1)
    j = post.shape[0]
    w = weights.weights
    if w.shape[0] != j:
        raise DimensionMismatchError(
            f"{w.shape[0]} weights for {j} untreated units"
        )
    rng = np.random.default_rng(seed)
    # step (i): per-unit uniform resample for every draw
    per_unit = rng.integers(0, t1, size=(l, j))
    # step (ii): unit selection with the weight probabilities
    cum = np.cumsum(w)
    cum[-1] = 1.0
    units = np.searchsorted(cum, rng.random(l), side="right")
    units = np.minimum(units, j - 1)
    draws = post[units, per_unit[np.arange(l), units]]
    if weights.intercept is not None:
        draws = draws + weights.intercept
    return BootstrapSample(draws=draws, l=l, seed=seed, weights_used=weights)


def quantiles(sample: BootstrapSample, probs) -> list[float]:
    """Empirical quantiles with linear interpolation between order statistics."""
    probs = list(probs)
    if not probs:
        raise BadProbError("probs must be non-empty")
    for p in probs:
        if not (0.0 < p < 1.0):
            raise BadProbError(f"quantile probability {p} outside (0, 1)")
    if any(b < a for a, b in zip(probs, probs[1:])):
        raise BadProbError("probs must be sorted ascending")
    return [float(q) for q in np.quantile(sample.draws, probs)]


def save_draws(sample: BootstrapSample, target) -> None:
    """Write the bootstrap draws as a one-column CSV."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            save_draws(sample, fh)
        return
    writer = csv.writer(target)
    writer.writerow(["draw"])
    for value in sample.draws:
        writer.writerow([repr(float(value))])


# One kernel strip holds at most this many float64 values (8 MiB), so the
# MMD test needs O(n * (block + permutations)) memory for n pooled values.
_STRIP_ELEMS = 1 << 20
# Pivot sampling in the pairwise-difference selection: sample size, and how
# many sample ranks each pivot sits from the target rank (at least four
# standard deviations of the target's rank within the sample).
_PIVOT_SAMPLE = 1024
_PIVOT_SPREAD = 64


def _count_diffs_le(s, lo, hi, thresholds) -> np.ndarray:
    """Per threshold t and row a, #{b in [lo[a], hi[a]) : s[b] - s[a] <= t}.

    A binary search on the computed differences themselves: for sorted s and
    a fixed row they are monotone in b, because rounding is monotone.
    """
    base = s[:-1]
    last = s.shape[0] - 1
    t = np.asarray(thresholds, dtype=float)[:, None]
    left = np.tile(lo, (t.shape[0], 1))
    right = np.tile(hi, (t.shape[0], 1))
    while True:
        open_ = left < right
        if not open_.any():
            return left - lo
        mid = (left + right) >> 1
        ok = open_ & (s[np.minimum(mid, last)] - base <= t)
        left = np.where(ok, mid + 1, left)
        right = np.where(open_ & ~ok, mid, right)


def _kth_pair_diff(s: np.ndarray, k: int) -> float:
    """The k-th smallest (0-based) of s[b] - s[a] over a < b, for sorted s.

    Row a's candidates are the columns [lo[a], hi[a]). Each round samples
    the candidates, takes two sampled values that bracket rank k, counts
    the candidates below and up to each by binary search, and keeps only
    the ranges that can still hold rank k. Once at most 8n candidates are
    left they are gathered and partitioned. Every value compared is a
    difference computed as s[b] - s[a], the same floating-point numbers as
    |x_i - x_j|, so the result is exact.
    """
    n = s.shape[0]
    rows = np.arange(n - 1)
    lo, hi = rows + 1, np.full(n - 1, n)
    rng = np.random.default_rng(0)  # picks pivots only, never the result

    def gather(flat):
        r = np.searchsorted(ends, flat, side="right")
        return s[lo[r] + flat - (ends[r] - counts[r])] - s[r]

    while True:
        counts = hi - lo
        ends = np.cumsum(counts)
        total = int(ends[-1])
        if total <= 8 * n:
            return float(np.partition(gather(np.arange(total)), k)[k])
        sample = np.sort(gather(rng.integers(0, total, _PIVOT_SAMPLE)))
        centre = int((k + 0.5) / total * _PIVOT_SAMPLE)
        v_lo = sample[max(centre - _PIVOT_SPREAD, 0)]
        v_hi = sample[min(centre + _PIVOT_SPREAD, _PIVOT_SAMPLE - 1)]
        below_lo, below_hi = np.nextafter([v_lo, v_hi], -np.inf)
        c = _count_diffs_le(s, lo, hi, [below_lo, v_lo, below_hi, v_hi])
        lt_lo, le_lo, lt_hi, le_hi = (int(x) for x in c.sum(axis=1))
        # each branch drops at least one sampled pivot, so the loop ends
        if k < lt_lo:
            hi = lo + c[0]
        elif k < le_lo:
            return float(v_lo)
        elif k < lt_hi:
            lo, hi = lo + c[1], lo + c[2]
            k -= le_lo
        elif k < le_hi:
            return float(v_hi)
        else:
            lo = lo + c[3]
            k -= le_hi


def _median_bandwidth(pooled: np.ndarray) -> float:
    """Median of |x_i - x_j| over pairs i < j, bit for bit as np.median.

    Selection on the sorted sample instead of materialising the n(n-1)/2
    differences: O(n) memory and O(n log n) time per selection round. Falls
    back to 1.0 when the median is not positive (constant data) or is NaN.
    """
    s = np.sort(pooled)  # NaNs sort last
    if np.isnan(s[-1]) or s[1] == -np.inf or s[-2] == np.inf:
        return 1.0  # a NaN, or inf - inf between repeated infinities: NaN median
    n = s.shape[0]
    m = n * (n - 1) // 2
    med = _kth_pair_diff(s, (m - 1) // 2)
    if m % 2 == 0:
        med = (med + _kth_pair_diff(s, m // 2)) / 2.0
    return med if med > 0 else 1.0


def _mmd2_splits(pooled: np.ndarray, h: float, masks: np.ndarray) -> np.ndarray:
    """Unbiased squared MMD for every split of the pooled sample at once.

    Column p of ``masks`` (n x P, 0/1) marks the members of the smaller
    sample S under split p; L is the rest. The kernel is walked in strips;
    each adds to its row sums r and to q = diag(M' K M), the within-S sums
    including the unit diagonal. With t = r'M and s = sum(r):
    cross = t - q and the within-L sum = s - 2t + q, so neither the n x n
    kernel nor the n x P product K M is ever held. Marking the smaller
    sample keeps the cancellation in both derived sums small.

    Strip K[start:stop, start:] covers the upper block triangle only (K is
    symmetric) and holds at most _STRIP_ELEMS values. Its entries
    exp(-(x_i - x_j)**2 / (2 h^2)) are formed with the same operations as
    the dense matrix, so each is bit-identical to it.
    """
    n, splits = masks.shape
    n_s = int(masks[:, 0].sum())
    n_l = n - n_s
    rows = max(1, _STRIP_ELEMS // n)
    scale = 2.0 * h * h
    r = np.zeros(n)
    q = np.zeros(splits)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        width = stop - start
        strip = pooled[start:stop, None] - pooled[None, start:]
        np.square(strip, out=strip)
        np.negative(strip, out=strip)
        np.divide(strip, scale, out=strip)
        np.exp(strip, out=strip)
        r[start:stop] += strip.sum(axis=1)
        r[stop:] += strip[:, width:].sum(axis=0)
        # right of the diagonal block, each entry stands for K[i, j] and K[j, i]
        strip[:, width:] *= 2.0
        q += np.einsum("ij,ij->j", masks[start:stop], strip @ masks[start:])
    t = r @ masks
    cross = t - q
    quad_l = r.sum() - 2.0 * t + q - n_l
    quad_s = q - n_s  # remove the unit diagonal
    return (
        quad_s / (n_s * (n_s - 1))
        + quad_l / (n_l * (n_l - 1))
        - 2.0 * cross / (n_s * n_l)
    )


def _smaller_sample(n_a: int, n_b: int) -> slice:
    """Positions, within a permutation of the pooled sample, of the smaller sample."""
    return slice(0, n_a) if n_a <= n_b else slice(n_a, n_a + n_b)


def mmd_squared(a, b, bandwidth: float | None = None) -> float:
    """Unbiased squared-MMD estimate with a Gaussian kernel (no test).

    The bandwidth defaults to the median pairwise distance of the pooled
    sample. Computed by the same blocked routine as ``mmd_test``.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n_a, n_b = a.shape[0], b.shape[0]
    if n_a < 2 or n_b < 2:
        raise DimensionMismatchError("both samples need at least 2 observations")
    pooled = np.concatenate([a, b])
    h = _median_bandwidth(pooled) if bandwidth is None else float(bandwidth)
    masks = np.zeros((n_a + n_b, 1))
    masks[_smaller_sample(n_a, n_b)] = 1.0
    return float(_mmd2_splits(pooled, h, masks)[0])


def mmd_test(a, b, permutations: int = 500, seed: int = 0) -> MmdReport:
    """Gaussian-kernel two-sample homogeneity test with a permutation p-value.

    Uses the unbiased squared-MMD estimate and the median-heuristic bandwidth
    on the pooled sample (permutation-invariant, so exchangeability under the
    null is preserved). The p-value is (1 + #{permuted >= observed}) divided
    by (permutations + 1), hence always at least 1/(permutations + 1).
    Permutation p takes the first len(a) entries of the p-th
    ``rng.permutation(n)`` as sample A.

    Memory is O(n * (block + permutations)) for n pooled values: the
    bandwidth comes from a selection on the sorted sample, and the observed
    split and every permutation are evaluated together while the kernel is
    formed one strip of at most 2**20 entries at a time (see
    ``_mmd2_splits``). No n x n array is built.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n_a, n_b = a.shape[0], b.shape[0]
    if n_a < 2 or n_b < 2:
        raise DimensionMismatchError("both samples need at least 2 observations")
    if permutations < 1:
        raise DimensionMismatchError("need at least one permutation")
    pooled = np.concatenate([a, b])
    n = n_a + n_b
    h = _median_bandwidth(pooled)

    rng = np.random.default_rng(seed)
    smaller = _smaller_sample(n_a, n_b)
    # column 0 is the observed split, column p the p-th permutation
    masks = np.zeros((n, permutations + 1))
    masks[smaller, 0] = 1.0
    for col in range(1, permutations + 1):
        perm = rng.permutation(n)
        marked = perm[smaller]
        if n_a == n_b and not (marked == 0).any():
            # a split and its mirror score the same; marking the half that
            # holds pooled position 0 gives both one column, so they tie
            # exactly
            marked = perm[n_a:]
        masks[marked, col] = 1.0
    stats = _mmd2_splits(pooled, h, masks)
    observed = float(stats[0])
    exceed = int(np.count_nonzero(stats[1:] >= observed))
    p = (1 + exceed) / (permutations + 1)
    return MmdReport(
        mmd2=observed, p_value=p, bandwidth=h, permutations=permutations
    )
