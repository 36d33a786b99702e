"""Distributional treatment effects: counterfactual bootstrap, quantiles, MMD.

The bootstrap targets the pooled post-period counterfactual density: each
draw resamples one post-period value from every untreated unit, then keeps
the value of a unit selected with the fitted weights. All randomness flows
through an explicit 64-bit seed; there is no global RNG state. Independent
replications must derive distinct child seeds (see ``synthctl.seeding``).

The MMD permutation test never holds an n x n array for n pooled values.
The median-heuristic bandwidth is an exact selection over the sorted sample,
bit-identical to the median of the dense pairwise differences. The Gaussian
kernel is formed one strip of rows at a time (at most 2**20 entries, upper
block triangle only, since the kernel is symmetric) for its row sums. Each
of the observed split and the P permutations is the sorted positions of its
smaller sample, n_s values, and needs in addition the kernel sum within that
sample, which one of two paths computes:

- the product path multiplies each strip by the n x (P + 1) matrix of 0/1
  split indicators, about n^2 / 2 multiply-adds per split;
- the gather path forms the n_s (n_s - 1) / 2 within-sample kernel entries
  of every split from the gathered values, in blocks of splits that hold at
  most one strip.

A gathered entry costs about 100 multiply-adds of the product, so the
gather path runs when n_s (n_s - 1) * 100 < n^2 (see ``_gathers``): for
unbalanced samples, such as a few observed values against thousands of
bootstrap draws. Either way the memory is O(2**20 + P * n_s), since the
product path runs only where n is below about 10 n_s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadConfigError, BadProbError, DimensionMismatchError, EmptyPostError
from .panel import SCHEMA_VERSION, PanelData, open_csv
from .solver import WeightVector

__all__ = [
    "BootstrapSample",
    "MmdReport",
    "bootstrap_counterfactual",
    "check_probs",
    "quantiles",
    "mmd_squared",
    "mmd_test",
    "save_draws",
]


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
    raw-mixture bootstrap corresponds to intercept-free weights. Weights off
    the simplex (``simplex=False``) are no probabilities and are rejected.
    """
    if l <= 1:
        raise DimensionMismatchError(f"need l > 1 draws, got {l}")
    if not weights.simplex:
        raise BadConfigError("the bootstrap needs simplex weights (mixture probabilities)")
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


def check_probs(probs) -> list[float]:
    """Return ``probs`` as a list after checking it: non-empty, in (0, 1), ascending."""
    probs = list(probs)
    if not probs:
        raise BadProbError("probs must be non-empty")
    for p in probs:
        if not (0.0 < p < 1.0):
            raise BadProbError(f"quantile probability {p} outside (0, 1)")
    if any(b < a for a, b in zip(probs, probs[1:])):
        raise BadProbError("probs must be sorted ascending")
    return probs


def quantiles(sample: BootstrapSample, probs) -> list[float]:
    """Empirical quantiles with linear interpolation between order statistics."""
    probs = check_probs(probs)
    return [float(q) for q in np.quantile(sample.draws, probs)]


def save_draws(sample: BootstrapSample, target) -> None:
    """Write the bootstrap draws as a one-column CSV.

    The bytes ``csv.writer`` would write: ``repr`` of each value, which never
    needs quoting, and ``\\r\\n`` line ends, in one ``write`` call.
    """
    lines = ["draw", *map(repr, sample.draws.tolist()), ""]
    with open_csv(target, "w") as fh:
        fh.write("\r\n".join(lines))


# One kernel strip holds at most this many float64 values (8 MiB); so does
# one block of gathered within-sample kernel entries.
_STRIP_ELEMS = 1 << 20
# Time of one gathered within-sample kernel entry (subtract, square, negate,
# divide, exp, sum) over that of one multiply-add of the strip product. On a
# 2-core x86-64 host with one BLAS thread, 500 permutations, the ratio
# measured 57-130 over shapes from 200 vs 200 to 50 vs 5,000 values.
_GATHER_PAIR_COST = 100
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


def _gathers(n: int, n_s: int) -> bool:
    """Whether ``_mmd2_splits`` sums gathered within-sample pairs for n pooled values.

    Per split, the strip product costs about n^2 / 2 multiply-adds and the
    gather n_s (n_s - 1) / 2 kernel entries of about _GATHER_PAIR_COST
    multiply-adds each. The measured crossover is near n_s / n = 0.09.
    """
    return n_s * (n_s - 1) * _GATHER_PAIR_COST < n * n


def _within_pair_sums(x: np.ndarray, scale: float) -> np.ndarray:
    """Row p's sum of exp(-(x[p, i] - x[p, j])**2 / scale) over i < j.

    Works through the upper triangle one row i at a time, for a block of
    rows of ``x`` at once, in one buffer of at most _STRIP_ELEMS values.
    Every row is summed in the same order whatever block it falls in, so
    equal rows give bit-identical sums.
    """
    count, n_s = x.shape
    block = max(1, _STRIP_ELEMS // (n_s - 1))
    buf = np.empty(min(block, count) * (n_s - 1))
    sums = np.zeros(count)
    for b in range(0, count, block):
        xb = x[b : b + block]
        acc = sums[b : b + block]
        for i in range(n_s - 1):
            d = buf[: xb.shape[0] * (n_s - 1 - i)].reshape(xb.shape[0], -1)
            np.subtract(xb[:, i + 1 :], xb[:, i : i + 1], out=d)
            np.square(d, out=d)
            np.negative(d, out=d)
            np.divide(d, scale, out=d)
            np.exp(d, out=d)
            acc += d.sum(axis=1)
    return sums


def _mmd2_splits(pooled: np.ndarray, h: float, splits: np.ndarray) -> np.ndarray:
    """Unbiased squared MMD for every split of the pooled sample at once.

    Row p of ``splits`` (P x n_s) holds the sorted positions of the smaller
    sample S under split p; L is the rest. The kernel is walked in strips,
    each adding to its row sums r. With q the within-S sum including the
    unit diagonal, t = sum(r[S]) and s = sum(r): cross = t - q and the
    within-L sum = s - 2t + q, so the n x n kernel is never held. Marking
    the smaller sample keeps the cancellation in both derived sums small.

    Strip K[start:stop, start:] covers the upper block triangle only (K is
    symmetric) and holds at most _STRIP_ELEMS values. Its entries
    exp(-(x_i - x_j)**2 / (2 h^2)) are formed with the same operations as
    the dense matrix, so each is bit-identical to it; so are the entries
    the gather path forms.

    q comes from one of two paths, chosen by ``_gathers``:

    - product: each strip also adds diag(M' K M) for the n x P matrix M of
      0/1 split indicators, and t = r'M; O(2**20 + n * P) memory.
    - gather: q = n_s + 2 * (sum of K_ij over i < j in S), from the n_s
      gathered values of each split (``_within_pair_sums``), and
      t = sum(r[S]); O(2**20 + n_s * P) memory. Equal splits have equal
      sorted positions, so their statistics tie exactly.
    """
    n = pooled.shape[0]
    count, n_s = splits.shape
    n_l = n - n_s
    masks = None
    if not _gathers(n, n_s):
        masks = np.zeros((n, count))
        masks[splits, np.arange(count)[:, None]] = 1.0
    rows = max(1, _STRIP_ELEMS // n)
    scale = 2.0 * h * h
    r = np.zeros(n)
    q = np.zeros(count)
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
        if masks is not None:
            # right of the diagonal block, each entry stands for K[i, j] and K[j, i]
            strip[:, width:] *= 2.0
            q += np.einsum("ij,ij->j", masks[start:stop], strip @ masks[start:])
    if masks is None:
        q = n_s + 2.0 * _within_pair_sums(pooled[splits], scale)
        t = r[splits].sum(axis=1)
    else:
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
    observed = np.arange(n_a + n_b)[None, _smaller_sample(n_a, n_b)]
    return float(_mmd2_splits(pooled, h, observed)[0])


def mmd_test(a, b, permutations: int = 500, seed: int = 0) -> MmdReport:
    """Gaussian-kernel two-sample homogeneity test with a permutation p-value.

    Uses the unbiased squared-MMD estimate and the median-heuristic bandwidth
    on the pooled sample (permutation-invariant, so exchangeability under the
    null is preserved). The p-value is (1 + #{permuted >= observed}) divided
    by (permutations + 1), hence always at least 1/(permutations + 1).
    Permutation p takes the first len(a) entries of the p-th
    ``rng.permutation(n)`` as sample A.

    Memory is O(2**20 + permutations * n_s) for n_s values in the smaller
    sample: the bandwidth comes from a selection on the sorted sample, and
    the observed split and every permutation are evaluated together while
    the kernel is formed one strip of at most 2**20 entries at a time (see
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
    # row 0 is the observed split, row p the p-th permutation
    splits = np.empty((permutations + 1, min(n_a, n_b)), dtype=np.intp)
    splits[0] = np.arange(n)[smaller]
    for row in range(1, permutations + 1):
        perm = rng.permutation(n)
        marked = perm[smaller]
        if n_a == n_b and not (marked == 0).any():
            # a split and its mirror score the same; marking the half that
            # holds pooled position 0 gives both one row, so they tie exactly
            marked = perm[n_a:]
        splits[row] = marked
    # sorted, equal splits sum their values in the same order
    splits.sort(axis=1)
    stats = _mmd2_splits(pooled, h, splits)
    observed = float(stats[0])
    exceed = int(np.count_nonzero(stats[1:] >= observed))
    p = (1 + exceed) / (permutations + 1)
    return MmdReport(
        mmd2=observed, p_value=p, bandwidth=h, permutations=permutations
    )
