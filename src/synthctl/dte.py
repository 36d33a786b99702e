"""Distributional treatment effects: counterfactual bootstrap, quantiles, MMD.

The bootstrap targets the pooled post-period counterfactual density: each
draw resamples one post-period value from every untreated unit, then keeps
the value of a unit selected with the fitted weights. All randomness flows
through an explicit 64-bit seed; there is no global RNG state. Independent
replications must derive distinct child seeds (see ``synthctl.seeding``).

The MMD permutation test never holds an n x n array for n pooled values.
It reduces the pooled sample once to its distinct values u with counts c:
bootstrap draws repeat the values of the post-period panel, so u is often
far shorter than the sample (24 of 10,006 values in the README example),
and continuous data simply has len(u) = n. The median-heuristic bandwidth
is an exact selection over u that counts each pair of values c_a c_b
times, bit-identical to the median of the dense pairwise differences. The
Gaussian kernel of u is formed one strip of rows at a time (at most 2**16
entries, 512 KiB, upper block triangle only, since the kernel is
symmetric) for its count-weighted row sums. Each of the observed split and
the P permutations is the sorted value indices of its smaller sample, n_s
of them, and needs in addition the kernel sum within that sample, which
one of two paths computes:

- the product path multiplies each strip by the matrix of per-value counts
  of the distinct splits, len(u) rows and at most P + 1 columns, about
  len(u)^2 / 2 multiply-adds per distinct split;
- the gather path forms the n_s (n_s - 1) / 2 within-sample kernel entries
  of every split from the gathered values, in blocks of splits that hold at
  most one strip.

A gathered entry costs about 100 multiply-adds of the product, so the
gather path runs when n_s (n_s - 1) * 100 < n^2 (see ``_gathers``): for
unbalanced samples, such as a few observed values against thousands of
bootstrap draws. Either way the memory is O(2**16 + P * n_s), since the
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
    return BootstrapSample(draws=draws, l=l, seed=seed)


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


# One kernel strip holds at most this many float64 values (512 KiB, which
# stays in a core's L2 cache); so does one block of gathered within-sample
# kernel entries. Timed from 2**14 to 2**20 on a 2-core x86-64 host (2 MiB L2
# per core, one BLAS thread, 500 permutations): 2**15 to 2**17 were fastest
# at 100 vs 3,000 continuous values, where 2**20 took 20% longer, and every
# cap from 2**15 to 2**20 timed within 8% of the others at 100 vs 2,000
# drawn values, 6 vs 10,000 and 200 vs 200.
_STRIP_ELEMS = 1 << 16
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


def _kth_pair_diff(u: np.ndarray, c: np.ndarray, k: int) -> float:
    """The k-th smallest (0-based) of u[b] - u[a] over a < b, each c[a] c[b] times.

    For sorted distinct values u with counts c. Row a's candidates are the
    columns [lo[a], hi[a]), and every rank counts a pair c[a] c[b] times.
    Each round samples the candidates in proportion to those multiplicities,
    takes two sampled values that bracket rank k, counts the candidates
    below and up to each by binary search, and keeps only the ranges that
    can still hold rank k. Once at most 8 len(u) pairs are left they are
    gathered and selected by their cumulative multiplicity. Every value
    compared is a difference computed as u[b] - u[a], the same
    floating-point numbers as |x_i - x_j|, so the result is exact.
    """
    n = u.shape[0]
    ca = c[:-1]  # each row's own count
    cum = np.concatenate(([0], np.cumsum(c)))  # columns [lo, hi) weigh cum[hi] - cum[lo]
    lo, hi = np.arange(1, n), np.full(n - 1, n)
    rng = np.random.default_rng(0)  # picks pivots only, never the result

    while True:
        counts = hi - lo
        ends = np.cumsum(counts)
        total = int(ends[-1])
        if total <= 8 * n:
            flat = np.arange(total)
            r = np.searchsorted(ends, flat, side="right")
            cols = lo[r] + flat - (ends[r] - counts[r])
            diffs = u[cols] - u[r]
            order = np.argsort(diffs)
            ranks = np.cumsum((ca[r] * c[cols])[order])
            return float(diffs[order[np.searchsorted(ranks, k, side="right")]])
        weights = ca * (cum[hi] - cum[lo])
        wends = np.cumsum(weights)
        wtotal = int(wends[-1])
        flat = rng.integers(0, wtotal, _PIVOT_SAMPLE)
        r = np.searchsorted(wends, flat, side="right")
        offset = cum[lo[r]] + (flat - (wends[r] - weights[r])) // ca[r]
        cols = np.searchsorted(cum, offset, side="right") - 1
        sample = np.sort(u[cols] - u[r])
        centre = int((k + 0.5) / wtotal * _PIVOT_SAMPLE)
        v_lo = sample[max(centre - _PIVOT_SPREAD, 0)]
        v_hi = sample[min(centre + _PIVOT_SPREAD, _PIVOT_SAMPLE - 1)]
        below_lo, below_hi = np.nextafter([v_lo, v_hi], -np.inf)
        cnt = _count_diffs_le(u, lo, hi, [below_lo, v_lo, below_hi, v_hi])
        ranked = ca * (cum[lo + cnt] - cum[lo])
        lt_lo, le_lo, lt_hi, le_hi = (int(x) for x in ranked.sum(axis=1))
        # each branch drops at least one sampled pivot, so the loop ends
        if k < lt_lo:
            hi = lo + cnt[0]
        elif k < le_lo:
            return float(v_lo)
        elif k < lt_hi:
            lo, hi = lo + cnt[1], lo + cnt[2]
            k -= le_lo
        elif k < le_hi:
            return float(v_hi)
        else:
            lo = lo + cnt[3]
            k -= le_hi


def _median_bandwidth(u: np.ndarray, c: np.ndarray) -> float:
    """Median of |x_i - x_j| over pairs i < j, bit for bit as np.median.

    Takes the pooled sample as its sorted distinct values u and their counts
    c (``np.unique``). The sum(c (c - 1) / 2) pairs within one value are
    exact zeros and rank first; the rest are selected from the pairs of
    distinct values, each counted c_a c_b times, instead of materialising
    the n(n-1)/2 differences: O(len(u)) memory and O(len(u) log len(u))
    time per selection round. Falls back to 1.0 when the median is not
    positive (constant data) or is NaN.
    """
    if np.isnan(u[-1]) or (u[0] == -np.inf and c[0] > 1) or (u[-1] == np.inf and c[-1] > 1):
        return 1.0  # a NaN, or inf - inf between repeated infinities: NaN median
    n = int(c.sum())
    m = n * (n - 1) // 2
    zeros = int((c * (c - 1) // 2).sum())

    def kth(k: int) -> float:
        return 0.0 if k < zeros else _kth_pair_diff(u, c, k - zeros)

    med = kth((m - 1) // 2)
    if m % 2 == 0:
        med = (med + kth(m // 2)) / 2.0
    return med if med > 0 else 1.0


def _gathers(n: int, n_s: int) -> bool:
    """Whether ``_mmd2_splits`` sums gathered within-sample pairs for n pooled values.

    Per distinct split, the strip product costs about len(u)^2 / 2
    multiply-adds, u the distinct pooled values (at most n of them), and the
    gather n_s (n_s - 1) / 2 kernel entries of about _GATHER_PAIR_COST
    multiply-adds each. The measured crossover is near n_s / n = 0.09.

    The product path is priced by n, not len(u), on purpose: that confines it
    to n below about 10 n_s, and so keeps its len(u) x splits count matrix at
    O(n_s P). Priced by len(u), samples with repeated values took the product
    path, and the benchmark's ``infer`` workload rose from 62-65 to
    73.5-73.9 MB peak RSS (2-core x86-64 host).
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


def _mmd2_splits(
    u: np.ndarray, c: np.ndarray, h: float, splits: np.ndarray
) -> np.ndarray:
    """Unbiased squared MMD for every split of the pooled sample at once.

    The pooled sample is given as its distinct values u with counts c. Row p
    of ``splits`` (P x n_s) holds the sorted indices into u of the smaller
    sample S under split p, one per member, so a value held twice appears
    twice; L is the rest. The kernel K of u is walked in strips, each adding
    to the row sums r = K c, which every position holding u_a shares. With q
    the within-S sum including the unit diagonal, t = sum(r[S]) and
    s = c'r: cross = t - q and the within-L sum = s - 2t + q, so no n x n
    kernel is ever held. Marking the smaller sample keeps the cancellation in
    both derived sums small.

    Strip K[start:stop, start:] covers the upper block triangle only (K is
    symmetric) and holds at most _STRIP_ELEMS values. Its entries
    exp(-(u_a - u_b)**2 / (2 h^2)) are formed with the same operations as
    the dense matrix, so each is bit-identical to it; so are the entries
    the gather path forms.

    q comes from one of two paths, chosen by ``_gathers`` on the numbers of
    positions, n and n_s:

    - product: each strip also adds diag(M' K M) for the matrix M of
      per-value counts with one column per distinct split, and t = r'M;
      O(_STRIP_ELEMS + len(u) * P) memory. A repeated split is scored once
      and its statistic indexed back, so it ties exactly whatever the BLAS
      kernel rounds.
    - gather: q = n_s + 2 * (sum of K_ij over i < j in S), from the n_s
      gathered values of each split (``_within_pair_sums``), and
      t = sum(r[S]); O(_STRIP_ELEMS + n_s * P) memory. Splits that hold the
      same values have equal rows, summed in the same order, so their
      statistics tie exactly.
    """
    n_u = u.shape[0]
    n = int(c.sum())
    n_s = splits.shape[1]
    n_l = n - n_s
    weights = c.astype(float)
    members = inverse = None
    if not _gathers(n, n_s):
        # one column per distinct split: a BLAS kernel may round equal
        # columns apart, and their statistics must tie exactly. Rows are
        # told apart by their bytes: the same distinct rows as
        # np.unique(splits, axis=0), in about a fifth of its time
        splits = np.ascontiguousarray(splits)
        keys = splits.view(np.dtype((np.void, splits.itemsize * n_s))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        splits = splits[first]
        count = splits.shape[0]
        flat = splits * count + np.arange(count)[:, None]
        members = np.bincount(flat.ravel(), minlength=n_u * count)
        members = members.reshape(n_u, count).astype(float)
    rows = max(1, _STRIP_ELEMS // n_u)
    scale = 2.0 * h * h
    r = np.zeros(n_u)
    q = np.zeros(splits.shape[0])
    for start in range(0, n_u, rows):
        stop = min(start + rows, n_u)
        width = stop - start
        strip = u[start:stop, None] - u[None, start:]
        np.square(strip, out=strip)
        np.negative(strip, out=strip)
        np.divide(strip, scale, out=strip)
        np.exp(strip, out=strip)
        r[start:stop] += strip @ weights[start:]
        r[stop:] += weights[start:stop] @ strip[:, width:]
        if members is not None:
            # right of the diagonal block, each entry stands for K[a, b] and K[b, a]
            strip[:, width:] *= 2.0
            q += np.einsum("ij,ij->j", members[start:stop], strip @ members[start:])
    if members is None:
        q = n_s + 2.0 * _within_pair_sums(u[splits], scale)
        t = r[splits].sum(axis=1)
    else:
        t = r @ members
    cross = t - q
    quad_l = weights @ r - 2.0 * t + q - n_l
    quad_s = q - n_s  # remove the unit diagonal
    stats = (
        quad_s / (n_s * (n_s - 1))
        + quad_l / (n_l * (n_l - 1))
        - 2.0 * cross / (n_s * n_l)
    )
    return stats if inverse is None else stats[inverse]


def _smaller_sample(n_a: int, n_b: int) -> slice:
    """Positions of the smaller sample in the pooled sample, a then b."""
    return slice(0, n_a) if n_a <= n_b else slice(n_a, n_a + n_b)


def mmd_squared(a, b) -> float:
    """Unbiased squared-MMD estimate with a Gaussian kernel (no test).

    The bandwidth is the median pairwise distance of the pooled
    sample. Computed by ``_mmd2_splits`` like ``mmd_test``'s statistic, but
    for the observed split alone. On the gather path (see ``_gathers``) each
    split is summed on its own, so the result equals ``mmd_test``'s ``mmd2``
    bit for bit. On the product path the strip product with one split column
    rounds differently than with ``mmd_test``'s column per distinct split,
    so the two can differ in the last bits (a few 1e-15 absolute).
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n_a, n_b = a.shape[0], b.shape[0]
    if n_a < 2 or n_b < 2:
        raise DimensionMismatchError("both samples need at least 2 observations")
    u, at, c = np.unique(np.concatenate([a, b]), return_inverse=True, return_counts=True)
    h = _median_bandwidth(u, c)
    observed = np.sort(at[_smaller_sample(n_a, n_b)])[None, :]
    return float(_mmd2_splits(u, c, h, observed)[0])


def mmd_test(a, b, permutations: int = 500, seed: int = 0) -> MmdReport:
    """Gaussian-kernel two-sample homogeneity test with a permutation p-value.

    Uses the unbiased squared-MMD estimate and the median-heuristic bandwidth
    on the pooled sample (permutation-invariant, so exchangeability under the
    null is preserved). The p-value is (1 + #{permuted >= observed}) divided
    by (permutations + 1), hence always at least 1/(permutations + 1).
    Permutation p draws the n_s pooled positions of the smaller sample with
    the p-th ``rng.choice(n, n_s, replace=False)``; the rest form the larger
    sample. When both samples have n_s values, the drawn half or its mirror
    is marked, whichever holds pooled position 0 (the two are one split).

    The pooled sample is reduced once to its distinct values (``np.unique``),
    and the bandwidth selection and the kernel work on those: bootstrap
    draws repeat the few values of the post-period panel, so the kernel
    costs len(u)^2 / 2 entries, not n^2 / 2. Memory is
    O(2**16 + permutations * n_s) for n_s values in the smaller sample, and
    O(len(u) * permutations) more where the split statistics come from the
    strip product (see ``_mmd2_splits``). No n x n array is built.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n_a, n_b = a.shape[0], b.shape[0]
    if n_a < 2 or n_b < 2:
        raise DimensionMismatchError("both samples need at least 2 observations")
    if permutations < 1:
        raise DimensionMismatchError("need at least one permutation")
    u, at, c = np.unique(np.concatenate([a, b]), return_inverse=True, return_counts=True)
    n = n_a + n_b
    h = _median_bandwidth(u, c)

    rng = np.random.default_rng(seed)
    n_s = min(n_a, n_b)
    # row 0 is the observed split, row p the p-th permutation
    splits = np.empty((permutations + 1, n_s), dtype=np.intp)
    splits[0] = np.arange(n)[_smaller_sample(n_a, n_b)]
    for row in range(1, permutations + 1):
        splits[row] = rng.choice(n, n_s, replace=False)
    if n_a == n_b:
        # a split and its mirror score the same; marking the half that holds
        # pooled position 0 gives both one row, so they tie exactly
        mirror = np.flatnonzero(~(splits == 0).any(axis=1))
        rest = np.ones((mirror.shape[0], n), dtype=bool)
        rest[np.arange(mirror.shape[0])[:, None], splits[mirror]] = False
        splits[mirror] = np.nonzero(rest)[1].reshape(-1, n_s)
    # each member by its value's index, sorted: splits holding the same
    # values sum them in the same order
    splits = at[splits]
    splits.sort(axis=1)
    stats = _mmd2_splits(u, c, h, splits)
    observed = float(stats[0])
    exceed = int(np.count_nonzero(stats[1:] >= observed))
    p = (1 + exceed) / (permutations + 1)
    return MmdReport(
        mmd2=observed, p_value=p, bandwidth=h, permutations=permutations
    )
