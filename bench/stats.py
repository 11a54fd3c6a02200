"""Order statistics with the tail rule the benchmark reports by."""

import math

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A tail percentile was asked of a run with too few samples beyond it."""


def percentile(samples, q: float) -> float:
    """Linear-interpolation percentile (numpy's default) of ``samples``, ``q`` in [0, 100]."""
    xs = sorted(samples)
    if not xs:
        raise TooFewSamples("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(samples, q: float) -> int:
    """Number of samples strictly above the q-th percentile."""
    cut = percentile(samples, q)
    return sum(1 for x in samples if x > cut)


def tail_percentile(samples, q: float) -> float:
    """The q-th percentile, refused unless at least MIN_BEYOND samples lie beyond it."""
    n_beyond = beyond(samples, q) if samples else 0
    if n_beyond < MIN_BEYOND:
        raise TooFewSamples(f"p{q:g} of {len(samples)} samples has {n_beyond} beyond it "
                            f"(need {MIN_BEYOND})")
    return percentile(samples, q)


def enough_for_tail(n: int, q: float) -> bool:
    """Whether ``n`` distinct samples put at least MIN_BEYOND above the q-th percentile."""
    if n < 1:
        return False
    pos = (n - 1) * q / 100.0
    return n - 1 - math.floor(pos) >= MIN_BEYOND
