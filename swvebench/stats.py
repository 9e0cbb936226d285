"""Statistics of the swve benchmark, kept apart from run.py so that
tests/test_stats.py can check them on hand-made inputs.

Conventions: latencies are in milliseconds; a failed, refused or timed-out
operation is recorded with a negative latency and counts as infinitely
slow, so it misses every latency limit.
"""

import math

# A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def _clean(values):
    return sorted(math.inf if v < 0 else v for v in values)


def percentile(values, p):
    """Linear-interpolated percentile (0-100) of `values`. Negative entries
    are failures and sort as +inf."""
    xs = _clean(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    frac = rank - lo
    if frac == 0 or xs[lo] == xs[hi]:
        return xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * frac


def samples_beyond(n, p):
    """How many of n samples lie strictly above the p-th percentile rank."""
    rank = (n - 1) * p / 100.0
    return n - 1 - math.floor(rank)


def tail_percentile(values, p, min_beyond=MIN_BEYOND):
    """The p-th percentile of `values`, refused (ValueError) when fewer than
    `min_beyond` samples lie beyond it: a tail resting on a handful of
    samples moves with whichever few of them a run happens to draw."""
    beyond = samples_beyond(len(values), p)
    if beyond < min_beyond:
        raise ValueError(f"p{p:g} of {len(values)} samples has {beyond} beyond it, "
                         f"fewer than {min_beyond}")
    return percentile(values, p)


def due_latencies(due, done):
    """Open-loop latency: each request timed from when it was due to be
    sent, so time a stalled server makes later requests wait counts. A
    negative `done` marks a failed request, whose latency is -1 (a
    failure, see the module docstring)."""
    return [-1.0 if d1 < 0 else d1 - d0 for d0, d1 in zip(due, done)]


def backlog_grows(due, send, limit_ms):
    """True when the generator falls behind for good: requests in the last
    quarter of a step leave later (median) than the latency limit, and
    later than those of the first quarter."""
    n = len(due)
    if n < 8:
        return False
    lag = [s - d for d, s in zip(due, send)]
    q = n // 4
    first = sorted(lag[:q])[q // 2]
    last = sorted(lag[-q:])[q // 2]
    return last > limit_ms and last > first


def qps_at_slo(rates, p99s, backlogged, limit_ms):
    """Offered rate at which p99 latency reaches `limit_ms`.

    `rates` ascend. A rate meets the limit when its p99 is within it and its
    backlog does not grow. The answer starts from the highest rate that
    meets the limit (a lower rate failing on a transient stall does not
    decide it) and is interpolated on log(p99) towards the next rate up, so
    it moves smoothly with the system instead of stepping between rungs.
    When the highest rate meets the limit it is returned; when no rate does,
    the lowest rate scaled down by how far its p99 overshoots."""
    ok = [p <= limit_ms and not b for p, b in zip(p99s, backlogged)]
    if not any(ok):
        return rates[0] * limit_ms / max(p99s[0], limit_ms)
    k = len(ok) - ok[::-1].index(True)  # first rate above the highest passing
    if k == len(ok):
        return rates[-1]
    r0, r1 = rates[k - 1], rates[k]
    p0, p1 = p99s[k - 1], max(p99s[k], limit_ms)
    if math.isinf(p1):
        return r0
    if p1 <= p0:
        return r0
    frac = (math.log(limit_ms) - math.log(p0)) / (math.log(p1) - math.log(p0))
    return r0 + (r1 - r0) * min(max(frac, 0.0), 1.0)


def failed_frac(attempted, failed=0, mismatches=0):
    """(failed + output mismatches) / attempted, where `failed` counts the
    operations that failed, were refused or timed out, and `mismatches`
    the answers that disagree with the golden model."""
    if attempted <= 0:
        raise ValueError("failed_frac needs at least one attempt")
    return (failed + mismatches) / attempted


def _union_length(intervals):
    total = 0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """Self time per span name, plus the unexplained residual.

    `spans` are dicts with id, parent (0 = root), name, start, end and
    replayed. A span's self time is its duration minus the part of it its
    children cover: the union of nested children clipped to the span, plus
    the union of its replayed children (timed as separate calls on the same
    inputs, so they lie outside it). Overlapping children are counted once.
    A negative self time (replays slower than the call they stand for) is
    clamped to zero; what the clamped self times fail to add up to, against
    the roots' total, is the residual.

    Returns (self_by_name, root_total, residual)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    self_by_name = {}
    explained = 0.0
    for s in spans:
        a, b = s["start"], s["end"]
        kids = children.get(s["id"], [])
        nested = [(max(c["start"], a), min(c["end"], b))
                  for c in kids if not c["replayed"]]
        nested = [(x, y) for x, y in nested if y > x]
        replayed = [(c["start"], c["end"]) for c in kids if c["replayed"]]
        own = max(0.0, (b - a) - _union_length(nested) - _union_length(replayed))
        self_by_name[s["name"]] = self_by_name.get(s["name"], 0.0) + own
        explained += own
    root_total = sum(s["end"] - s["start"] for s in children.get(0, []))
    return self_by_name, root_total, root_total - explained


def median(values):
    return percentile(values, 50.0)
