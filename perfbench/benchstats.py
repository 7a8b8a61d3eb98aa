"""Statistics and oracle helpers of the explorer benchmark (run.py).

Kept free of I/O so test_benchstats.py can pin the math: medians, the
highest percentile a sample supports, geometric means, the golden best
row a search must rediscover, and span self-time accounting.
"""

import math

# Percentiles a timing may be reported at, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values):
    """Median of a non-empty sequence (mean of the middle two if even)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def supported_percentile(values, min_beyond=10):
    """The highest ladder percentile with at least `min_beyond` samples
    above it, as (percentile, nearest-rank value); None when even the
    median lacks that many (fewer than 2 * min_beyond samples)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILE_LADDER:
        if n * (100.0 - p) / 100.0 >= min_beyond:
            # Nearest rank; the epsilon keeps 0.9 * 100 from rounding up.
            rank = max(1, math.ceil(p * n / 100.0 - 1e-9))
            return p, float(ordered[rank - 1])
    return None


def geomean(values):
    """Geometric mean of positive values."""
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def golden_best(csv_text):
    """The row an exhaustive argmax keeps: log-fidelity descending, then
    time ascending, then row index ascending (search.cpp's order)."""
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    lf = header.index("log_fidelity")
    ts = header.index("time_s")
    rows = lines[1:]
    if not rows:
        raise ValueError("golden CSV has no rows")
    best = min(
        range(len(rows)),
        key=lambda i: (-float(rows[i].split(",")[lf]),
                       float(rows[i].split(",")[ts]), i))
    return rows[best]


def covered_length(intervals, lo, hi):
    """Length of [lo, hi) covered by the union of half-open intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that
    its children cover (children on parallel threads may overlap each
    other; their union counts once).

    `spans` maps id -> (parent, name, start, end). Returns id -> self.
    """
    children = {}
    for sid, (parent, _name, start, end) in spans.items():
        if parent:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for sid, (_parent, _name, start, end) in spans.items():
        covered = covered_length(children.get(sid, ()), start, end)
        result[sid] = (end - start) - covered
    return result


def root_of(spans):
    """Map every span id to the id of its root span. A span opens after
    its parent, so its id is larger and ascending order sees the parent
    first."""
    roots = {}
    for sid in sorted(spans):
        parent = spans[sid][0]
        roots[sid] = roots[parent] if parent else sid
    return roots
