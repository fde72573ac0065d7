"""Statistics of the repo benchmark, kept apart from the runner so they can
be tested on their own (perfbench/tests/test_stats.py).

Every function works on raw samples; nothing is bucketed.
"""

import math

# Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no samples")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2.0


def ref_seconds(op_s, probe_s, ref_s):
    """Seconds of a process's ops at the reference host speed: their sum
    scaled by the reference probe time over the median of the host-speed
    probes taken among the ops (a median, so one probe that hit a brief
    stall does not rescale the whole process)."""
    probe = median(probe_s)
    if ref_s <= 0 or probe <= 0:
        raise ValueError("host-speed probe times must be positive")
    return sum(op_s) * ref_s / probe


def nearest_rank(xs_sorted, q):
    """1-based nearest rank of percentile q in n sorted samples."""
    n = len(xs_sorted)
    return max(1, min(n, math.ceil(q / 100.0 * n)))


def tail(values):
    """The highest percentile in TAIL_PERCENTILES that has at least
    TAIL_MIN_BEYOND samples beyond it (nearest-rank definition).

    Returns a dict {"percentile", "value", "count", "beyond"}, or None when
    even the median has fewer than TAIL_MIN_BEYOND samples beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    for q in TAIL_PERCENTILES:
        if n == 0:
            break
        k = nearest_rank(xs, q)
        if n - k >= TAIL_MIN_BEYOND:
            return {"percentile": q, "value": xs[k - 1], "count": n,
                    "beyond": n - k}
    return None


def summary(values):
    """Median and tail of raw samples, each with the sample count."""
    xs = list(values)
    out = {"count": len(xs)}
    if xs:
        out["p50"] = median(xs)
        t = tail(xs)
        if t:
            out["tail"] = t
    return out


# ---------------------------------------------------------------- open loop

def open_loop(due, sent, done):
    """Latency and lateness of open-loop requests.

    due:  when each request was scheduled to be sent
    sent: when the generator actually sent it
    done: when its result arrived (None = failed)

    Latency is measured from `due`, so a generator or daemon stall that
    holds back later requests is charged to them too.  Lateness is
    sent - due: how far behind its schedule the generator ran.
    """
    latency, late = [], []
    for d, s, e in zip(due, sent, done):
        late.append(s - d)
        latency.append(math.inf if e is None else e - d)
    return latency, late


def backlog(t, due, done):
    """Requests due by time t that have not completed by t."""
    return sum(1 for d in due if d <= t) - sum(
        1 for e in done if e is not None and e <= t)


def mean_backlog(a, b, due, done, points=20):
    """Backlog averaged over `points` evenly spaced times in [a, b)."""
    step = (b - a) / points
    return sum(backlog(a + (i + 0.5) * step, due, done)
               for i in range(points)) / points


def rung_verdict(rate, start, end, due, done, ok, limit_ms):
    """Whether one rung of the rate ladder met its limits.

    A rung passes when every job scheduled in [start, end) succeeded, the
    latency tail of those jobs stays under limit_ms, and the backlog does
    not grow over the rung: the backlog averaged over its last quarter may
    exceed that averaged over its second quarter (the first lets the queue
    settle after the step up from the previous rate) by at most the larger
    of 3 jobs and 10% of the rung's jobs, which Poisson arrivals stay within
    at a sustainable rate.  Averages over quarters, not the backlog at two
    instants, keep a burst of arrivals from deciding the verdict.
    """
    idx = [i for i, d in enumerate(due) if start <= d < end]
    lat_ms = [(done[i] - due[i]) * 1e3 for i in idx if ok[i]]
    t = tail(lat_ms) if len(lat_ms) == len(idx) else None
    finished = done_or_none(done, ok)
    quarter = (end - start) / 4.0
    growth = (mean_backlog(end - quarter, end, due, finished)
              - mean_backlog(start + quarter, start + 2 * quarter, due,
                             finished))
    slack = max(3, math.ceil(0.1 * len(idx)))
    reasons = []
    if not idx:
        reasons.append("no jobs")
    if len(lat_ms) != len(idx):
        reasons.append("failed jobs")
    if t is None and idx and len(lat_ms) == len(idx):
        reasons.append("too few samples for a tail")
    if t is not None and t["value"] > limit_ms:
        reasons.append("tail over limit")
    if growth > slack:
        reasons.append("backlog grows")
    return {"rate": rate, "jobs": len(idx), "tail": t, "p50_ms":
            median(lat_ms) if lat_ms else None, "backlog_growth": growth,
            "passed": not reasons, "reasons": reasons}


def done_or_none(done, ok):
    """Completion times with failed requests as None."""
    return [e if k else None for e, k in zip(done, ok)]


def max_rate(verdicts):
    """Highest rate of the ladder, in ascending order, reached before the
    first rung that fails; 0 when the lowest rung already fails."""
    best = 0.0
    for v in sorted(verdicts, key=lambda v: v["rate"]):
        if not v["passed"]:
            break
        best = v["rate"]
    return best


# ------------------------------------------------------------------- spans

def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover (overlapping children count once; children
    are clipped to the parent).  spans: dicts with id, parent, start_us,
    end_us.  Returns {id: self_us}.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_us"], s["end_us"]
        cover = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s["id"], []),
                        key=lambda c: c["start_us"]):
            a, b = max(lo, c["start_us"]), min(hi, c["end_us"])
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    cover += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            cover += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - cover
    return out


def chrome_trace(spans, pid):
    """Chrome trace-event JSON object ("X" complete events) for Perfetto or
    chrome://tracing.  Each event keeps its span id, parent id and self
    time in args."""
    selfs = self_times(spans)
    t0 = min((s["start_us"] for s in spans), default=0.0)
    events = []
    for s in spans:
        events.append({
            "name": s["name"], "cat": s["name"].split(".")[0], "ph": "X",
            "ts": s["start_us"] - t0, "dur": s["end_us"] - s["start_us"],
            "pid": pid, "tid": s["tid"],
            "args": {"id": s["id"], "parent": s["parent"],
                     "self_us": selfs[s["id"]]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
