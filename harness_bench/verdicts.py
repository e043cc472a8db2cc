"""Parent-versus-change verdicts over paired benchmark runs.

A gain counts only when the change wins at least nine tenths of at least
ten pairs whose order alternated, and the medians differ by more than the
parent's interquartile range.  Otherwise a metric is ``unresolved`` when
its run-to-run spread is wider than its bound (``no worse`` instead if
every change run beats every parent run), ``worse`` when the change's
median is worse than the parent's by more than the bound, and
``no worse`` if not.

Failures are judged apart (:func:`error_verdict`): their bound is zero,
so one more failed run than the parent's is a regression.
"""

from __future__ import annotations

import statistics

BETTER, NO_WORSE, WORSE, UNRESOLVED = ("better", "no worse", "worse",
                                       "unresolved")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _improves(new, old, better):
    return new > old if better == "higher" else new < old


def verdict(parent, change, better, bound, alternated=True):
    """Verdict for one metric on one workload.

    ``parent``/``change`` are per-run values, paired by index; ``bound``
    is a share of the parent's median.  Returns ``(verdict, detail)``.
    """
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if _improves(c, p, better))
    detail = {
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "pairs": len(pairs), "wins": wins,
    }
    parent_iqr = p_q3 - p_q1
    if (len(pairs) >= MIN_PAIRS and alternated
            and wins >= WIN_SHARE * len(pairs)
            and _improves(c_med, p_med, better)
            and abs(c_med - p_med) > parent_iqr):
        return BETTER, detail
    spread = max(parent_iqr / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    worse_by = ((c_med - p_med) if better == "lower"
                else (p_med - c_med)) / abs(p_med) if p_med else 0.0
    detail["spread"] = spread
    if spread > bound:
        # Every change run beating every parent run resolves the metric
        # as not a regression; it is not evidence enough for a gain.
        if all(_improves(c, p, better) for c in change for p in parent):
            return NO_WORSE, detail
        return UNRESOLVED, detail
    if worse_by > bound:
        return WORSE, detail
    return NO_WORSE, detail


def error_verdict(parent_failed, change_failed, pairs):
    """Verdict on ``error_rate``: failed runs per attempted run."""
    detail = {"parent": parent_failed / pairs, "change": change_failed / pairs,
              "pairs": pairs}
    if change_failed > parent_failed:
        return WORSE, detail
    if change_failed < parent_failed:
        return BETTER, detail
    return NO_WORSE, detail
