"""Correctness gate and failure accounting.

Every check returns one list of failure reasons per level; a level with any
reason counts as failed in `level_failure_ratio` (and in the run's `failed`).

- Every level must solve.
- Where the committed reference applies (the default seed, or a workload
  whose mesh does not depend on the seed), `n_dofs`, `linsys_n` and
  `linsys_nnz` must match exactly and `e1`, `e0`, `multiplier_err` to 1e-10
  relative.
- On any seed, the e1 rate between the two finest levels must reach the
  workload's acceptance band; a miss fails the finest level.
- A traced level must reproduce `run_study`'s errors to 1e-12 relative, and
  its spans must cover at least 95% of its wall time.
"""

from __future__ import annotations

EXACT_KEYS = ("n_dofs", "linsys_n", "linsys_nnz")
ERROR_KEYS = ("e1", "e0", "multiplier_err")
REFERENCE_RTOL = 1e-10
FIDELITY_RTOL = 1e-12
MIN_COVERAGE = 0.95


def _close(value, expected, rtol: float) -> bool:
    return value is not None and expected is not None and abs(value - expected) <= rtol * abs(expected)


def check_levels(levels: list, reference: list | None) -> list:
    """Solve check, plus the reference check when `reference` is given."""
    reasons = []
    for i, lv in enumerate(levels):
        out = []
        if lv.get("error"):
            out.append(f"level {lv['level']} failed: {lv['error']}")
        elif reference is not None:
            if i >= len(reference):
                out.append(f"level {lv['level']} has no reference values")
            else:
                ref = reference[i]
                for key in EXACT_KEYS:
                    if key in lv and lv[key] != ref[key]:
                        out.append(f"level {lv['level']} {key} = {lv[key]}, reference {ref[key]}")
                for key in ERROR_KEYS:
                    if not _close(lv[key], ref[key], REFERENCE_RTOL):
                        out.append(f"level {lv['level']} {key} = {lv[key]!r}, "
                                   f"reference {ref[key]!r}")
        reasons.append(out)
    return reasons


def check_rate(reasons: list, rates_e1: list, min_rate: float) -> list:
    """Adds a failure to the finest level when the last e1 rate misses the band."""
    rate = rates_e1[-1] if rates_e1 else None
    if reasons and (rate is None or rate < min_rate):
        reasons[-1].append(f"last e1 rate {rate!r} below the band {min_rate}")
    return reasons


def check_trace(traced: list, study_levels: list, reasons: list) -> list:
    """Adds fidelity and span-coverage failures to `reasons` (aligned with `traced`)."""
    for out, t, s in zip(reasons, traced, study_levels):
        for key in ERROR_KEYS:
            if not t.get("error") and not _close(t[key], s[key], FIDELITY_RTOL):
                out.append(f"traced level {t['level']} {key} = {t[key]!r}, "
                           f"run_study gave {s[key]!r}")
        if coverage(t) < MIN_COVERAGE:
            out.append(f"traced level {t['level']}: spans cover {coverage(t):.1%} of its wall time")
    return reasons


def coverage(traced_level: dict) -> float:
    """Share of a traced level's wall time covered by its spans."""
    covered = sum(end - start for _, start, end in traced_level["spans"])
    return covered / traced_level["wall_s"]


def failure_counts(reasons: list) -> tuple:
    """(attempted, failed) levels."""
    return len(reasons), sum(1 for r in reasons if r)
