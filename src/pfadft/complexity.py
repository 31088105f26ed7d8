"""Operation accounting for plans, ground kernels included.

Counts come from two independent routes that the tests require to agree:
static folds over the operation schedules, and instrumented runs of
``execute`` itself on a metered array (``pfadft.pfa.instrumented_count``).
The static count of a plan is a sum over its leaves: a leaf of length
n_leaf runs n / n_leaf times, whatever the tree's shape, so it contributes
n / n_leaf times its schedule's cost; the output scale adds the count it
folds when it is built. A ground
kernel is the one-leaf plan ``plan(n, variant)``. Comparison rows for
power-of-two algorithms we do not implement are stored constants and are
flagged as such in every report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pfa import ExecutionPlan, assemble_scale, leaf_schedule, plan, tree_leaves
from .schedule import OpCount


def count_plan(plan_: ExecutionPlan) -> OpCount:
    """Static count of a plan: each leaf's runs times its cost, plus the scale."""
    n = plan_.n
    total = sum(((n // leaf.n) * leaf_schedule(leaf).static_count()
                 for leaf in tree_leaves(plan_.tree)), OpCount())
    if plan_.scale_mode != "none":
        total = total + assemble_scale(plan_).op_count()
    return total


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class ReportRow:
    n: int
    label: str
    count: OpCount
    source: str  # "computed" | "reference"


#: documented literature counts for algorithms this package does not build
REFERENCE_ROWS = (
    ReportRow(32, "F_32 (radix-2)", OpCount(88, 408, 0), "reference"),
    ReportRow(32, "F^_32 (multiplierless 32-point)", OpCount(0, 348, 0), "reference"),
    ReportRow(1024, "F_1024 (definition)", OpCount(3084288, 5159936, 0), "reference"),
    ReportRow(1024, "F_1024 (radix-2)", OpCount(10248, 30728, 0), "reference"),
    ReportRow(1024, "F^_1024 I (radix-2 approximation)", OpCount(2883, 25155, 0), "reference"),
    ReportRow(1024, "F^_1024 II (radix-2 approximation)", OpCount(5699, 27075, 0), "reference"),
    ReportRow(1024, "F^_1024 III (radix-2 approximation)", OpCount(5699, 27075, 0), "reference"),
)

_GROUND_ROWS = (
    ("exact-definition", "F_{n} (definition)"),
    ("exact", "F_{n} (fast)"),
    ("unscaled", "T*_{n}"),
    ("scaled", "F*_{n}"),
    ("csd", "F'_{n}"),
)

COMPOSED_VARIANTS = (
    ("exact-definition", "F_1023 (PFA, definition kernels)"),
    ("exact", "F_1023 (PFA, fast kernels)"),
    ("hybrid-I-scaled", "F*_1023,I"), ("hybrid-I-csd", "F'_1023,I"),
    ("hybrid-II-scaled", "F*_1023,II"), ("hybrid-II-csd", "F'_1023,II"),
    ("hybrid-III-scaled", "F*_1023,III"), ("hybrid-III-csd", "F'_1023,III"),
    ("hybrid-IV-scaled", "F*_1023,IV"), ("hybrid-IV-csd", "F'_1023,IV"),
    ("hybrid-V-scaled", "F*_1023,V"), ("hybrid-V-csd", "F'_1023,V"),
    ("hybrid-VI-scaled", "F*_1023,VI"), ("hybrid-VI-csd", "F'_1023,VI"),
    ("unscaled", "T*_1023"),
    ("scaled", "F*_1023"),
    ("csd", "F'_1023"),
)


def ground_report():
    rows = []
    for n in (3, 11, 31):
        for variant, label in _GROUND_ROWS:
            rows.append(ReportRow(n, label.format(n=n), count_plan(plan(n, variant)), "computed"))
    return rows


def composed_report():
    return [ReportRow(1023, label, count_plan(plan(1023, v)), "computed")
            for v, label in COMPOSED_VARIANTS]


def complexity_report():
    """Every computed kernel/plan row plus the stored reference rows."""
    return ground_report() + list(REFERENCE_ROWS[:2]) + composed_report() + list(REFERENCE_ROWS[2:])
