"""``ADN404`` — overload-safety: unbounded retries.

A retry filter with no overall deadline budget retries every transient
failure until ``max_retries`` is spent — and under overload, *every*
attempt fails by timeout, so each logical call multiplies offered load
by its full attempt count exactly when the downstream can least afford
it (the metastable retry storm). A ``deadline_budget_ms`` bounds the
whole logical call, and the stack carrying a budgeted retry propagates
the remaining budget on the wire (repro.overload), so downstream
processors drop work whose caller has already given up.
"""

from __future__ import annotations

from typing import List, Optional

from ...overload.budget import RetryPolicy, lower_filter
from ..diagnostics import Diagnostic, Severity
from ..registry import rule


def retry_policy(filter_def) -> Optional[RetryPolicy]:
    """The policy a ``retry`` filter lowers to, the one the runtime
    runs; None for no filter, another operator, or meta that does not
    lower (ADN102 reports that)."""
    if filter_def is None or filter_def.operator != "retry":
        return None
    try:
        return lower_filter(filter_def)
    except ValueError:
        return None


@rule("ADN404", "retry-without-deadline", Severity.WARNING)
def check_retry_without_deadline(context) -> List[Diagnostic]:
    """A ``retry`` filter sets no ``deadline_budget_ms``: one logical
    call may spend attempts x timeout x backoff with no overall bound,
    amplifying offered load during overload and leaving nothing to
    propagate as a deadline. Give every retry policy a budget."""
    out: List[Diagnostic] = []
    for name, filter_def in context.program.filters.items():
        policy = retry_policy(filter_def)
        if policy is None or policy.deadline_budget_ms is not None:
            continue
        out.append(
            context.diag(
                "ADN404",
                Severity.WARNING,
                f"filter {name!r} retries without a deadline budget: "
                "under overload every attempt times out and each "
                "logical call amplifies offered load by its full "
                "attempt count",
                span=filter_def.span,
                element=name,
                fix="add 'deadline_budget_ms: <ms>;' to the filter's "
                "meta to bound the whole logical call (and enable "
                "deadline propagation downstream)",
            )
        )
    return out
