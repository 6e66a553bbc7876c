"""``ADN601``/``ADN602`` — graph-flow safety, DSL side.

The full ADN6xx family lives in the interprocedural analyzer
(:mod:`repro.analysis.graph`), which runs over first-class
:class:`~repro.graph.model.ServiceGraph` specs where retries and budgets
are spec fields. These two rules surface the same failure modes where
they can already be seen in a plain ``.adn`` file: a multi-chain app
whose chains stack ``retry`` filters multiplicatively (ADN601), and a
downstream chain whose retry filter budgets more time than any upstream
chain can deliver (ADN602). Spec-side emissions reuse these codes
without re-registering — the ADN405 precedent.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ...dsl.ast_nodes import ChainDecl, Program
from ..diagnostics import Diagnostic, Severity
from ..registry import rule
from .graph import _resolution, retry_policies

#: worst-case amplification (product of attempts along a path) above
#: which ADN601 fires — mirrors GraphAnalysisOptions.amplification_threshold
AMPLIFICATION_THRESHOLD = 8.0


def _attempts(chain: ChainDecl, namespace: Program) -> int:
    """Attempts one logical call over this chain may make: the product
    of its retry policies' ``max_attempts``."""
    return math.prod(
        policy.max_attempts for policy in retry_policies(chain, namespace)
    )


def _budget(chain: ChainDecl, namespace: Program) -> Optional[float]:
    """The outermost deadline budget a retry on this chain sets."""
    budgets = (
        policy.deadline_budget_ms for policy in retry_policies(chain, namespace)
    )
    return next((b for b in budgets if b is not None), None)


def _walk_products(
    app,
    namespace: Program,
) -> List[Tuple[ChainDecl, float, float]]:
    """Per chain: (chain, product of attempts along the worst path
    reaching it, product before it) — app chains as a service DAG."""
    by_dst: Dict[str, List[ChainDecl]] = {}
    for chain in app.chains:
        by_dst.setdefault(chain.dst, []).append(chain)
    worst_in: Dict[str, float] = {}

    def incoming_product(service: str) -> float:
        if service in worst_in:
            return worst_in[service]
        worst_in[service] = 1.0  # cycle guard; chains are acyclic in apps
        best = 1.0
        for parent in by_dst.get(service, []):
            best = max(
                best,
                incoming_product(parent.src)
                * _attempts(parent, namespace),
            )
        worst_in[service] = best
        return best

    out = []
    for chain in app.chains:
        before = incoming_product(chain.src)
        out.append(
            (chain, before * _attempts(chain, namespace), before)
        )
    return out


@rule("ADN601", "retry-amplification-bound", Severity.ERROR)
def check_retry_amplification(context) -> List[Diagnostic]:
    """A multi-chain app stacks retry filters along a call path such
    that the worst-case attempt count (the product of each chain's
    ``max_retries + 1``) exceeds the amplification bound — one slow leaf
    dependency then multiplies load on every service between it and the
    root, the classic retry storm. Retry near the root or near the leaf,
    not both."""
    out: List[Diagnostic] = []
    namespace: Optional[Program] = None
    for app_name, app in context.program.apps.items():
        if len(app.chains) < 2:
            continue
        if namespace is None:
            namespace = _resolution(context)
        for chain, product, before in _walk_products(app, namespace):
            if (
                product <= AMPLIFICATION_THRESHOLD
                or before > AMPLIFICATION_THRESHOLD
            ):
                continue  # report the first edge crossing the bound
            out.append(
                context.diag(
                    "ADN601",
                    Severity.ERROR,
                    f"worst-case retry amplification through edge "
                    f"{chain.src} -> {chain.dst} is {product:g}x "
                    f"(product of retry attempts along the call path), "
                    f"above the bound of {AMPLIFICATION_THRESHOLD:g}x",
                    span=chain.span or app.span,
                    element=app_name,
                    fix="lower max_retries on the stacked retry filters "
                    "(attempts multiply across chained edges)",
                )
            )
    return out


@rule("ADN602", "deadline-budget-infeasible", Severity.WARNING)
def check_deadline_budget_feasibility(context) -> List[Diagnostic]:
    """A downstream chain's retry filter budgets more milliseconds than
    any upstream chain establishes — the surplus can never be used,
    because the propagated remaining budget is already smaller when the
    call arrives. Size nested budgets monotonically downward."""
    out: List[Diagnostic] = []
    namespace: Optional[Program] = None
    for app_name, app in context.program.apps.items():
        if len(app.chains) < 2:
            continue
        if namespace is None:
            namespace = _resolution(context)
        by_dst: Dict[str, List[ChainDecl]] = {}
        for chain in app.chains:
            by_dst.setdefault(chain.dst, []).append(chain)
        for chain in app.chains:
            own = _budget(chain, namespace)
            if own is None:
                continue
            parents = by_dst.get(chain.src, [])
            budgets = [_budget(p, namespace) for p in parents]
            known = [b for b in budgets if b is not None]
            if not known or own <= max(known):
                continue
            out.append(
                context.diag(
                    "ADN602",
                    Severity.WARNING,
                    f"edge {chain.src} -> {chain.dst} budgets {own:g} ms "
                    f"but every upstream chain delivers at most "
                    f"{max(known):g} ms — the surplus is unusable "
                    "headroom",
                    span=chain.span or app.span,
                    element=app_name,
                    fix="lower the downstream deadline_budget_ms to what "
                    "the upstream chains actually propagate",
                )
            )
    return out
