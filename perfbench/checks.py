"""Correctness check applied to every answer the benchmark receives.

An answer passes when

* :func:`repro.plans.validation.validate_plan` accepts its plan;
* its reported ``true_cost`` matches an independent
  :class:`~repro.plans.cost.PlanCostEvaluator` recomputation;
* its cost is not below the exact Selinger DP cost of the same query
  (left-deep plans with cross products, the space every engine searches).

References are computed outside every timed region and cached per query
content, since hot queries repeat.
"""

from __future__ import annotations

import math

from repro.api import OptimizerSettings, query_signature
from repro.dp.selinger import SelingerOptimizer
from repro.exceptions import PlanError
from repro.plans.cost import PlanCostEvaluator
from repro.plans.validation import validate_plan

#: Relative tolerance of the cost comparisons.
REL_TOL = 1e-9


class Checker:
    """Checks answers against an exact reference, per query content."""

    def __init__(self) -> None:
        # The services under test run with the default settings.
        self.settings = OptimizerSettings()
        self._references: dict[str, float] = {}

    def _evaluator(self, query) -> PlanCostEvaluator:
        return PlanCostEvaluator(
            query, self.settings.cost_context(), self.settings.use_cout
        )

    def reference_cost(self, query) -> float:
        """Exact Selinger DP cost of ``query`` (cached by content)."""
        key = query_signature(query)
        cost = self._references.get(key)
        if cost is None:
            outcome = SelingerOptimizer(
                query,
                self.settings.cost_context(),
                use_cout=self.settings.use_cout,
                algorithm=self.settings.join_algorithm,
            ).optimize()
            cost = self._evaluator(query).cost(outcome.plan)
            self._references[key] = cost
        return cost

    def check(self, query, result) -> tuple[str | None, float | None]:
        """``(error, ratio)`` for one answer: ``error`` is ``None`` when
        the answer passes; ``ratio`` is true cost / reference cost."""
        plan = result.plan
        if plan is None:
            return "no plan", None
        try:
            validate_plan(plan, query)
            if plan.query != query:
                # A plan that crossed a process boundary belongs to the
                # decoded copy of the query: re-anchor it on ours.
                plan = type(plan)(query, plan.first_table, plan.steps)
            recomputed = self._evaluator(query).cost(plan)
        except PlanError as error:
            return f"invalid plan: {error}", None
        reported = result.true_cost
        if reported is None or not math.isclose(
            reported, recomputed, rel_tol=REL_TOL, abs_tol=1e-9
        ):
            return (
                f"reported true_cost {reported} != recomputed {recomputed}",
                None,
            )
        reference = self.reference_cost(query)
        if reference > 0:
            ratio = recomputed / reference
        else:
            ratio = 1.0 if recomputed <= 0 else math.inf
        if ratio < 1.0 - REL_TOL:
            return f"cost ratio {ratio} below the exact optimum", ratio
        return None, max(ratio, 1.0)
