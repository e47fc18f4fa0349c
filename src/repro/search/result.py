"""Shared outcome base for every mapper's result type.

:class:`MappingOutcome` carries the two fields every search ends with —
the best mapping found (or ``None``) and its cost — plus the derived
accessors (``found``, ``valid``, ``edp``, ``energy_pj``) that were
previously duplicated between the Sunstone scheduler's
``ScheduleResult`` and the baselines' ``SearchResult``.  Those names
remain the public types; they subclass this base and add their own
telemetry fields.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mapping.mapping import Mapping
from ..model.cost import CostResult


@dataclass
class MappingOutcome:
    """Best mapping of a search, with derived objective accessors."""

    mapping: Mapping | None
    cost: CostResult | None

    @property
    def found(self) -> bool:
        return self.mapping is not None

    @property
    def valid(self) -> bool:
        return self.cost is not None and self.cost.valid

    @property
    def edp(self) -> float:
        if self.cost is None:
            return float("inf")
        return self.cost.edp

    @property
    def energy_pj(self) -> float:
        if self.cost is None:
            return float("inf")
        return self.cost.energy_pj


def certificate_from_bound(bound_stats) -> dict | None:
    """Build a ``certificate`` dict from a
    :class:`~repro.mapspace.spaces.BoundStats` record (``None`` when the
    search ran without bounds or found nothing)."""
    if bound_stats is None or bound_stats.lower_bound is None:
        return None
    cert = {"lower_bound": bound_stats.lower_bound,
            "best_value": bound_stats.best_value}
    gap = bound_stats.gap_pct()
    if gap is not None:
        cert["gap_pct"] = gap
    return cert
