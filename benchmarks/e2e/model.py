"""Brute-force model of the sliding-window semantics (paper Section III-A).

The client owns the stream, so it can keep this model beside it and
check the server's answers after each measured phase.  Same semantics as
``repro.baselines.naive.NaiveStore`` (the smoke test holds the two
against each other): an entry ``<oid, x, y, s, d>`` is valid during
``[s, s + d)``; an object's newest report is its *current* entry with an
open end; a query sees entries whose start lies in the queriable period
``[floor(now / L) * L - W, now]`` and whose valid time overlaps the
closed query interval.  No index structure, only a linear scan.
"""

from __future__ import annotations

from .inputs import Op, Query, Rect, Report
from .spec import DEPLOYMENT

Entry = tuple[int, int, int, int, "int | None"]   # oid, x, y, s, d


class WindowModel:
    """Closed entries, current entries and the stream clock."""

    def __init__(self, window: int = DEPLOYMENT["window"],
                 slide: int = DEPLOYMENT["slide"]) -> None:
        self.window = window
        self.slide = slide
        self.now = 0
        self.closed: list[Entry] = []
        self.current: dict[int, Entry] = {}

    def apply(self, op: Op) -> None:
        if op.kind == "extend":
            self.extend(op.reports)
        else:
            self.now = max(self.now, op.now)

    def extend(self, reports: tuple[Report, ...] | list[Report]) -> None:
        for oid, x, y, t in reports:
            previous = self.current.get(oid)
            if previous is not None and t > previous[3]:
                self.closed.append(previous[:4] + (t - previous[3],))
            self.current[oid] = (oid, x, y, t, None)
            self.now = max(self.now, t)

    def period_lo(self) -> int:
        return max(self.now // self.slide * self.slide - self.window, 0)

    def prune(self) -> None:
        """Forget closed entries that can never be queriable again (the
        period's lower end only moves forward)."""
        lo = self.period_lo()
        self.closed = [e for e in self.closed if e[3] >= lo]

    def live_entries(self) -> int:
        """Entries inside the queriable period right now."""
        lo = self.period_lo()
        return (sum(1 for e in self.closed if e[3] >= lo)
                + sum(1 for e in self.current.values() if e[3] >= lo))

    def query(self, area: Rect, t_lo: int, t_hi: int) -> list[list]:
        """Sorted wire-shaped entries ``[oid, x, y, s, d]``."""
        return self.query_many([area], t_lo, t_hi)[0]

    def query_many(self, areas: list[Rect], t_lo: int,
                   t_hi: int) -> list[list[list]]:
        lo = self.period_lo()
        s_hi = min(self.now, t_hi)
        hits = [e for e in self.closed
                if lo <= e[3] <= s_hi and e[3] + e[4] > t_lo]
        hits.extend(e for e in self.current.values()
                    if lo <= e[3] <= s_hi)
        return [sorted([list(e) for e in hits
                        if x0 <= e[1] <= x1 and y0 <= e[2] <= y1],
                       key=_entry_key)
                for x0, y0, x1, y1 in areas]

    def answer(self, query: Query) -> list[list]:
        return self.query(query.area, query.t_lo, query.t_hi)


def _entry_key(entry: list) -> tuple:
    return (entry[0], entry[3], entry[1], entry[2], entry[4] or 0)


def canonical(entries: list[list]) -> list[list]:
    """Server entries in the model's order (``d`` is null when open)."""
    return sorted(entries, key=_entry_key)
