"""SWST core: the paper's primary contribution."""

from .config import SWSTConfig
from .grid import CellOverlap, SpatialGrid
from .index import SWSTIndex
from .keys import DecodedKey, KeyCodec
from .memo import CellMemo
from .overlap import ColumnOverlap, classify_interval, classify_timeslice
from .plan import PlanCache, PlanEntry, QueryPlan, build_query_plan
from .records import CURRENT_DURATION, Entry, RECORD_SIZE, Rect
from .results import MultiQueryResult, QueryResult, QueryStats

__all__ = [
    "CURRENT_DURATION",
    "CellMemo",
    "CellOverlap",
    "ColumnOverlap",
    "DecodedKey",
    "Entry",
    "KeyCodec",
    "MultiQueryResult",
    "PlanCache",
    "PlanEntry",
    "QueryPlan",
    "QueryResult",
    "QueryStats",
    "RECORD_SIZE",
    "Rect",
    "SWSTConfig",
    "SWSTIndex",
    "SpatialGrid",
    "build_query_plan",
    "classify_interval",
    "classify_timeslice",
]
