"""Read-side routes: interval queries, counts, k-nearest-neighbour.

The scalar ``/query`` route goes through the coalescer — concurrent
requests sharing a temporal signature merge into one engine call; the
batch, count, and knn routes call the facade directly (a batch *is*
already the merged form, counts and knn have no batched engine
entry point).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..errors import BadRequest
from ..wire import (Request, Response, get_bool, get_int, get_opt_int,
                    get_rect, get_rects, result_json)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..app import ServeApp


def _query_object(request: Request) -> dict[str, Any]:
    """Body JSON for POST; query-string fields for GET."""
    if request.method != "GET":
        return request.json()
    obj: dict[str, Any] = {}
    for key, raw in request.query.items():
        if key == "area":
            parts = raw.split(",")
            try:
                obj[key] = [int(p) for p in parts]
            except ValueError as exc:
                raise BadRequest(f"query parameter 'area' must be "
                                 f"x_lo,y_lo,x_hi,y_hi: {raw!r}") from exc
        elif key == "strict":
            if raw not in ("true", "false"):
                raise BadRequest(f"query parameter 'strict' must be "
                                 f"true or false, got {raw!r}")
            obj[key] = raw == "true"
        else:
            try:
                obj[key] = int(raw)
            except ValueError as exc:
                raise BadRequest(f"query parameter {key!r} must be an "
                                 f"integer, got {raw!r}") from exc
    return obj


async def query(app: "ServeApp", request: Request) -> Response:
    """Scalar interval query (coalesced under the covers)."""
    obj = _query_object(request)
    area = get_rect(obj)
    t_lo = get_int(obj, "t_lo")
    t_hi = get_int(obj, "t_hi")
    window = get_opt_int(obj, "window")
    strict = get_bool(obj, "strict", True)
    result = await app.coalescer.query_interval(
        area, t_lo, t_hi, window, strict=strict)
    return app.query_response(result)


async def query_batch(app: "ServeApp", request: Request) -> Response:
    """Multi-rectangle query: the client-side merged form."""
    obj = request.json()
    areas = get_rects(obj)
    t_lo = get_int(obj, "t_lo")
    t_hi = get_int(obj, "t_hi")
    window = get_opt_int(obj, "window")
    strict = get_bool(obj, "strict", True)
    app.stats.queries += 1
    app.stats.engine_query_calls += 1
    batch = await app.engine.query_interval_many(
        areas, t_lo, t_hi, window, strict=strict)
    results = [result_json(r) for r in batch.results]
    degraded = any(r["degraded"] for r in results)
    if degraded:
        app.stats.degraded_responses += 1
    return Response(206 if degraded else 200,
                    {"results": results, "degraded": degraded})


async def count(app: "ServeApp", request: Request) -> Response:
    """Interval count (no entry materialisation on the wire)."""
    obj = _query_object(request)
    area = get_rect(obj)
    t_lo = get_int(obj, "t_lo")
    t_hi = get_int(obj, "t_hi")
    window = get_opt_int(obj, "window")
    strict = get_bool(obj, "strict", True)
    app.stats.queries += 1
    app.stats.engine_query_calls += 1
    n, stats = await app.engine.count_interval(
        area, t_lo, t_hi, window, strict=strict)
    if stats.degraded:
        app.stats.degraded_responses += 1
    return Response(206 if stats.degraded else 200,
                    {"count": n, "degraded": stats.degraded})


async def knn(app: "ServeApp", request: Request) -> Response:
    """k nearest neighbours of a point over a time interval."""
    obj = _query_object(request)
    x = get_int(obj, "x")
    y = get_int(obj, "y")
    k = get_int(obj, "k")
    t_lo = get_int(obj, "t_lo")
    t_hi = get_opt_int(obj, "t_hi")
    window = get_opt_int(obj, "window")
    strict = get_bool(obj, "strict", True)
    app.stats.queries += 1
    app.stats.engine_query_calls += 1
    result = await app.engine.query_knn(
        x, y, k, t_lo, t_hi, window, strict=strict)
    return app.query_response(result)


ROUTES = (
    ("GET", "/query", query),
    ("POST", "/query", query),
    ("POST", "/query/batch", query_batch),
    ("GET", "/count", count),
    ("POST", "/count", count),
    ("GET", "/knn", knn),
    ("POST", "/knn", knn),
)

__all__ = ["ROUTES", "query", "query_batch", "count", "knn"]
