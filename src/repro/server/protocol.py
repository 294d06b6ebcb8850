"""Request/response protocol of the retiming service.

A request is a JSON object ``{"kind": ..., "params": {...}}``.  Four
kinds exist:

``analyze``
    Graph analysis: original and retimed cycle periods, iteration bound,
    register counts, code sizes, plus a prove-by-execution verification
    of the CSR program.  ``params``: exactly one of ``graph`` (a DFG
    JSON document, string or object) or ``workload`` (a registry name),
    optional ``trip_count`` (default 20) and ``verify`` (default true).

``transform``
    One cell of the experiment matrix — the exact unit of work
    ``python -m repro sweep`` executes.  ``params``: the graph as above
    plus ``transform`` (any :data:`repro.runner.jobs.TRANSFORMS` entry
    except ``oracle``), ``factor``, ``trip_count``, ``verify``.

``oracle``
    The exact-optimality battery of :mod:`repro.optimal` on one graph
    (PR 6's ``--oracle`` sweep mode as a request).  ``params``: the
    graph, optional ``oracle_timeout`` seconds.

``sweep``
    A full randomized differential sweep.  ``params``: ``graphs``,
    ``seed``, ``factors``, ``max_nodes``, ``oracle``, ``oracle_timeout``
    — same defaults as the CLI, and the response's ``summary`` field is
    byte-identical to ``python -m repro sweep`` stdout for the same
    parameters.

Normalization is the load-bearing step: workload names resolve to their
serialized graphs and explicit graphs are canonicalized through a
``from_json``/``to_json`` round trip, so the request's *content address*
(:attr:`Request.key`) is a pure function of graph structure and
parameters.  ``transform``/``oracle`` requests reuse the engine's
``"job"`` cache namespace — a server response and a CLI sweep cell for
the same work share one cache entry, which is what makes the
server-vs-CLI differential test byte-identical for free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..graph.dfg import DFGError
from ..graph.serialize import from_json, to_json
from ..runner.cache import cache_key
from ..runner.difftest import check_sweep_params
from ..runner.jobs import TRANSFORMS, Job, execute_job
from ..workloads.registry import UnknownWorkloadError, get_workload
from .work import analyze_graph

__all__ = [
    "ProtocolError",
    "REQUEST_KINDS",
    "Request",
    "canonical_bytes",
    "error_envelope",
    "parse_request",
    "response_envelope",
]

#: Request kinds the server accepts.
REQUEST_KINDS: tuple[str, ...] = ("analyze", "transform", "oracle", "sweep")

#: ``sweep`` parameter defaults — kept equal to the CLI flag defaults so
#: an empty-params sweep request means exactly ``python -m repro sweep``.
SWEEP_DEFAULTS: dict = {
    "graphs": 200,
    "seed": 0,
    "factors": [2, 3],
    "max_nodes": 6,
    "oracle": False,
    "oracle_timeout": None,
}


class ProtocolError(ValueError):
    """A malformed request (HTTP 400): bad kind, params, or graph."""


@dataclass(frozen=True)
class Request:
    """One validated, normalized request.

    ``key`` is the content address used for caching *and* single-flight
    dedup; ``engine_kind``/``fn`` describe the engine unit for unit
    kinds and are ``None`` for ``sweep`` (a composite the service runs
    through the engine itself).
    """

    kind: str
    params: dict
    key: str
    label: str
    engine_kind: str | None = None
    fn: object = field(default=None, compare=False)


def _int(params: dict, name: str, default: int) -> int:
    value = params.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{name} must be an integer, got {value!r}")
    return value


def _bool(params: dict, name: str, default: bool) -> bool:
    value = params.get(name, default)
    if not isinstance(value, bool):
        raise ProtocolError(f"{name} must be a boolean, got {value!r}")
    return value


def _timeout(params: dict) -> float | None:
    """``oracle_timeout``: absent, or a finite number of seconds >= 0."""
    timeout = params.get("oracle_timeout")
    if timeout is not None and (
        isinstance(timeout, bool) or not isinstance(timeout, (int, float))
    ):
        raise ProtocolError(f"oracle_timeout must be a number, got {timeout!r}")
    _in_range(oracle_timeout=timeout)
    return timeout


def _in_range(**params) -> None:
    """:func:`~repro.runner.difftest.check_sweep_params`, as a 400."""
    try:
        check_sweep_params(**params)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def _graph_json(params: dict) -> str:
    """The canonical serialized graph a request's params name.

    Exactly one of ``workload`` / ``graph`` must be present; explicit
    graphs round-trip through the serializer so structurally equal
    graphs always produce the same bytes (and therefore the same key).
    """
    graph = params.get("graph")
    workload = params.get("workload")
    if (graph is None) == (workload is None):
        raise ProtocolError("exactly one of graph / workload is required")
    if workload is not None:
        if not isinstance(workload, str):
            raise ProtocolError(f"workload must be a string, got {workload!r}")
        try:
            g = get_workload(workload)
        except UnknownWorkloadError:
            raise ProtocolError(f"unknown workload {workload!r}") from None
        return to_json(g, indent=None)
    if isinstance(graph, dict):
        graph = json.dumps(graph)
    if not isinstance(graph, str):
        raise ProtocolError("graph must be a DFG JSON document (string or object)")
    try:
        g = from_json(graph)
    except DFGError as exc:
        raise ProtocolError(f"invalid graph: {exc}") from None
    return to_json(g, indent=None)


def _graph_name(graph_json: str) -> str:
    try:
        return json.loads(graph_json).get("name") or "dfg"
    except ValueError:  # pragma: no cover - graph_json is canonical
        return "dfg"


def parse_request(doc: object) -> Request:
    """Validate and normalize one decoded request document."""
    if not isinstance(doc, dict):
        raise ProtocolError("request must be a JSON object")
    kind = doc.get("kind")
    if kind not in REQUEST_KINDS:
        raise ProtocolError(
            f"unknown request kind {kind!r}; one of {REQUEST_KINDS}"
        )
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("params must be a JSON object")

    if kind == "sweep":
        nparams = dict(SWEEP_DEFAULTS)
        nparams["graphs"] = _int(params, "graphs", nparams["graphs"])
        nparams["seed"] = _int(params, "seed", nparams["seed"])
        nparams["max_nodes"] = _int(params, "max_nodes", nparams["max_nodes"])
        nparams["oracle"] = _bool(params, "oracle", nparams["oracle"])
        factors = params.get("factors", nparams["factors"])
        if not (
            isinstance(factors, list)
            and factors
            and all(isinstance(f, int) and not isinstance(f, bool) for f in factors)
        ):
            raise ProtocolError(f"factors must be a non-empty integer list, got {factors!r}")
        nparams["factors"] = list(factors)
        nparams["oracle_timeout"] = _timeout(params)
        _in_range(
            graphs=nparams["graphs"],
            factors=nparams["factors"],
            max_nodes=nparams["max_nodes"],
        )
        return Request(
            kind="sweep",
            params=nparams,
            key=cache_key("sweep", nparams),
            label=f"sweep/graphs={nparams['graphs']}/seed={nparams['seed']}",
        )

    graph_json = _graph_json(params)

    if kind == "analyze":
        nparams = {
            "graph": graph_json,
            "trip_count": _int(params, "trip_count", 20),
            "verify": _bool(params, "verify", True),
        }
        if nparams["trip_count"] < 0:
            raise ProtocolError(f"trip_count must be >= 0, got {nparams['trip_count']}")
        label = f"{_graph_name(graph_json)}/analyze/n={nparams['trip_count']}"
        return Request(
            kind="analyze",
            params=nparams,
            key=cache_key("analyze", nparams),
            label=label,
            engine_kind="analyze",
            fn=analyze_graph,
        )

    if kind == "oracle":
        job = Job(
            transform="oracle",
            graph_json=graph_json,
            factor=1,
            trip_count=0,
            verify=False,
            oracle_timeout=_timeout(params),
        )
    else:  # transform
        transform = params.get("transform")
        if transform == "oracle":
            raise ProtocolError('use kind "oracle" for oracle requests')
        if transform not in TRANSFORMS:
            raise ProtocolError(
                f"unknown transform {transform!r}; one of {TRANSFORMS}"
            )
        factor = _int(params, "factor", 1)
        trip_count = _int(params, "trip_count", 20)
        if factor < 1:
            raise ProtocolError(f"factor must be >= 1, got {factor}")
        if trip_count < 0:
            raise ProtocolError(f"trip_count must be >= 0, got {trip_count}")
        job = Job(
            transform=transform,
            graph_json=graph_json,
            factor=factor,
            trip_count=trip_count,
            verify=_bool(params, "verify", True),
        )
    job_params = job.to_params()
    return Request(
        kind=kind,
        params=job_params,
        key=cache_key("job", job_params),
        label=job.label,
        engine_kind="job",
        fn=execute_job,
    )


def response_envelope(req: Request, payload: dict, cached: bool) -> dict:
    """The success-path response body (``ok`` mirrors the payload's)."""
    return {
        "ok": bool(payload.get("ok", False)),
        "kind": req.kind,
        "key": req.key,
        "cached": bool(cached),
        "payload": payload,
    }


def error_envelope(
    error: str,
    error_type: str,
    kind: str | None = None,
    key: str | None = None,
    retry_after: float | None = None,
) -> dict:
    """A structured error response body (shed, fault, bad request)."""
    env: dict = {
        "ok": False,
        "error": error,
        "error_type": error_type,
    }
    if kind is not None:
        env["kind"] = kind
    if key is not None:
        env["key"] = key
    if retry_after is not None:
        env["retry_after"] = retry_after
    return env


def canonical_bytes(doc: dict) -> bytes:
    """Canonical JSON bytes of a response body.

    One rendering for every transport (and for the byte-identical
    differential tests): sorted keys, no whitespace, UTF-8.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
