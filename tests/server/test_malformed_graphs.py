"""Malformed graph documents end in a structured error, never a traceback.

Valid ``repro-dfg-v1`` documents are mutated with wrong types, missing
keys, and huge, negative and non-finite numbers.  ``from_json`` may only
return a graph or raise :class:`GraphFormatError`; ``parse_request`` may
only return a request or raise :class:`ProtocolError`, which the server
answers with a 400.
"""

from __future__ import annotations

import asyncio
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import DFG
from repro.graph.serialize import GraphFormatError, from_json, to_json
from repro.server import ProtocolError, parse_request

from ..conftest import timed_dfgs
from .conftest import http_json, make_service, serve_frontend

_TOP_KEYS = ("format", "name", "nodes", "edges")
_ROW_KEYS = {
    "nodes": ("name", "time", "op", "imm"),
    "edges": ("src", "dst", "delay", "key"),
}

#: Stands for an integer literal too long to decode; swapped into the text.
_HUGE = "HUGE-LITERAL"
_DELETE = object()

_BAD_VALUES = st.one_of(
    st.sampled_from(
        [
            _DELETE,
            _HUGE,
            None,
            True,
            "",
            "add",
            [],
            [1],
            {},
            {"name": "a"},
            -1,
            0,
            2**64,
            10**30,
            1.5,
            float("inf"),
            float("-inf"),
            float("nan"),
        ]
    ),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
)

_INFINITE_TIME = {
    "format": "repro-dfg-v1",
    "name": "g",
    "nodes": [{"name": "a", "time": float("inf"), "op": "add", "imm": 0}],
    "edges": [],
}


@st.composite
def mutated_documents(draw) -> dict:
    """A serialized random graph with one to three fields mutated."""
    doc = json.loads(to_json(draw(timed_dfgs(max_nodes=4))))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        targets = [(doc, _TOP_KEYS)] + [
            (row, keys)
            for section, keys in _ROW_KEYS.items()
            if isinstance(doc.get(section), list)
            for row in doc[section]
            if isinstance(row, dict)
        ]
        target, keys = draw(st.sampled_from(targets))
        key = draw(st.sampled_from(keys))
        value = draw(_BAD_VALUES)
        if value is _DELETE:
            target.pop(key, None)
        else:
            target[key] = value
    return doc


def _text(doc: dict) -> str:
    return json.dumps(doc).replace(json.dumps(_HUGE), "1" * 5000)


@given(mutated_documents())
@example(_INFINITE_TIME)
@settings(max_examples=300, deadline=None)
def test_from_json_raises_only_graph_format_error(doc):
    try:
        from_json(_text(doc))
    except GraphFormatError:
        pass


@given(
    mutated_documents(),
    st.sampled_from(["analyze", "transform", "oracle"]),
    st.booleans(),
)
@example(_INFINITE_TIME, "analyze", False)
@settings(max_examples=300, deadline=None)
def test_parse_request_raises_only_protocol_error(doc, kind, as_text):
    try:
        graph = json.loads(_text(doc))  # what the server decodes
    except ValueError:
        return  # the server answers 400 before parsing the request
    params = {"graph": json.dumps(graph) if as_text else graph}
    if kind == "transform":
        params["transform"] = "csr-pipelined"
    try:
        parse_request({"kind": kind, "params": params})
    except ProtocolError:
        pass


def _post(doc: dict) -> tuple[int, dict]:
    async def scenario():
        svc = make_service()
        frontend, host, port = await serve_frontend(svc)
        status, _, body = await http_json(host, port, doc)
        await frontend.aclose()
        await svc.drain()
        return status, body

    return asyncio.run(scenario())


def test_server_answers_infinite_time_with_400():
    status, body = _post({"kind": "analyze", "params": {"graph": _INFINITE_TIME}})
    assert status == 400
    assert body["error_type"] == "ProtocolError"
    assert "nodes[0].time" in body["error"]


def test_analyze_of_an_empty_graph_is_a_structured_dfg_error():
    graph = to_json(DFG("empty"))
    _, body = _post({"kind": "analyze", "params": {"graph": graph}})
    assert body["ok"] is False
    assert body["payload"]["error_type"] == "DFGError"
    assert body["payload"]["error"] == "graph has no nodes"
