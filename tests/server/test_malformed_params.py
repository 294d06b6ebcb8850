"""Bad request params end in a structured error before any work starts.

Valid params of every request kind are mutated with wrong types and
zero, negative, huge and non-finite numbers.  ``parse_request`` may only
return a request whose params are in range, or raise
:class:`ProtocolError`, which the server answers with a 400.  The
``sweep`` CLI rejects the same out-of-range values with one ``error:``
line and exit code 2.
"""

from __future__ import annotations

import asyncio
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.server import ProtocolError, parse_request

from .conftest import http_json, make_service, serve_frontend

_DELETE = object()

#: Valid params per kind; the fuzzer mutates one to three keys of these.
_VALID = {
    "analyze": {"workload": "iir", "trip_count": 5, "verify": False},
    "transform": {
        "workload": "iir",
        "transform": "csr-unfolded",
        "factor": 2,
        "trip_count": 5,
        "verify": True,
    },
    "oracle": {"workload": "iir", "oracle_timeout": 1.5},
    "sweep": {
        "graphs": 2,
        "seed": 0,
        "factors": [2, 3],
        "max_nodes": 4,
        "oracle": False,
        "oracle_timeout": None,
    },
}

_BAD_VALUES = st.one_of(
    st.sampled_from(
        [
            _DELETE,
            None,
            True,
            "",
            "iir",
            [],
            [0],
            [2, -1],
            [True],
            {},
            -1,
            0,
            10**400,
            -(10**400),
            1.5,
            -0.5,
            float("inf"),
            float("-inf"),
            float("nan"),
        ]
    ),
    st.integers(),
    st.floats(),
    st.lists(st.integers(min_value=-2, max_value=4), max_size=3),
)


def _finite_seconds(timeout) -> bool:
    return timeout is None or (math.isfinite(timeout) and timeout >= 0)


def _assert_in_range(kind: str, params: dict) -> None:
    """The normalized params of an accepted request."""
    if kind == "sweep":
        assert params["graphs"] >= 1
        assert params["max_nodes"] >= 1
        assert params["factors"] and min(params["factors"]) >= 1
        assert _finite_seconds(params["oracle_timeout"])
    else:
        assert params.get("factor", 1) >= 1
        assert params["trip_count"] >= 0
        assert _finite_seconds(params.get("oracle_timeout"))


@st.composite
def mutated_params(draw) -> tuple[str, dict]:
    kind = draw(st.sampled_from(sorted(_VALID)))
    params = dict(_VALID[kind])
    keys = sorted(params) + ["oracle_timeout", "factors", "max_nodes"]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        key = draw(st.sampled_from(keys))
        value = draw(_BAD_VALUES)
        if value is _DELETE:
            params.pop(key, None)
        else:
            params[key] = value
    return kind, params


@given(mutated_params())
@example(("sweep", {"factors": [0]}))
@example(("sweep", {"max_nodes": 0}))
@example(("sweep", {"oracle_timeout": float("nan")}))
@example(("oracle", {"workload": "iir", "oracle_timeout": -1}))
@example(("oracle", {"workload": "iir", "oracle_timeout": 10**400}))
@settings(max_examples=400, deadline=None)
def test_parse_request_accepts_only_in_range_params(case):
    kind, params = case
    try:
        request = parse_request({"kind": kind, "params": params})
    except ProtocolError:
        return
    _assert_in_range(kind, request.params)


@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("sweep", {"factors": [0]}, "factors must be >= 1"),
        ("sweep", {"max_nodes": 0}, "max_nodes must be >= 1"),
        ("sweep", {"oracle_timeout": float("nan")}, "oracle_timeout"),
        ("sweep", {"oracle_timeout": -1}, "oracle_timeout"),
        ("oracle", {"workload": "iir", "oracle_timeout": -1}, "oracle_timeout"),
    ],
)
def test_server_answers_out_of_range_params_with_400(kind, params, message):
    async def scenario():
        svc = make_service()
        frontend, host, port = await serve_frontend(svc)
        status, _, body = await http_json(host, port, {"kind": kind, "params": params})
        await frontend.aclose()
        await svc.drain()
        return status, body, svc.stats

    status, body, stats = asyncio.run(scenario())
    assert status == 400
    assert body["error_type"] == "ProtocolError"
    assert message in body["error"]
    assert stats.submitted == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--graphs", "0"], "error: graphs must be >= 1, got 0"),
        (["--max-nodes", "0"], "error: max_nodes must be >= 1, got 0"),
        (["--factors", "0"], "error: factors must be >= 1, got [0]"),
        (["--factors", "2", "-1"], "error: factors must be >= 1, got [2, -1]"),
        (
            ["--oracle-timeout", "nan"],
            "error: oracle_timeout must be a finite number >= 0, got nan",
        ),
        (
            ["--oracle-timeout", "-1"],
            "error: oracle_timeout must be a finite number >= 0, got -1.0",
        ),
    ],
)
def test_sweep_cli_rejects_bad_params_with_one_line(argv, message, capsys):
    assert main(["sweep", "--no-cache", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [message]
