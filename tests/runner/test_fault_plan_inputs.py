"""Malformed fault plans end in a structured error, never a traceback.

``FaultPlan.from_dict`` raises :class:`ValueError` for every document it
does not accept — wrong types, out-of-range values, unknown sites and
unknown keys alike — and every command that takes ``--fault-plan`` (or
``$REPRO_FAULT_PLAN``) turns that into one ``error:`` line and exit
status 2.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner.resilience import FAULT_PLAN_ENV, FAULT_SITES, FaultPlan

SRC = str(Path(__file__).resolve().parents[2] / "src")

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_specs = st.fixed_dictionaries(
    {},
    optional={
        "site": st.sampled_from(FAULT_SITES) | _json,
        "match": st.text(max_size=6) | _json,
        "times": st.integers(-2, 5) | _json,
        "prob": st.floats(-1.0, 2.0) | _json,
        "p": _json,
    },
)
_plans = (
    st.fixed_dictionaries(
        {},
        optional={
            "seed": st.integers() | _json,
            "faults": st.lists(_specs | _json, max_size=3) | _json,
            "fault": _json,
        },
    )
    | _json
)


@settings(max_examples=300, deadline=None)
@given(doc=_plans)
def test_from_dict_accepts_a_plan_or_raises_value_error(doc):
    try:
        plan = FaultPlan.from_dict(doc)
    except ValueError:
        return
    # What is accepted is exactly the documented schema, and survives
    # the trip to a pool or lease worker.
    assert set(doc) <= {"seed", "faults"}
    assert all(set(f) <= {"site", "match", "times", "prob"} for f in doc.get("faults", []))
    again = FaultPlan.from_dict(json.loads(json.dumps(plan.as_dict())))
    assert (again.seed, again.faults) == (plan.seed, plan.faults)


@pytest.mark.parametrize(
    "spec, message",
    [
        ('{"faults": 3}', "'faults' has an invalid value"),
        ("[1]", "must be a JSON object"),
        ('{"faults": [{"site": "job.nonsense"}]}', "unknown fault site"),
        ('{"faults": [{"site": "job.start", "p": 0.5}]}', "unknown fault spec key 'p'"),
        ('{"faults": [{"match": "*"}]}', "needs a site"),
        ('{"faults": [{"site": "job.start", "times": "2"}]}', "'times'"),
        ('{"seed": true}', "'seed'"),
        ("no/such/plan.json", "cannot read fault plan"),
    ],
)
def test_from_spec_raises_value_error(spec, message):
    with pytest.raises(ValueError, match=message):
        FaultPlan.from_spec(spec)


def _repro(*argv: str, env_plan: str | None = None):
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop(FAULT_PLAN_ENV, None)
    if env_plan is not None:
        env[FAULT_PLAN_ENV] = env_plan
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _assert_one_error_line(proc) -> None:
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: invalid fault plan: ")
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "plan", ['{"faults": 3}', "[1]", '{"faults": [{"site": "nope"}]}']
)
def test_sweep_reports_a_malformed_plan_in_one_line(plan):
    _assert_one_error_line(
        _repro("sweep", "--graphs", "1", "--no-cache", "--fault-plan", plan)
    )


def test_a_malformed_environment_plan_is_reported_the_same_way():
    _assert_one_error_line(
        _repro("tables", "1", "--no-cache", env_plan='{"faults": [{"p": 1}]}')
    )


def test_serve_reports_a_malformed_plan_in_one_line(tmp_path):
    _assert_one_error_line(
        _repro("serve", "--socket", str(tmp_path / "s.sock"),
               "--fault-plan", '{"faults": 3}')
    )
