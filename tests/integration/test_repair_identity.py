"""Repair decisions are pinned bit-for-bit across refactors of the repair path.

Both runners log every repair attempt as a :class:`RepairAction`.  Each
digest covers the ``(kind, node, radius, success, detail)`` sequence one
schema produced over a seeded campaign: the chaos campaign for
:class:`~repro.faults.RobustRunner`, and a 150-mutation stream per flagship
for :class:`~repro.dynamic.ChurnRunner`.  A change to the repair kernel,
its radius schedule, its clustering or its fallback that alters any
attempt, in any order, fails here.
"""

import hashlib
from collections import defaultdict

import pytest

from repro.dynamic import run_churn_campaign
from repro.faults import RobustRunner, run_campaign

#: sha256 prefixes of the action sequences of ``run_campaign(runs=40, seed=1)``.
CHAOS_PINNED = {
    "2-coloring": "0d489bac39a0c529",
    "3-coloring": "43a2b9df625e8c2b",
    "balanced-orientation": "59b03efe9369aa65",
    "delta-coloring": "b827fc05f4fe92f6",
    "delta-edge-coloring": "99011398baa3fca8",
    "lcl-subexp": "af2c52a5b92bc494",
    "one-bit-2-coloring": "9f2c1d2c63d182b1",
    "one-bit-lcl": "376e6956b9f681fe",
    "one-bit-orientation": "92493842f556ab08",
    "splitting": "d503e4f7a5b2fc61",
}

#: sha256 prefixes of the action sequences of ``run_churn_campaign(mutations=150)``.
CHURN_PINNED = {
    "2-coloring": "5da3f7ce442d0153",
    "3-coloring": "11bd46a28cc0915a",
}


def _digest(actions):
    payload = repr([
        (a.kind, a.node, a.radius, a.success, a.detail) for a in actions
    ])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def chaos_digests():
    per_schema = defaultdict(list)
    pending = []
    original = RobustRunner.run

    def recording_run(self, *args, **kwargs):
        run = original(self, *args, **kwargs)
        pending.extend(run.robustness.actions)
        return run

    def progress(record):
        # Called right after the run that produced ``pending``.
        per_schema[record["schema"]].extend(pending)
        pending.clear()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RobustRunner, "run", recording_run)
        run_campaign(runs=40, seed=1, progress=progress)
    return {name: _digest(actions) for name, actions in per_schema.items()}


@pytest.fixture(scope="module")
def churn_digests():
    result = run_churn_campaign(mutations=150)
    return {
        report.schema_name: _digest(
            [a for record in report.records for a in record.actions]
        )
        for report in result.reports
    }


@pytest.mark.parametrize("name", sorted(CHAOS_PINNED))
def test_chaos_repair_actions_are_pinned(chaos_digests, name):
    assert chaos_digests[name] == CHAOS_PINNED[name]


@pytest.mark.parametrize("name", sorted(CHURN_PINNED))
def test_churn_repair_actions_are_pinned(churn_digests, name):
    assert churn_digests[name] == CHURN_PINNED[name]
