"""Every golden telemetry run stays inside its storage envelope.

An over-envelope peak otherwise shows up only as a
``storage-over-envelope`` anomaly in ``repro.analytics/1``.  Here each
run of two golden campaigns is checked directly: the ABD/CAS campaign
behind ``analytics.json``, and the ``chaos.json`` configuration
(CASGC and the Byzantine band added) rerun with telemetry.  Each
campaign is first matched against its committed bytes, so the runs
checked are the golden ones (the chaos report without telemetry holds
no peak, so its ``peak_total_bits`` are compared as null).  For every
run, the peak total storage is at most
:func:`~repro.obs.analytics.storage_envelope_bits` and the peak of the
fullest server at most that total.
"""

import json

import pytest

from repro.faults.campaign import run_campaign
from repro.obs.analytics import analyze_campaign, storage_envelope_bits
from tests.golden.build import golden_path

#: ``repro chaos`` as ``tests/golden/build.py`` runs it for each file.
CAMPAIGNS = {
    "analytics.json": dict(algorithms=("abd", "cas"), byzantine=0),
    "chaos.json": dict(algorithms=("abd", "cas", "casgc"), byzantine=1),
}


def _golden_bytes(name, report):
    if name == "analytics.json":
        doc = analyze_campaign(report)
    else:
        doc = report.to_json_dict()
        for run in doc["runs"]:
            run["peak_total_bits"] = None
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_every_golden_run_stays_inside_its_storage_envelope(name):
    report = run_campaign(
        n=5, f=1, value_bits=6, seeds=range(1), num_ops=6,
        cache=None, telemetry=True, **CAMPAIGNS[name],
    )
    with open(golden_path(name), encoding="utf-8") as fh:
        assert _golden_bytes(name, report) == fh.read()
    algorithms = set()
    for run in report.results:
        telemetry = run.telemetry
        storage = telemetry["storage"]
        envelope = storage_envelope_bits(
            run.algorithm, report.n, report.value_bits,
            telemetry["writes_invoked"], symbol_bits=telemetry["symbol_bits"],
        )
        label = (run.algorithm, run.config.label())
        assert envelope is not None, label
        assert storage["peak_total_bits"] <= envelope, label
        assert storage["peak_max_server_bits"] <= storage["peak_total_bits"], label
        algorithms.add(run.algorithm)
    assert algorithms == set(CAMPAIGNS[name]["algorithms"])
