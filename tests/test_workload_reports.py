"""The report bytes of the benchmark workloads (`perfbench/workloads.py`) at
seeds 0, 7 and 111: a change that moves any report of catalog, dense-sweep or
random-small must be deliberate and update these digests."""

import hashlib
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import workloads  # noqa: E402

# sha256 of the concatenated report_to_json of every case of the workload
WORKLOAD_REPORT_SHA256 = {
    ("catalog", 0): "f090dda08626e8d273153463eb4db818795566cf35da4c2ace4878f07fadcba9",
    ("catalog", 7): "595f48b9d819bc1ffeeeeb7edeb9a02878be4ee4c62756b7c14e72d1b53c8c1d",
    ("catalog", 111): "70e0aeb717d6f139d434f431cf7a5755d2169e9ff551e625a3b06c80fa91313b",
    ("dense-sweep", 0): "baf466ab518bc33e8e14574c6cdfd301d23227c89f72f16d62c5f20a33d45338",
    ("dense-sweep", 7): "fccd1cb9fb2d74a5d02efa184edb2af230d1a4a2e0f92418ccb9a31a0e915dee",
    ("dense-sweep", 111): "f1a989c3943394b7db7743b5b2d42c35cc86d2fcf5ed9c2a6b0e8492c0a40431",
    ("random-small", 0): "4ea1833da0e50248760ec58c202a2730918aa949624982f191c29eedfebd4721",
    ("random-small", 7): "6eba9f066905b6b5b751ad3a222c031c6c7ea5505eef9b550ece87d92b8ff085",
    ("random-small", 111): "a211b898326c72280979cb6a07326f341d0a1d9ed1fecbfda98be22d6a9c9adc",
}


@pytest.mark.parametrize(
    "workload, seed",
    sorted(WORKLOAD_REPORT_SHA256),
    ids=[f"{w}-{s}" for w, s in sorted(WORKLOAD_REPORT_SHA256)],
)
def test_workload_report_digest(workload, seed):
    digest = hashlib.sha256()
    for case in workloads.WORKLOADS[workload](seed):
        report, solver_failure, text = workloads.classify(case, seed)
        assert workloads.check(case, report, solver_failure) == [], case.name
        digest.update(text.encode())
    assert digest.hexdigest() == WORKLOAD_REPORT_SHA256[(workload, seed)]
