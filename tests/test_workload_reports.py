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
    ("catalog", 0): "5cf723c971fed1cb1df2f74d291d4f173a161acf43fc34d1af93522a8f9aca3d",
    ("catalog", 7): "3669c461c9a81c688812122dff34f446e519d7e8e702af589c345f1f2509f51e",
    ("catalog", 111): "44699e6f2ebf1f6da0c3d22f082797cccfeab5ba6101a19f425242ad4a2288a0",
    ("dense-sweep", 0): "df4029b0825b6d67c8972a0e3300ee788ddda9bd0a5a71efb916a998872cca8f",
    ("dense-sweep", 7): "1330083346322c22b8837848f22b8750fdde52d6660a0669deb18bc28e0f96f7",
    ("dense-sweep", 111): "145d9253268788330027861f72d2a26cbddbd8356f40c32dbbe2455a88af4304",
    ("random-small", 0): "b0e4b39965c09485bbb16d6484681fcba554485936b8b8230211b20b5698d314",
    ("random-small", 7): "a146cc5831c4dafe24424847f7c54f4f02a78e4e1ea932bfd85deba0b57b5acc",
    ("random-small", 111): "5e1cce0478edc9cb0b8ff16ccae1f4a56560a00c1a5d2caf2588602d6e2791a3",
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
