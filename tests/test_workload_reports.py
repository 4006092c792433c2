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
    ("catalog", 0): "b138a4e5c669d6937cae043897f2d940af8e19bd14f6fba4c442228febcbe23a",
    ("catalog", 7): "bbfbf611f098ea5988f4e16b9edb2fd0cec3a023ba0eaf221e778b26ec42b33f",
    ("catalog", 111): "90ab1ab6053f4467fbbb75ae7d25205e53fbd334e728a0242adaf187ef20e240",
    ("dense-sweep", 0): "dc98d8e1087cd961fe02eb910ad4c43991e260ccac0dbcb31f53fd98d04526e5",
    ("dense-sweep", 7): "6ec49568b4b340eb592531d5268a511d9a7c337aa4c0f0d5a5d675a3d813f313",
    ("dense-sweep", 111): "1265dbc4b994b24f344ef1aebddb48ae89d55b7ce4319a108058762441f5dd65",
    ("random-small", 0): "d3feffd6372d8aa3e291d22f4a246e375cbefd2dae9329bf3fd8839b7c8bae39",
    ("random-small", 7): "9b2f2c5fc84a7380367d0d6011faf6ff6cd4bb03a9e0c9e94524fe2883d72330",
    ("random-small", 111): "e9b13a4030fb704bf500ca1ace16bb3f798e6fd14e643e078d0aed5b0c9c757a",
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
