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
    ("catalog", 0): "657bfbb0729a37f3d6b9e912c3e4ee95fe9146510abdfb57da74277c28c45ae0",
    ("catalog", 7): "23daa6acd675aad0c9eca7364a2c7aae19c733fe1d637194d0bed3e7afe2a4c6",
    ("catalog", 111): "112396797a3d5b1dc81b678f1fe135a0ad03b5e1477c0bf79d9ac1e9eb31ecf2",
    ("dense-sweep", 0): "9d57aa425d78371d9a0f25cb10132be99cb4dcd8e01f5e579a1ed1afe2bdef38",
    ("dense-sweep", 7): "6193a4b9604155dd769fbf237829eb66b8ea59f63a02c0a71162e7f536f2462f",
    ("dense-sweep", 111): "c080931e8c490ae6411dfe4d8605f97f2fa4fb5f3271089b03c591475ebd7d11",
    ("random-small", 0): "1ccf2a5e6fa6dc82ed7a28da2f4f9d5c2266869efabd126d100b7ad82aaa05f5",
    ("random-small", 7): "1eb131e179bf820a1e7138803e9eb996a701c314fa06da0d8300e4a53c4bdc4e",
    ("random-small", 111): "441273eb61e60637eae7a85e9be7bfbe869fde9968877ea5833576ec7369d4b2",
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
