"""Application workloads: perftest (microbenchmarks), RDMA-Hadoop, and
the RDMA key-value store — plus the WorkloadContract conformance layer
they all ride."""

from repro.apps.contract import (
    WorkloadHarness,
    hadoop_harness,
    perftest_harness,
    run_contract,
)
from repro.apps.kvhistory import check_kv_history
from repro.apps.kvstore import (
    KvClient,
    KvServer,
    KvTable,
    KvTableLayout,
    connect_kv,
)
from repro.apps.perftest import (
    PerftestEndpoint,
    connect_endpoints,
    latency_percentiles,
    run_pingpong,
)

__all__ = ["KvClient", "KvServer", "KvTable", "KvTableLayout",
           "PerftestEndpoint", "WorkloadHarness", "check_kv_history",
           "connect_endpoints", "connect_kv", "hadoop_harness",
           "latency_percentiles", "perftest_harness", "run_contract",
           "run_pingpong"]
