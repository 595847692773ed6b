"""Table 4: CPU cycles of data-path operations with/without virtualization.

Runs the perftest cycle-sampling extension (64 B messages, one RC QP,
matching §5.5.1) over the plain verbs library and over the MigrRDMA guest
library, via ``repro.experiments.table4``.  Claims to reproduce: the
virtualization layer adds only a few cycles per operation — 4.6-8.3 extra
cycles, 3 %-9 % overhead in the paper — i.e. ~0.15-0.42 CPU cores for
100 M ops/s.
"""

import pytest

from bench_common import record_result
from repro.experiments import format_table4, table4


@pytest.fixture(scope="module")
def table():
    table = table4()
    record_result("table4_virtualization_overhead.txt", *format_table4(table))
    return {row["op"]: row for row in table["rows"]}


@pytest.mark.parametrize("op", ["send", "write", "read"])
def test_table4_per_op_overhead(table, op):
    # The paper's band: a handful of cycles, 3-9 % overhead.
    assert 2.0 < table[op]["extra"] < 12.0
    assert 0.02 < table[op]["overhead"] < 0.12


def test_table4_recv_overhead(table):
    """'receive' is measured on the posting side of RECV WRs."""
    assert 2.0 < table["recv"]["extra"] < 12.0
