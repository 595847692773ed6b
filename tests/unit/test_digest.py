"""Run digests use the interpreter's built-in SHA-256, so a run never maps
OpenSSL's libcrypto, and every digest is unchanged (derived sweep seeds are
pinned in test_parallel_engine.py)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from repro.chaos.invariants import InvariantReport, run_digest

SRC = Path(__file__).resolve().parents[2] / "src"


def test_importing_the_stack_loads_no_openssl():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    probe = ("import sys\n"
             "import repro.core, repro.apps.kvstore, repro.fleet\n"
             "import repro.chaos.torture, repro.chaos.invariants\n"
             "print(sorted(m for m in sys.modules if 'hashlib' in m))\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_run_digest_is_plain_sha256():
    ctx = SimpleNamespace(snapshot={"sim.events": 12, "rnic.src.tx_bytes": 4096},
                          reports=[], plan=None)
    report = InvariantReport(checked=["cqe-conservation", "sim-health"],
                             violations=[("sim-health", "one died")])
    text = "\n".join(["rnic.src.tx_bytes=4096", "sim.events=12",
                      report.digest_input()])
    assert run_digest(ctx, report) == hashlib.sha256(text.encode()).hexdigest()
