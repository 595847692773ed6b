"""Baselines and comparison models.

The paper's own comparison workflow, MigrRDMA without RDMA pre-setup
(§4), is ``LiveMigration(..., presetup=False)``; this package holds the
models of other systems:

- :mod:`repro.baselines.migros` — a model of MigrOS (hardware-extension
  approach) for the §6 stop-and-copy comparison,
- :mod:`repro.baselines.keytables` — LubeRDMA linked-list and
  FreeFlow full-queue virtualization cost models for the §6 data-path
  comparisons.
"""

from repro.baselines.migros import MigrOsModel
from repro.baselines.keytables import (
    FreeFlowCostModel,
    LubeRdmaKeyTable,
    MigrRdmaKeyTable,
)

__all__ = [
    "FreeFlowCostModel",
    "LubeRdmaKeyTable",
    "MigrOsModel",
    "MigrRdmaKeyTable",
]
