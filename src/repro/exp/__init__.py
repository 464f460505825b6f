"""repro.exp — the unified experiment registry and CLI front door.

The paper's evaluation is a fixed catalog: Tables 1–3 (``T1``–``T3``),
the §3 narrative statistics (``N1``), eleven student-project experiments
(``E1``–``E11``), the GPU-contention study (``R1``), the performance
lesson module (``P1``), and the year-two plans (``F1``).  Each is one
:class:`Experiment` registered by its substrate package's study module;
``python -m repro`` (or the ``repro`` console script) lists, runs,
reports, and checks any subset of the catalog with provenance manifests
and :mod:`repro.obs` event logs per run.
"""

from repro.api.execution import RunRecord, RunSummary
from repro.exp.registry import (
    Experiment,
    all_experiments,
    experiment_ids,
    get_experiment,
    load_all,
    register,
)
from repro.exp.reporting import paper_comparison, rows_table, verdict_table
from repro.exp.result import Block, Check, ExpResult, Verdict

__all__ = [
    "Experiment",
    "all_experiments",
    "experiment_ids",
    "get_experiment",
    "load_all",
    "register",
    "paper_comparison",
    "rows_table",
    "verdict_table",
    "Block",
    "Check",
    "ExpResult",
    "Verdict",
    "RunRecord",
    "RunSummary",
]
