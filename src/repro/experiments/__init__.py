"""Declarative experiment registry and the pipeline that runs it.

One frozen :class:`ExperimentDef` per figure/table/sweep/profile is
registered in :mod:`repro.experiments.catalog`; the CLI, the generic CSV
exporter, the campaign spec factory and the profiler all consume that one
table (DESIGN.md §13).

The catalog is imported lazily on first registry *access*, so importing
this package stays cheap.
"""

from .pipeline import (
    capability_rows,
    capability_table,
    export_all,
    export_experiment,
    render_show,
    write_rows,
)
from .registry import (
    CsvTable,
    ExperimentDef,
    all_experiments,
    campaignable_ids,
    experiment_ids,
    exportable_ids,
    get,
    profileable_ids,
    register,
    showable_ids,
)

__all__ = [
    "CsvTable",
    "ExperimentDef",
    "all_experiments",
    "campaignable_ids",
    "capability_rows",
    "capability_table",
    "experiment_ids",
    "export_all",
    "export_experiment",
    "exportable_ids",
    "get",
    "profileable_ids",
    "register",
    "render_show",
    "showable_ids",
    "write_rows",
]
