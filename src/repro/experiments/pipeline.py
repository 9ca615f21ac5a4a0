"""Generic registry-backed experiment pipeline: export, show, list.

One exporter serves every registered experiment: a def either declares
its CSVs as :class:`~repro.experiments.registry.CsvTable` rows (the
common case — the pipeline writes them byte-identically to the former
hand-written ``export_figN`` family) or supplies a custom
:data:`~repro.experiments.registry.ExportHook` for outputs the table form
cannot express.  ``show`` falls back to dumping the exporter's CSVs, so
every id the CLI advertises renders something.
"""

from __future__ import annotations

import csv
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .registry import ExperimentDef, all_experiments, get

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..runtime import CampaignConfig


def write_rows(
    path: Path, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> Path:
    """Write one CSV (header + rows), creating parent directories."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(header))
        writer.writerows(rows)
    return path


def export_experiment(
    experiment_id: str,
    directory: Path,
    config: "CampaignConfig | None" = None,
) -> Path:
    """Write one experiment's CSV output into ``directory``.

    Returns the last written path (the primary artifact for multi-file
    exporters, matching the historical ``export_figN`` contract).
    ``config`` reaches only the custom exporters (the deploy scenarios,
    whose region jobs it caches); table builders compute inline.

    Raises:
        KeyError: for unknown experiment ids.
        ValueError: for registered ids with no exporter (campaign- or
            profile-only entries such as ``mc-ber``).
    """
    defn = get(experiment_id)
    if defn.export is not None:
        return defn.export(directory, config)
    if defn.tables is None:
        raise ValueError(
            f"experiment {experiment_id!r} has no exporter "
            f"(exportable ids: {', '.join(_exportable())})"
        )
    path: "Path | None" = None
    for table in defn.tables():
        path = write_rows(directory / table.filename, table.header, table.rows)
    if path is None:
        raise ValueError(f"experiment {experiment_id!r} produced no tables")
    return path


def _exportable() -> tuple[str, ...]:
    from .registry import exportable_ids

    return exportable_ids()


def export_all(
    directory: Path, config: "CampaignConfig | None" = None
) -> list[Path]:
    """Write every exportable experiment's CSVs into ``directory``,
    passing ``config`` to each as :func:`export_experiment` does."""
    return [
        export_experiment(defn.id, directory, config)
        for defn in all_experiments()
        if defn.exportable
    ]


def render_show(experiment_id: str) -> str:
    """The ``show <id>`` text: a purpose-built renderer when the def has
    one, otherwise the exporter's CSVs dumped with ``# filename``
    headers (so every advertised id renders).

    Raises:
        KeyError: for unknown experiment ids.
        ValueError: for ids that are neither showable nor exportable.
    """
    defn = get(experiment_id)
    if defn.show is not None:
        return defn.show()
    with tempfile.TemporaryDirectory(prefix="repro-show-") as tmp:
        export_experiment(experiment_id, Path(tmp))
        parts = []
        for csv_path in sorted(Path(tmp).glob("*.csv")):
            parts.append(f"# {csv_path.name}")
            parts.append(csv_path.read_text().rstrip("\n"))
    return "\n".join(parts)


def _flag(value: bool) -> str:
    return "yes" if value else "-"


def capability_rows(
    experiments: "Sequence[ExperimentDef] | None" = None,
) -> tuple[list[str], list[list[str]]]:
    """(header, rows) of the registry capability table rendered by
    ``python -m repro list``: one row per experiment with its campaign /
    profile capabilities and exported files."""
    header = ["experiment", "kind", "campaign", "profile", "exports"]
    rows = []
    for defn in experiments if experiments is not None else all_experiments():
        exports = " ".join(defn.csv_names) if defn.csv_names else "-"
        if defn.variants:
            exports += f"  [{len(defn.variants)} profiles]"
        rows.append(
            [
                defn.id,
                defn.kind,
                _flag(defn.campaignable),
                _flag(defn.profileable),
                exports,
            ]
        )
    return header, rows


def capability_table() -> str:
    """The ``list`` table as aligned text."""
    header, rows = capability_rows()
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows))
        for i in range(len(header) - 1)
    ]
    lines = []
    for cells in [header] + rows:
        padded = [c.ljust(widths[i]) for i, c in enumerate(cells[:-1])]
        lines.append(("  ".join(padded + [cells[-1]])).rstrip())
    return "\n".join(lines)
