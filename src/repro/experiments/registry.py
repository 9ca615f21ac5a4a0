"""Declarative experiment registry: one frozen def per figure/table/sweep.

Every paper experiment the CLI can name — exportable figures and tables,
campaign decompositions, profiler sweep workloads, the energy/fault
profile reports — is a single frozen :class:`ExperimentDef` registered
here.  The CLI (argparse choices, ``list``, ``show``, ``export``,
``profile``, ``campaign``, ``energy``, ``faults``), the generic exporter
(:mod:`repro.experiments.pipeline`) and the campaign spec factory
(:func:`repro.runtime.workloads.campaign_specs`) all derive from this one
table; adding an experiment is one :func:`register` call, not a
cross-cutting edit (DESIGN.md §13 documents the contract).

The built-in defs live in :mod:`repro.experiments.catalog`, imported
lazily on first registry access so that importing the registry never
drags the whole analysis stack in.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..runtime import CampaignConfig
    from ..runtime.jobs import JobSpec


@dataclass(frozen=True)
class CsvTable:
    """One declarative CSV output: filename, header, materialized rows."""

    filename: str
    header: Sequence[str]
    rows: Sequence[Sequence[object]]


#: Builds an experiment's CSV tables (the declarative exporter form).
TablesHook = Callable[[], Sequence[CsvTable]]
#: Full-custom exporter (writes files itself, returns the primary path);
#: the only exporters that run engine jobs, under the given campaign
#: config (``None``: the engine's defaults, no cache).
ExportHook = Callable[[Path, "CampaignConfig | None"], Path]
#: Campaign decomposition: the experiment's engine job list.
CampaignHook = Callable[[], "list[JobSpec]"]
#: Purpose-built ``show`` renderer (None falls back to the CSV dump).
ShowHook = Callable[[], str]
#: Profiler workload: runs the underlying sweep.
ProfileHook = Callable[[], None]
#: Renders one named variant (e.g. an energy/fault profile) as text:
#: (variant, distance_m, packets, seed) -> report.
VariantHook = Callable[[str, float, int, int], str]


@dataclass(frozen=True)
class ExperimentDef:
    """One registered experiment: identity, spec builders, and hooks.

    Attributes:
        id: CLI-facing experiment id (``fig15``, ``energy``, ...).
        title: one-line description shown by ``python -m repro list``.
        kind: coarse category (``figure`` / ``table`` / ``report`` /
            ``scenario`` / ``sweep`` / ``campaign``), display-only.
        tables: declarative CSV builder; the generic exporter writes each
            returned :class:`CsvTable` into the output directory.
        export: custom exporter for outputs the table form cannot express
            (e.g. ``deploy`` writes a JSON manifest beside its CSV).
            Mutually exclusive with ``tables``.
        csv_names: every file the exporter writes, for capability listings
            and the CI export smoke check.
        campaign: builds the engine :class:`~repro.runtime.jobs.JobSpec`
            list for ``python -m repro campaign <id>``.
        show: purpose-built text renderer for ``show <id>``; when absent
            the pipeline dumps the exporter's CSVs.
        profile: sweep workload for ``profile <id>`` (no CSV); when absent
            the profiler wraps the exporter instead.
        variants: named sub-profiles (the ``energy`` / ``faults``
            subcommand choices).
        render_variant: text renderer for one variant.
    """

    id: str
    title: str
    kind: str
    tables: "TablesHook | None" = None
    export: "ExportHook | None" = None
    csv_names: tuple[str, ...] = ()
    campaign: "CampaignHook | None" = None
    show: "ShowHook | None" = None
    profile: "ProfileHook | None" = None
    variants: tuple[str, ...] = ()
    render_variant: "VariantHook | None" = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("experiment id must be non-empty")
        if not self.title:
            raise ValueError(f"experiment {self.id!r} needs a title")
        if self.tables is not None and self.export is not None:
            raise ValueError(
                f"experiment {self.id!r}: tables and export are mutually "
                "exclusive (one exporter form per def)"
            )
        hooks = (
            self.tables, self.export, self.campaign, self.profile,
            self.render_variant,
        )
        if all(hook is None for hook in hooks):
            raise ValueError(
                f"experiment {self.id!r} registers no exporter, campaign, "
                "profile or variant hook"
            )
        if self.exportable and not self.csv_names:
            raise ValueError(
                f"experiment {self.id!r} exports CSVs but declares no "
                "csv_names"
            )
        if (self.variants == ()) != (self.render_variant is None):
            raise ValueError(
                f"experiment {self.id!r}: variants and render_variant must "
                "be declared together"
            )

    @property
    def exportable(self) -> bool:
        """Whether ``export <id>`` works (tables or a custom exporter)."""
        return self.tables is not None or self.export is not None

    @property
    def showable(self) -> bool:
        """Whether ``show <id>`` works (renderer or CSV fallback)."""
        return self.show is not None or self.exportable

    @property
    def profileable(self) -> bool:
        """Whether ``profile <id>`` works (sweep hook or exporter)."""
        return self.profile is not None or self.exportable

    @property
    def campaignable(self) -> bool:
        """Whether ``campaign <id>`` has an engine decomposition."""
        return self.campaign is not None


_REGISTRY: "dict[str, ExperimentDef]" = {}
_CATALOG_LOADED = False


def _ensure_catalog() -> None:
    """Import the built-in defs exactly once (lazily, so importing the
    registry skips the analysis stack)."""
    global _CATALOG_LOADED
    if not _CATALOG_LOADED:
        _CATALOG_LOADED = True
        from . import catalog  # noqa: F401  (registration side effect)


def register(defn: ExperimentDef) -> ExperimentDef:
    """Add one experiment def to the registry.

    Returns the def so registrations can be assigned to module names.

    Raises:
        ValueError: on a duplicate id.
    """
    if defn.id in _REGISTRY:
        raise ValueError(f"experiment {defn.id!r} is already registered")
    _REGISTRY[defn.id] = defn
    return defn


def get(experiment_id: str) -> ExperimentDef:
    """The registered def for ``experiment_id``.

    Raises:
        KeyError: for unknown ids (the message lists the known ones).
    """
    _ensure_catalog()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown experiment {experiment_id!r} (known: {known})"
        ) from None


def all_experiments() -> tuple[ExperimentDef, ...]:
    """Every registered def, in registration order."""
    _ensure_catalog()
    return tuple(_REGISTRY.values())


def experiment_ids() -> tuple[str, ...]:
    """Every registered id, in registration order."""
    return tuple(d.id for d in all_experiments())


def exportable_ids() -> tuple[str, ...]:
    """Ids ``export`` (and the CSV ``show`` fallback) accepts."""
    return tuple(d.id for d in all_experiments() if d.exportable)


def showable_ids() -> tuple[str, ...]:
    """Ids ``show`` accepts."""
    return tuple(d.id for d in all_experiments() if d.showable)


def profileable_ids() -> tuple[str, ...]:
    """Ids ``profile`` accepts."""
    return tuple(d.id for d in all_experiments() if d.profileable)


def campaignable_ids() -> tuple[str, ...]:
    """Ids ``campaign`` accepts (besides ``all``)."""
    return tuple(d.id for d in all_experiments() if d.campaignable)
