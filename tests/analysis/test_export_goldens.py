"""Golden-snapshot pin: ``export all`` output is byte-identical to the
pre-registry-refactor CSVs.

The hashes in ``goldens/export_all.sha256`` were captured from the
ad-hoc ``export_figN`` exporters immediately before the experiment
registry replaced them (determinism of the export pipeline was verified
by double-run at capture time).  Any byte drift here is a regression in
the spec → campaign → export pipeline, not a formatting nit:
downstream plots and the reproduction report consume these files.

Without a campaign config the gain sweeps (fig15-18) run on the batch
engine; with one they run as per-cell engine jobs.  Both paths must
reproduce the same bytes.

Regenerate deliberately (only with a matching analysis-layer change)::

    PYTHONPATH=src python -m repro export all /tmp/goldens
    (cd /tmp/goldens && sha256sum *) > tests/analysis/goldens/export_all.sha256
"""

import hashlib
from pathlib import Path

import pytest

from repro.experiments import ExportOptions, export_all, export_experiment, get
from repro.runtime import CampaignConfig

GOLDENS = Path(__file__).parent / "goldens" / "export_all.sha256"


def _parse_goldens() -> dict[str, str]:
    expected = {}
    for line in GOLDENS.read_text().splitlines():
        digest, name = line.split()
        expected[name] = digest
    return expected


@pytest.fixture(scope="module")
def exported(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("export_all")
    export_all(directory)
    return directory


class TestExportGoldens:
    def test_golden_manifest_is_complete(self, exported):
        produced = {p.name for p in exported.iterdir()}
        assert produced == set(_parse_goldens())

    @pytest.mark.parametrize("name", sorted(_parse_goldens()))
    def test_file_is_byte_identical(self, exported, name):
        digest = hashlib.sha256((exported / name).read_bytes()).hexdigest()
        assert digest == _parse_goldens()[name], (
            f"{name} drifted from the pre-refactor golden; see the module "
            "docstring before regenerating"
        )


#: The exporters whose sweeps run per-cell engine jobs under a campaign.
GAIN_SWEEPS = ("fig15", "fig16", "fig17", "fig18")


@pytest.fixture(scope="module")
def exported_per_cell(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("export_per_cell")
    options = ExportOptions(campaign=CampaignConfig())
    for experiment in GAIN_SWEEPS:
        export_experiment(experiment, directory, options)
    return directory


class TestPerCellExportGoldens:
    @pytest.mark.parametrize("experiment", GAIN_SWEEPS)
    def test_per_cell_jobs_reproduce_the_golden(self, exported_per_cell, experiment):
        (name,) = get(experiment).csv_names
        digest = hashlib.sha256((exported_per_cell / name).read_bytes()).hexdigest()
        assert digest == _parse_goldens()[name]
