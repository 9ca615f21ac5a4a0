"""Golden-snapshot pin: ``export all`` output is byte-identical to the
pre-registry-refactor CSVs.

The hashes in ``goldens/export_all.sha256`` were captured from the
ad-hoc ``export_figN`` exporters immediately before the experiment
registry replaced them (determinism of the export pipeline was verified
by double-run at capture time).  Any byte drift here is a regression in
the spec → campaign → export pipeline, not a formatting nit:
downstream plots and the reproduction report consume these files.

The gain sweeps (fig15-18) run on the batch engine; its per-cell
counterparts (``campaign fig15``...) are checked against the scalar
oracle in ``tests/runtime/test_workloads.py``.

Regenerate deliberately (only with a matching analysis-layer change)::

    PYTHONPATH=src python -m repro export all /tmp/goldens
    (cd /tmp/goldens && sha256sum *) > tests/analysis/goldens/export_all.sha256
"""

import hashlib
from pathlib import Path

import pytest

from repro.experiments import export_all

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

