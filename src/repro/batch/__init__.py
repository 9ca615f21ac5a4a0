"""Vectorized batch sweep engine.

Most of the paper's headline figures (Fig 15/16/17 gain matrices, Fig 18
distance sweeps, the BER/sensitivity sweeps) are grids of *independent*
link evaluations.  This package computes those grids in whole-array numpy
operations — path loss, noise floor, SNR, BER, packet-error rate, per-bit
energy and the analytic Eq 1 lifetime/gain — with no per-cell Python loop.

The contract (DESIGN.md §12):

* the scalar modules (:mod:`repro.phy`, :mod:`repro.core.offload`,
  :mod:`repro.sim.lifetime`) remain the ground-truth oracle;
* the lifetime/gain kernels replicate the scalar solver's arithmetic
  operation-for-operation, so gain matrices and distance sweeps are
  **bit-identical** to the scalar oracle under the default calibration;
* the PHY kernels (log/exp based) agree with the scalar math to ≤1e-12
  relative tolerance (numpy and libm may differ in the last ulp);
* the analysis sweeps pick their engine from their inputs: a custom
  ``link_map`` or a budget :func:`vectorizable_budget` rejects runs the
  scalar oracle, a campaign config runs per-cell engine jobs, anything
  else runs here.

``tests/batch/`` cross-validates randomized grids against the oracle.
"""

from .grid import (
    distance_gain_curve_grid,
    gain_matrix_grid,
    mode_config_table,
    paper_mode_ranges_m,
)
from .lifetime import (
    CostGrid,
    best_single_mode_bits,
    bidirectional_bits,
    bluetooth_bidirectional_bits,
    bluetooth_unidirectional_bits,
    offload_bits,
    offload_costs,
    point_energies,
)
from .phy import (
    backscatter_round_trip_loss_db,
    bit_error_rate,
    free_space_path_loss_db,
    link_ber,
    link_noise_floor_dbm,
    link_path_loss_db,
    link_snr_db,
    log_distance_path_loss_db,
    packet_error_rate,
    vectorizable_budget,
)

__all__ = [
    "CostGrid",
    "backscatter_round_trip_loss_db",
    "best_single_mode_bits",
    "bidirectional_bits",
    "bit_error_rate",
    "bluetooth_bidirectional_bits",
    "bluetooth_unidirectional_bits",
    "distance_gain_curve_grid",
    "free_space_path_loss_db",
    "gain_matrix_grid",
    "link_ber",
    "link_noise_floor_dbm",
    "link_path_loss_db",
    "link_snr_db",
    "log_distance_path_loss_db",
    "mode_config_table",
    "offload_bits",
    "offload_costs",
    "packet_error_rate",
    "paper_mode_ranges_m",
    "point_energies",
    "vectorizable_budget",
]
