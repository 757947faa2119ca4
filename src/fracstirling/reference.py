"""Regression targets for the bundled ten-row regeneration benchmark.

The benchmark fixes t_hot=4, t_cold=3, mass=1 and a ten-level working
substance.  For each width pair, `qr_quadratic` is the regenerator heat at
alpha_1 = alpha_2 = 2 and (alpha_1, alpha_2) is a point on the measured
q_r = 0 locus.  The `table1` CLI subcommand re-derives both columns and
reports per-row residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .cycle import CycleParams

BENCH_T_HOT = 4.0
BENCH_T_COLD = 3.0
BENCH_MASS = 1.0

# The benchmark values assume the level sum is cut at exactly ten levels;
# with a converged sum the qr_quadratic column still holds to ~2e-4 but the
# (alpha_1, alpha_2) pairs shift off the locus by a few 1e-2.
BENCH_LEVELS = 10

QR_QUADRATIC_TOL = 5e-4
QR_PAIR_TOL = 5e-3


@dataclass(frozen=True)
class BenchRow:
    width_a: float
    width_b: float
    qr_quadratic: float
    alpha_1: float
    alpha_2: float

    def quadratic_params(self) -> CycleParams:
        return replace(self.pair_params(), alpha_1=2.0, alpha_2=2.0)

    def pair_params(self) -> CycleParams:
        return CycleParams(
            width_a=self.width_a,
            width_b=self.width_b,
            alpha_1=self.alpha_1,
            alpha_2=self.alpha_2,
            t_hot=BENCH_T_HOT,
            t_cold=BENCH_T_COLD,
            mass=BENCH_MASS,
        )


BENCH_ROWS: tuple[BenchRow, ...] = (
    BenchRow(0.6, 0.9, -0.1291, 1.245, 1.282),
    BenchRow(0.6, 1.0, -0.1315, 1.279, 1.326),
    BenchRow(0.8, 1.1, -0.01223, 1.311, 1.409),
    BenchRow(0.8, 1.2, -0.01009, 1.382, 1.459),
    BenchRow(1.0, 1.3, 0.005565, 1.439, 1.520),
    BenchRow(1.0, 1.4, 0.008296, 1.502, 1.579),
    BenchRow(1.2, 1.5, 0.008021, 1.517, 1.621),
    BenchRow(1.2, 1.6, 0.01057, 1.565, 1.678),
    BenchRow(1.4, 1.7, 0.007634, 1.607, 1.719),
    BenchRow(1.4, 1.8, 0.009979, 1.660, 1.778),
)
