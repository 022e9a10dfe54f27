"""The benchmark's workloads: fixed lists of registry experiments.

A workload is a list of operations.  One operation is one
``sdelab.experiments.run(config, out=...)`` call, the path ``sdelab run``
takes: config, then ``execute``, then the CSV/JSON/manifest writes.  A
*pass* runs every operation of a workload once, in order; ``wall_s`` is
the time of one pass.

Sample sizes, noise levels and grid sizes are pinned here.  Step sizes
``h`` and censoring horizons stay at the registry defaults, so a change
that earns a larger default step shows up as time to a gated result.
``BENCHMARK.json`` and NOTES.md say why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Seed offset between the repeated eyring-kramers operations of one
# metastable-exit pass; larger than any seed range the benchmark is run
# with, so passes with nearby seeds share no operation.
SEED_STRIDE = 7919


@dataclass(frozen=True)
class Operation:
    experiment: str
    parameters: dict = field(default_factory=dict)
    # operation k of a workload runs at seed ``seed + SEED_STRIDE * seed_index``
    seed_index: int = 0

    @property
    def label(self) -> str:
        if self.seed_index:
            return f"{self.experiment}#{self.seed_index}"
        return self.experiment


@dataclass(frozen=True)
class Workload:
    name: str
    operations: tuple[Operation, ...]


# Eyring-Kramers transitions at eps = 0.5 with 100 paths.  A run's time is
# set by the slowest of its paths (a Gumbel-distributed maximum with about
# 22% relative spread per seed), so one pass averages eight independent
# seeds; see NOTES.md for why this replaces one 200-path run at eps = 0.25.
METASTABLE_REPEATS = 8

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "metastable-exit",
            tuple(Operation("eyring-kramers", {"n_paths": 100, "eps": 0.5}, k)
                  for k in range(METASTABLE_REPEATS)),
        ),
        Workload(
            "path-ensembles",
            (
                Operation("exit-ball-2d"),
                Operation("sample-paths", {"n_paths": 10000, "n_steps": 2000}),
                Operation("arcsine-law", {"n_paths": 40000}),
                Operation("ito-isometry", {"n_paths": 8192}),
                Operation("shell-hitting-3d"),
            ),
        ),
        Workload(
            "grid-solvers",
            (
                Operation("fp-stationarity", {"n_cells": 2400, "dt": 0.0025}),
                Operation("hm-ou-kernel", {"n_cells": 400}),
                Operation("birkhoff-jentzsch", {"n_cells": 200, "n_probe": 4000}),
                Operation("certificate-soundness", {"n_cells": 400}),
                Operation("ou-minimum-action", {"n_steps": 8000}),
                Operation("quasipotential-double-well", {"n_steps": 1600}),
            ),
        ),
    )
}
