"""The benchmark's refinement ladders.

Each workload is one `ProblemSpec` solved over a fixed number of levels by
`polyvem.study.run_study`.  Why each ladder exists, and which layer it
stresses or bypasses, is written down in README.md beside this file.

This module imports only the standard library, so the launcher and the
correctness gate can use the table without importing numpy or polyvem.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    spec_args: dict = field(hash=False)
    levels: int = 4
    # True when the mesh depends on the seed (Voronoi); the squares ladder
    # is the same for every seed.
    seeded: bool = True
    # Acceptance band: the e1 rate between the two finest levels must reach it.
    min_last_rate_e1: float = 0.0
    # Every run makes at least this many studies, and the study timings are
    # taken over exactly these first ones, so the sample count does not
    # depend on how fast the program is.
    timed_studies: int = 1

    def spec(self, seed: int):
        from polyvem.study import ProblemSpec

        return ProblemSpec(**self.spec_args, rng_seed=seed if self.seeded else 0)

    def reference_seed_matches(self, seed: int, reference_seed: int) -> bool:
        return seed == reference_seed or not self.seeded


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "voronoi-k4-multiplier",
            dict(problem="test1-2d", k=4, method="bh", alpha=1e-3, mesh="voronoi"),
            # at four levels the 256 -> 1024-cell rate is still pre-asymptotic
            # at k=4 and misses its band on some seeds (3.74 on seed 1001)
            levels=5,
            min_last_rate_e1=4 - 0.2,
        ),
        Workload(
            "squares-k2-corrected",
            dict(problem="quarter-disk", k=2, method="nitsche", gamma=1000.0,
                 mesh="squares", correction=True, kstar="auto",
                 sigma="distance-gradient"),
            seeded=False,
            min_last_rate_e1=1.8,
            # 8-12 s a study, so three fit in a 40 s run even when slowed
            timed_studies=3,
        ),
    )
}
