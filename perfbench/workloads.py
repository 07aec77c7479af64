"""The benchmark's workloads: a fixed job list per workload, made from a seed.

Each job is one ``quasigw`` subcommand invocation, written as the argument
list a user would type (documented flags only; ``--threads`` is never
passed).  The seed only picks simulation seeds and jitters parameters
inside bands narrow enough that a job's cost stays steady; every job whose
output is compared against a stored reference keeps fixed parameters.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

LN2 = repr(math.log(2.0))

# One-line reasons, repeated in BENCHMARK.json.
WHY = {
    "far-long": "sigma=4, a=ln2 far from threshold: dense kernel build and its O(ell^2) memory dominate, kernel jobs spend time rendering",
    "near-threshold": "sigma=2 with sigma*e^-a just above 1: power-iteration and fixed-point solver iterations dominate, including extinction solves that exhaust their budget",
    "replicas": "small to moderate ell with many random draws: per-cell Poisson splitting and the per-replica loop dominate; kernel builds are cheap",
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``argv`` excludes ``--out``, which the runner adds."""

    name: str
    argv: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def fmt(self) -> str:
        a = self.argv
        return a[a.index("--format") + 1] if "--format" in a else "csv"

    def opt(self, flag: str, default: str | None = None) -> str | None:
        a = self.argv
        return a[a.index(flag) + 1] if flag in a else default


def _far_long(rng: random.Random) -> list[Job]:
    model = ("--sigma", "4", "--a", LN2)
    jobs = [Job(f"perron-ell{ell}", ("perron", "--ell", str(ell), *model))
            for ell in (100, 1000, 2000, 5000)]
    jobs.append(Job("converge", ("converge", *model, "--ell-grid", "100,300,1000")))
    # Rendering cost grows like ell^2; +-5 around 300 moves it by ~3%.
    jobs.append(Job("kernel-csv", ("kernel", "--ell", str(rng.randint(295, 305)), *model)))
    jobs.append(Job("kernel-json", ("kernel", "--ell", str(rng.randint(295, 305)), *model,
                                    "--format", "json")))
    jobs.append(Job("quasispecies", ("quasispecies", "--sigma", "4", "--a", LN2,
                                     "--kmax", "30")))
    return jobs


def _near_threshold(rng: random.Random) -> list[Job]:
    # Solver cost scales like 1 / (sigma e^-a - 1), so no parameter is
    # jittered here: a seed-to-seed change in a would change the cost.
    model = ("--sigma", "2", "--a", "0.69")
    jobs = [Job(f"perron-ell{ell}", ("perron", "--ell", str(ell), *model))
            for ell in (100, 300, 1000)]
    jobs.append(Job("converge", ("converge", *model, "--ell-grid", "100,300,1000")))
    jobs.append(Job("quasispecies", ("quasispecies", "--sigma", "2", "--a", "0.6931",
                                     "--kmax", "30")))
    jobs += [Job(f"extinction-ell{ell}", ("extinction", "--ell", str(ell), *model))
             for ell in (20, 100)]
    # Documented failing case; it stays so the defect shows in the failure count.
    jobs.append(Job("extinction-ell200-a0.1",
                    ("extinction", "--sigma", "2", "--ell", "200", "--a", "0.1")))
    return jobs


def _replicas(rng: random.Random) -> list[Job]:
    model = ("--sigma", "4", "--a", LN2)

    def seed() -> str:
        return str(rng.randrange(2**31))

    jobs = [
        Job(f"frequencies-ell{ell}",
            ("simulate", "--ell", str(ell), *model, "--mode", "frequencies",
             "--n-gens", "12", "--n-replicas", str(replicas), "--seed", seed()))
        for ell, replicas in ((50, 200), (200, 400))
    ]
    jobs += [
        Job(f"trajectory-ell{ell}",
            ("simulate", "--ell", str(ell), *model, "--mode", "trajectory",
             "--z0", "0:1000", "--seed", seed()))
        for ell in (200, 1000)
    ]
    jobs.append(Job("extinction-mc-ell2",
                    ("extinction", "--sigma", "2", "--ell", "2", "--q", "0.1",
                     "--mc", "4000", "--seed", seed())))
    jobs.append(Job("extinction-mc-ell10",
                    ("extinction", "--ell", "10", *model, "--mc", "4000", "--seed", seed())))
    return jobs


_BUILDERS = {
    "far-long": _far_long,
    "near-threshold": _near_threshold,
    "replicas": _replicas,
}

NAMES = tuple(_BUILDERS)

# Passes whose job latencies make the fixed latency sample of a run: with
# the same sample size on every run and commit, the tail percentile is the
# same too.  A run makes at least this many passes, then more until its
# time is up; those only add to the wall-time median.
LATENCY_PASSES = {"far-long": 3, "near-threshold": 3, "replicas": 11}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of ``workload`` for ``seed``; the same seed gives the same list."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(NAMES)}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
