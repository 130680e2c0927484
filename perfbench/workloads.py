"""The benchmark's job mixes and the seeded inputs they receive.

Each workload is a fixed list of `nchodge` commands, written exactly as a
user types them after `nchodge`.  The only seeded parts are the idempotent
coefficients of the `chern` jobs and the job order; everything else is fixed,
so two seeds run the same work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

IDEMPOTENT_PLACEHOLDER = "{idempotent}"


@dataclass(frozen=True)
class Job:
    """One user command.

    `idempotent` names the basis labels of a seeded idempotent
    E11 + a*E12 (+ b*E13) for `chern` jobs: the first label gets 1, the
    others get seeded coefficients.  Such a matrix is idempotent for every
    choice of coefficients, so cost does not depend on the seed.
    """

    id: str
    args: tuple
    idempotent: tuple = ()

    @property
    def format(self) -> str:
        return self.args[self.args.index("--format") + 1] if "--format" in self.args else "json"

    def setup_args(self) -> tuple:
        """The fixed-cost command of this job: validate its algebra, or
        print the catalogue for jobs that take no algebra."""
        if "--algebra" not in self.args:
            return ("catalogue",)
        out = ["validate"]
        for flag, value in zip(self.args, self.args[1:]):
            if flag in ("--algebra", "--param", "--field"):
                out += [flag, value]
        return tuple(out)


def _job(id_: str, cmd: str, idempotent: tuple = ()) -> Job:
    return Job(id_, tuple(cmd.split()), idempotent)


WORKLOADS = {
    # Ungraded algebras: each chain length is one large block, so the work is
    # a few large eliminations.  Pivot rule, rank-only homology and torus
    # splitting act here; Q next to F_p shows the rational-arithmetic gap.
    "ungraded-elim": (
        _job("hh-mat2-Q", "hh --algebra mat --param m=2 --field Q --n-max 5"),
        _job("hh-mat2-F101", "hh --algebra mat --param m=2 --field F101 --n-max 5"),
        _job("hh-mat3-Q", "hh --algebra mat --param m=3 --field Q --n-max 2"),
        _job("degeneration-mat2-Q",
             "degeneration --algebra mat --param m=2 --field Q --n-max 6 --u-trunc 2"),
        _job("degeneration-mat2-F3",
             "degeneration --algebra mat --param m=2 --field F3 --n-max 6 --u-trunc 2"),
        _job("hp-a2_path-Q", "hp --algebra a2_path --field Q --n-max 8 --u-trunc 3"),
        _job("poisson-homology-so3", "poisson homology --bivector so3 --degree 8"),
        _job("graded-pieces-v3-n6-F3", "graded-pieces --dim-v 3 --n 6 --field F3"),
    ),
    # Connected-graded algebras on the folded per-weight path: many small
    # stacked eliminations, k[u]/u^N expansion in umodule, independent
    # weight blocks.
    "graded-cyclic": (
        _job("hc-poly_truncated-Q",
             "hc --algebra poly_truncated --param vars=2 --param max_weight=4 "
             "--field Q --n-max 8 --u-trunc 4"),
        _job("hp-truncated_poly-Q",
             "hp --algebra truncated_poly --param m=3 --field Q --n-max 10 --u-trunc 4"),
        _job("hc-quantum_plane-F5",
             "hc --algebra quantum_plane --param max_weight=4 --field F5 --n-max 8 --u-trunc 4"),
        _job("charp-compare-truncated_poly-F3",
             "charp-compare --algebra truncated_poly --param m=3 --field F3 "
             "--n-max 10 --u-trunc 4"),
        _job("degeneration-poly_truncated-Q",
             "degeneration --algebra poly_truncated --param vars=2 --param max_weight=4 "
             "--field Q --n-max 8 --u-trunc 4"),
    ),
    # No elimination at all: Chern chains with their (d + uB) certificates and
    # multi-megabyte reports, and the semiclassical identity checks in raw
    # Fraction arithmetic.  The bypass for every elimination change.
    "chains-forms": (
        _job("chern-mat3-u5",
             "chern --algebra mat --param m=3 --u-trunc 5 --idempotent " + IDEMPOTENT_PLACEHOLDER,
             ("E11*1", "E12*1", "E13*1")),
        _job("chern-mat2-u7-csv",
             "chern --algebra mat --param m=2 --u-trunc 7 --idempotent "
             + IDEMPOTENT_PLACEHOLDER + " --format csv",
             ("E11*1", "E12*1")),
        _job("poisson-jacobi-so3", "poisson jacobi --bivector so3 --degree 3"),
        _job("poisson-star-4", "poisson star --nvars 4 --degree 5"),
        _job("poisson-conjugation-so3", "poisson conjugation --bivector so3 --degree 7"),
    ),
}

# Seconds of --seconds that one pass uses up.  A run makes
# round(seconds / this) passes, at least two: 3 at --seconds 30, which take
# 20-30 s on the 2-CPU host in its fast state and 35-60 s in its slowest.
# The count depends only on --seconds, so it (and with it the sample that
# the tail percentile lands on) is the same in every state.
PASS_BUDGET_S = 10.0

# Coefficients are +-p/q for distinct p, q from this set: nonzero, never
# integral and of height at most 7, so report sizes barely vary by seed.
_COEFF_PRIMES = (2, 3, 5, 7)


def passes_for(seconds: float) -> int:
    return max(2, round(seconds / PASS_BUDGET_S))


def _coefficient(rng: random.Random) -> Fraction:
    p, q = rng.sample(_COEFF_PRIMES, 2)
    return Fraction(rng.choice((1, -1)) * p, q)


@dataclass(frozen=True)
class Instance:
    """A job with its seeded input resolved: the argv to run and, for
    `chern` jobs, the idempotent vector it was given (label -> Fraction)."""

    job: Job
    argv: tuple
    idempotent: dict


def instantiate(workload: str, seed: int, input_dir: Path) -> list[Instance]:
    """The workload's jobs in seeded order, with seeded idempotent files
    (`ncg-idempotent/1`) written into `input_dir`."""
    rng = random.Random(seed)
    out = []
    for job in WORKLOADS[workload]:
        vector = {}
        argv = job.args
        if job.idempotent:
            vector = {job.idempotent[0]: Fraction(1)}
            for label in job.idempotent[1:]:
                vector[label] = _coefficient(rng)
            path = input_dir / f"{job.id}.idempotent.json"
            path.write_text(json.dumps(
                {"format": "ncg-idempotent/1",
                 "vector": {k: f"{v.numerator}/{v.denominator}" for k, v in vector.items()}},
                sort_keys=True) + "\n", encoding="utf-8")
            argv = tuple(str(path) if a == IDEMPOTENT_PLACEHOLDER else a for a in argv)
        out.append(Instance(job, argv, vector))
    rng.shuffle(out)
    return out


def setup_commands(workload: str) -> list[tuple]:
    """Distinct fixed-cost commands of the workload's jobs, in job order."""
    seen = []
    for job in WORKLOADS[workload]:
        cmd = job.setup_args()
        if cmd not in seen:
            seen.append(cmd)
    return seen
