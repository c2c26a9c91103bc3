"""Job lists of the three benchmark workloads, built from a workload seed.

A job is one `spongedim` command line.  Its argv is kept as a template so
that the same job has the same key on every machine:

* ``@name`` stands for the sample spec ``sample_specs/<name>.json``;
* ``{tmp}/file`` stands for a file in the run's scratch directory.

The seed draws the scan ``--seed`` values, the random weight vectors and the
job order.  It never changes which kinds of job a workload holds, so every
seed gives the same job mix.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 1

SPECS = ("sponge_234", "carpet_24", "carpet_vssc_34")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output must satisfy for any seed."""

    argv: tuple[str, ...]
    # files the job writes into the scratch directory
    outputs: tuple[str, ...] = ()
    # invariants checked on every seed: see check.invariant_problems
    expect: tuple[tuple[str, object], ...] = ()

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def resolve(self, root: Path, tmp: Path) -> list[str]:
        out = []
        for arg in self.argv:
            if arg.startswith("@"):
                arg = str(root / "sample_specs" / f"{arg[1:]}.json")
            out.append(arg.replace("{tmp}", str(tmp)))
        return out


def _scan_seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


def scan_jobs(seed: int) -> list[Job]:
    """Cube-mass sandwich scans, shallow and deep, plus ball-mass scans.

    The depth-40 scans with 1000 samples are the traffic of the cube
    sandwich criterion, the depth-8 ball scan with 200 samples that of the
    separated ball scaling criterion.  Depth 300 pushes the sponge_234 words
    past the exact-factor budget, so the exact and the log-only cube masses
    both run.  Deeper sponge_234 scans overflow ``math.exp`` at the seed
    commit (about depth 365 and up), which is why the deep scans stop at 300.

    The sample counts put four jobs under 0.3 s and four over 0.6 s, so the
    median job time falls between the two groups (see README.md).
    """
    rng = random.Random(seed)
    uniform = (("violation_count", 0), ("coordinate_uniform_measure", True))
    jobs = [
        Job(("scan", f"@{spec}", "--samples", samples, "--seed", _scan_seed(rng),
             *depth), expect=uniform)
        for samples, depth in (("1000", ()), ("20", ("--depth", "300")))
        for spec in SPECS
    ]
    jobs += [
        Job(("ball-scan", "@carpet_vssc_34", "--samples", samples,
             "--seed", _scan_seed(rng), "--depth", depth), expect=uniform)
        for samples, depth in (("200", "8"), ("600", "12"))
    ]
    rng.shuffle(jobs)
    return jobs


def _tangent(spec: str, denominator: int, mode: str, level: int,
             emit: str | None = None) -> Job:
    emit_args = ("--emit-boxes", "{tmp}/" + emit) if emit else ()
    return Job(
        ("tangent", f"@{spec}", "--scale", f"1/{denominator}", "--mode", mode,
         "--level", str(level), *emit_args),
        outputs=(emit,) if emit else (),
        expect=(("ok", True),),
    )


def _render(spec: str, level: int, suffix: str) -> Job:
    digits = {"sponge_234": 10, "carpet_24": 3, "carpet_vssc_34": 2}[spec]
    out = f"{spec}_l{level}.{suffix}"
    return Job(
        ("render", f"@{spec}", "--level", str(level), "--out", "{tmp}/" + out),
        outputs=(out,),
        expect=(("boxes", digits**level),),
    )


def covers_jobs(seed: int) -> list[Job]:
    """Tangent covers and pre-fractal exports: enumeration, no measure work.

    The sponge_234 max-mode tangents at scales 1/16, 1/64 and 1/256 and
    level k_1 + 2 are the traffic of the tangent convergence criterion
    (10^3 to 10^5 boxes); they run again in min mode.  carpet_24 takes the
    same scales, levels and modes with small covers, plus one job that
    writes its cover with ``--emit-boxes``.  The renders span 1.6 * 10^4 to
    10^5 boxes, so a change in how boxes are stored shows in peak memory.
    """
    rng = random.Random(seed)
    jobs = [_tangent(spec, 2**k1, mode, k1 + 2)
            for spec in ("sponge_234", "carpet_24")
            for mode in ("max", "min")
            for k1 in (4, 6, 8)]
    jobs.append(_tangent("carpet_24", 64, "max", 8, emit="tangent_boxes.csv"))
    jobs += [_render("sponge_234", 5, "csv"), _render("carpet_24", 10, "svg"),
             _render("carpet_vssc_34", 14, "svg")]
    rng.shuffle(jobs)
    return jobs


NON_DOUBLING = (("verdict", "NonDoublingCertificate"),)
DOUBLING = (("verdict", "DoublingUpToDepth"),)


def _doubling(spec: str, weights: str, depth: int,
              expect: tuple[tuple[str, object], ...] = ()) -> Job:
    return Job(
        ("doubling", f"@{spec}", "--measure", "{tmp}/" + weights,
         "--max-depth", str(depth)),
        expect=expect,
    )


def doubling_jobs(seed: int) -> list[Job]:
    """Adjacent-cube ratio growth: many measures, each read shallowly.

    The grid sweeps build 21 and 36 measures (the 1/8 sweep to depth 11 is
    the non-doubling criterion's); the single-measure runs range from the
    4 * 10^5 cubes of sponge_234 at depth 8 to carpet_vssc_34 at depth 12,
    which has no adjacent pairs at all (the separated ball scaling
    criterion).  carpet_24 also runs to depth 11, as in the non-doubling
    criterion.  That run and the carpet_vssc_34 one run on the uniform and
    on the seeded random weight vector, which puts four jobs under 0.2 s
    and four over 0.4 s, so the median job time falls between the two
    groups (see README.md).
    """
    rng = random.Random(seed)
    grid = (("all_non_doubling", True),)
    rand = f"random_{seed}"
    jobs = [
        Job(("doubling", "@carpet_24", "--grid", "1/8", "--max-depth", "11"), expect=grid),
        Job(("doubling", "@carpet_24", "--grid", "1/10", "--max-depth", "10"), expect=grid),
        _doubling("sponge_234", "sponge_234_uniform.json", 8),
        _doubling("carpet_24", "carpet_24_uniform.json", 13, NON_DOUBLING),
    ]
    for weights in ("uniform", rand):
        jobs += [
            _doubling("carpet_24", f"carpet_24_{weights}.json", 11, NON_DOUBLING),
            _doubling("carpet_vssc_34", f"carpet_vssc_34_{weights}.json", 12, DOUBLING),
        ]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"scan": scan_jobs, "covers": covers_jobs, "doubling": doubling_jobs}


def write_weight_files(workload: str, seed: int, root: Path, tmp: Path) -> None:
    """Weight files the doubling jobs read: per spec a uniform and a random one.

    The uniform vectors come from the program's own serializer; the random
    vector is positive integers drawn from the seed, normalised to sum to one.
    """
    if workload != "doubling":
        return
    from spongedim.measure import coordinate_uniform, weights_to_json
    from spongedim.model import load_sponge

    rng = random.Random(seed)
    for spec in SPECS:
        s = load_sponge(str(root / "sample_specs" / f"{spec}.json"))
        (tmp / f"{spec}_uniform.json").write_text(
            weights_to_json(coordinate_uniform(s)), encoding="utf-8")
        ints = [rng.randint(1, 20) for _ in s.digits]
        total = sum(ints)
        doc = {
            ",".join(str(e) for e in t): str(Fraction(a, total))
            for t, a in zip(sorted(s.digits), ints)
        }
        (tmp / f"{spec}_random_{seed}.json").write_text(json.dumps(doc), encoding="utf-8")


def setup(workload: str, seed: int, root: Path, tmp: Path) -> list[Job]:
    """Everything a run does before its first job: import, inputs, job list."""
    import spongedim.cli  # noqa: F401  (the import is part of set-up)

    write_weight_files(workload, seed, root, tmp)
    return WORKLOADS[workload](seed)
