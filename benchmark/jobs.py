"""Workloads of the kinser benchmark: their input files and their jobs.

Every input file and every job is a ``kinser`` command line, run through
``kinser.cli.main``. Arguments hold ``{in}`` and ``{out}`` placeholders for
the input and output directories. Only ``n4_violators`` depends on the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("n4_clean", "n4_violators", "n5_generic", "build_io")

SPIKE_R = 6
RELAXED_PER_MATROID = 2   # k: even transversals relaxed in each drawn Z6
DRAWN_MATROIDS = 3        # relaxed Z6 jobs per n4_violators pass


@dataclass(frozen=True)
class Job:
    id: str                       # key of the golden outputs
    answer: str                   # key of the hand-written expected answer
    argv: tuple[str, ...]
    input: str | None = None      # input file read by the job
    outputs: tuple[str, ...] = ()  # files written to {out}


def _elements(mask: int) -> str:
    return ",".join(str(e) for e in range(mask.bit_length()) if mask >> e & 1)


def admissible_transversals() -> list[int]:
    """The even transversals of Z6 that contain a1 and a2 and are not A.

    Of the 32 even transversals these are the 7 whose relaxation is proven
    to violate inequality 4 through a family whose X1 is {a1, a2}, the
    third flat in mask order, so the search exits in its first rows and the
    G precompute dominates (see expected/answers.json). a_i is element
    i-1 and b_i is element r+i-1.
    """
    out = []
    for bits in range(1, 1 << (SPIKE_R - 2)):
        if bin(bits).count("1") % 2:
            continue
        z = 0b11
        for leg in range(2, SPIKE_R):
            b_side = bits >> (leg - 2) & 1
            z |= 1 << (SPIKE_R + leg if b_side else leg)
        out.append(z)
    return sorted(out)


def draw(seed: int) -> list[tuple[int, ...]]:
    """The seed's relaxed-Z6 draws: distinct k-sets of admissible transversals."""
    pool = list(itertools.combinations(admissible_transversals(), RELAXED_PER_MATROID))
    return random.Random(seed).sample(pool, DRAWN_MATROIDS)


def _relaxed_name(zs: tuple[int, ...]) -> str:
    return "z6-" + "-".join(f"{z:x}" for z in zs)


def inputs(workload: str, draws: list[tuple[int, ...]]) -> dict[str, tuple[str, ...]]:
    """Input file name -> the command that writes it, in creation order."""
    base = {
        "fano.txt": ("build", "fano"),
        "nonfano.txt": ("build", "nonfano"),
        "f7sum.txt": ("transform", "direct-sum", "-i", "{in}/fano.txt",
                      "--with", "{in}/nonfano.txt"),
        "z4.txt": ("build", "spike", "--r", "4"),
        "dowling-z3.txt": ("build", "dowling", "--group", "z3"),
        "vamos.txt": ("build", "kinser-relaxed", "--r", "4"),
        "kin6.txt": ("build", "kinser", "--r", "6"),
        "z6.txt": ("build", "spike", "--r", str(SPIKE_R)),
    }
    wanted = {
        "n4_clean": ["fano.txt", "nonfano.txt", "f7sum.txt", "z4.txt", "dowling-z3.txt"],
        "n4_violators": ["vamos.txt", "z6.txt"],
        "n5_generic": ["vamos.txt", "fano.txt", "nonfano.txt"],
        "build_io": ["kin6.txt"],
    }[workload]
    out = {name: base[name] for name in wanted}
    if workload == "n4_violators":
        for zs in draws:
            for i in range(1, len(zs) + 1):
                src = _relaxed_name(zs[:i - 1]) + ".txt" if i > 1 else "z6.txt"
                out[_relaxed_name(zs[:i]) + ".txt"] = (
                    "transform", "relax", "-i", "{in}/" + src, "--set", _elements(zs[i - 1]))
    return {name: argv + ("-o", "{in}/" + name) for name, argv in out.items()}


def _check(n: int, name: str, answer: str, cert: bool = False) -> Job:
    stem = name[:-len(".txt")]
    argv = ("check", "-n", str(n), "-i", "{in}/" + name)
    if cert:
        return Job(f"check{n}:{stem}", answer, argv + ("-o", "{out}/" + stem + ".cert"),
                   name, (stem + ".cert",))
    return Job(f"check{n}:{stem}", answer, argv, name)


def jobs(workload: str, draws: list[tuple[int, ...]]) -> list[Job]:
    """The jobs of one pass; ``draws`` (see draw()) is read by n4_violators only."""
    if workload == "n4_clean":
        return [_check(4, name, "check4:" + name[:-4])
                for name in ("f7sum.txt", "z4.txt", "fano.txt", "nonfano.txt",
                             "dowling-z3.txt")]
    if workload == "n4_violators":
        out = [_check(4, "vamos.txt", "check4:vamos", cert=True)]
        out += [_check(4, _relaxed_name(zs) + ".txt", "check4:z6-relaxed", cert=True)
                for zs in draws]
        return out
    if workload == "n5_generic":
        return [_check(5, name, "check5:" + name[:-4])
                for name in ("vamos.txt", "fano.txt", "nonfano.txt")]
    if workload == "build_io":
        return [
            Job("build:kinser6", "build:kinser6",
                ("build", "kinser", "--r", "6", "-o", "{out}/kin6.txt"), None, ("kin6.txt",)),
            Job("enumerate:kin6", "enumerate:kin6",
                ("enumerate", "--kind", "flats", "-i", "{in}/kin6.txt"), "kin6.txt"),
            Job("dual:kin6", "dual:kin6",
                ("transform", "dual", "-i", "{in}/kin6.txt", "-o", "{out}/kin6-dual.txt"),
                "kin6.txt", ("kin6-dual.txt",)),
            Job("build:spike8", "build:spike8",
                ("build", "spike", "--r", "8", "-o", "{out}/z8.txt"), None, ("z8.txt",)),
            Job("build:dowling-z3", "build:dowling-z3",
                ("build", "dowling", "--group", "z3", "-o", "{out}/dowling-z3.txt"),
                None, ("dowling-z3.txt",)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def make_inputs(cli_main, recipes: dict[str, tuple[str, ...]], in_dir) -> list[str]:
    """Write the input files through ``cli_main``; returns the names that failed."""
    failed = []
    for name, argv in recipes.items():
        if cli_main([a.format(**{"in": in_dir}) for a in argv]) != 0:
            failed.append(name)
    return failed
