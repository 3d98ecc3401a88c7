"""Drug-sized analog series for the mining workload.

A table holds three targets. Each target draws a few kinase-inhibitor-like
cores, and each core carries two substitution sites filled from one R-group
list (an empty R-group leaves the site bare). Activities are additive:
``pIC50 = base(target, core) + effect(target, site 1, R1) + effect(target,
site 2, R2) + noise``. Every compound has 20 to 37 heavy atoms.

Because the analogs are built from known parts, the benchmark knows a lower
bound on every same-core pair's common substructure: the core plus the
R-groups the two compounds share at the same site.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Cores are SMILES templates with two sites written ``{0}`` and ``{1}``; each
# becomes ``(<R-group>)`` or disappears when the site stays bare.
CORES = {
    "anilinoquinazoline": "Fc1ccc(Nc2ncnc3cc{1}c{0}cc23)cc1Cl",
    "pyrazolopyrimidine": "Nc1ncnc2n(C(C)C)nc(-c3ccc{0}c{1}c3)c12",
    "pyridinylpyrimidine": "Cc1ccc{0}cc1Nc1nccc(-c2cc{1}cnc2)n1",
    "thiazolecarboxamide": "Cc1cccc(Cl)c1NC(=O)c1cnc(Nc2cc{0}nc{1}n2)s1",
    "oxindole": "O=C1Nc2ccc{0}cc2C1=Cc1[nH]c(C)c{1}c1C",
    "purine": "CC(C)n1cnc2c(NCc3ccc{0}cc3)nc{1}nc21",
}

# Ring closures inside R-groups use %8x labels so they never collide with a
# ring the core still has open at the attachment point.
R_GROUPS = (
    "",
    "C",
    "CC",
    "C(C)C",
    "OC",
    "OCC",
    "F",
    "Cl",
    "Br",
    "C(F)(F)F",
    "OC(F)(F)F",
    "C#N",
    "N(C)C",
    "NC(C)=O",
    "C(N)=O",
    "C(=O)OC",
    "S(C)(=O)=O",
    "C%81CC%81",
    "N%81CCOCC%81",
    "N%81CCN(C)CC%81",
    "N%81CCCC%81",
    "OCCN%81CCOCC%81",
    "-c%81ccccc%81",
    "-c%81ccncc%81",
    "CN%81CCN(C)CC%81",
    "OCCOC",
    "CO",
)

MIN_ATOMS = 20
MAX_ATOMS = 37
TARGETS = ("KIN00", "KIN01", "KIN02")
NOISE_SD = 0.05  # measurement noise on each planted pIC50


def count_heavy_atoms(smiles: str) -> int:
    """Heavy atoms of a core or R-group fragment, counted from its text."""
    count = 0
    pos = 0
    while pos < len(smiles):
        c = smiles[pos]
        if c == "[":
            count += 1
            pos = smiles.index("]", pos) + 1
            continue
        if smiles.startswith(("Cl", "Br"), pos):
            count += 1
            pos += 2
            continue
        if c in "BCNOPSFIbcnops":
            count += 1
        pos += 1
    return count


def _site(r_group: str) -> str:
    return f"({r_group})" if r_group else ""


def build_smiles(core: str, r1: str, r2: str) -> str:
    return CORES[core].format(_site(r1), _site(r2))


@dataclass(frozen=True)
class Analog:
    compound_id: str
    target_id: str
    core: str
    r1: str
    r2: str
    smiles: str
    heavy_atoms: int
    pic50: float


@dataclass(frozen=True)
class AnalogTable:
    analogs: tuple[Analog, ...]

    def write_csv(self, path: str) -> None:
        """The package's compounds CSV layout, with IC50 in nanomolar."""
        lines = ["compound_id,target_id,smiles,ic50_nm"]
        for a in self.analogs:
            lines.append(f"{a.compound_id},{a.target_id},{a.smiles},{10.0 ** (9.0 - a.pic50)!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def core_lower_bound(a: Analog, b: Analog) -> int | None:
    """Atoms two same-core analogs certainly share: core plus equal R-groups."""
    if a.core != b.core:
        return None
    shared = count_heavy_atoms(CORES[a.core].format("", ""))
    if a.r1 == b.r1:
        shared += count_heavy_atoms(a.r1)
    if a.r2 == b.r2:
        shared += count_heavy_atoms(a.r2)
    return shared


# Analog slots of one core as (R1 tier, R2 tier); tier 0 is the bare site.
# The same slots come in an active and an inactive copy, so every core of
# every table has the same make-up of substituent sizes.
SLOTS = ((1, 0), (1, 2), (2, 0), (2, 1), (3, 0), (3, 1))


def r_group_tier(r_group: str) -> int:
    """0 for a bare site, then 1 (1-2 atoms), 2 (3-5 atoms), 3 (6-9 atoms)."""
    atoms = count_heavy_atoms(r_group)
    return 0 if atoms == 0 else 1 if atoms <= 2 else 2 if atoms <= 5 else 3


class _Cycle:
    """Endless draws from a pool, each pass through it in a fresh seeded order."""

    def __init__(self, pool: list[int], rng: np.random.Generator):
        self.pool = pool
        self.rng = rng
        self.queue: list[int] = []

    def next(self) -> int:
        if not self.queue:
            self.queue = [self.pool[k] for k in self.rng.permutation(len(self.pool))]
        return self.queue.pop()


def generate_table(seed: int) -> AnalogTable:
    """Three targets of analog series; a pure function of the seed.

    Every table uses all six cores, two per target, and every core gets
    the analog slots in ``SLOTS`` twice, so tables differ in which
    R-groups fill the slots but not in their sizes. The seed splits each
    size tier of the R-group list into an active and an inactive half,
    one of each pair of like-sized groups in each (site-1 effect +1.25 or
    -1.25 plus a per-target jitter within 0.1);
    one copy of the slots takes active R1 groups, the other inactive ones.
    Each slot walks through its pool in shuffled passes, so a table uses
    every R-group about equally often. Core bases lie within 0.2 of each
    other, so any two analogs of one target pass the 1.0 activity gate
    exactly when their R1 classes differ, and every table has the same
    number of candidates. A filled second site adds an effect within 0.1.
    """
    rng = np.random.default_rng(seed)
    core_names = sorted(CORES)
    order = rng.permutation(len(core_names))
    tiers = [r_group_tier(r) for r in R_GROUPS]
    active: set[int] = set()
    for tier in (1, 2, 3):
        # One group of each like-sized pair is active, so both classes hold
        # every size: the 18-atom core needs a 2-atom R1 to reach MIN_ATOMS.
        members = sorted((i for i, k in enumerate(tiers) if k == tier),
                         key=lambda i: (count_heavy_atoms(R_GROUPS[i]), i))
        for pair in zip(members[0::2], members[1::2]):
            active.add(pair[int(rng.integers(2))])
    site1 = {
        (tier, want): _Cycle([i for i, k in enumerate(tiers) if k == tier and (i in active) == want], rng)
        for tier in (1, 2, 3) for want in (True, False)
    }
    site2 = {tier: _Cycle([i for i, k in enumerate(tiers) if k == tier], rng) for tier in (0, 1, 2)}
    analogs: list[Analog] = []
    for t, target_id in enumerate(TARGETS):
        effect1 = rng.uniform(-0.1, 0.1, size=len(R_GROUPS))
        effect1 += np.array([1.25 if i in active else -1.25 for i in range(len(R_GROUPS))])
        effect2 = rng.uniform(-0.1, 0.1, size=len(R_GROUPS))
        effect2[0] = 0.0
        for c_idx in sorted(int(i) for i in order[2 * t : 2 * t + 2]):
            core = core_names[c_idx]
            base = float(rng.uniform(6.0, 6.2))
            seen: set[tuple[int, int]] = set()
            for want_active in (True, False):
                for tier1, tier2 in SLOTS:
                    while True:
                        i1 = site1[(tier1, want_active)].next()
                        i2 = site2[tier2].next()
                        smiles = build_smiles(core, R_GROUPS[i1], R_GROUPS[i2])
                        atoms = count_heavy_atoms(smiles)
                        if (i1, i2) not in seen and MIN_ATOMS <= atoms <= MAX_ATOMS:
                            break
                    seen.add((i1, i2))
                    noise = float(rng.normal(0.0, NOISE_SD))
                    analogs.append(
                        Analog(
                            compound_id=f"T{t}C{c_idx}A{len(seen) - 1:02d}",
                            target_id=target_id,
                            core=core,
                            r1=R_GROUPS[i1],
                            r2=R_GROUPS[i2],
                            smiles=smiles,
                            heavy_atoms=atoms,
                            pic50=base + float(effect1[i1]) + float(effect2[i2]) + noise,
                        )
                    )
    return AnalogTable(tuple(analogs))
