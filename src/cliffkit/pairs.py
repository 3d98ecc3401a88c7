"""Cliff pair construction: common substructure search, filtering, splits.

A cliff pair is two compounds measured against the same target whose
maximum common substructure covers at least a configured fraction of
both molecules while their activities differ by at least a configured
number of log units. The common substructure search is exact (connected
induced common subgraph, maximum cardinality) with a step budget that
degrades gracefully to best-so-far on pathological inputs. It is bounded
by atom label classes: the mapping can grow by at most, summed over
labels, the smaller of the free atom counts of that label on either side.

Also home to the synthetic benchmark generator: scaffolds decorated at
a fixed site with planted additive effects, so downstream numbers have
a known ground truth.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .molgraph import MolecularGraph, parse_smiles

PAIR_SCHEMA = "cliffpair/1"


@dataclass(frozen=True)
class McsResult:
    """Maximum common connected induced substructure of two graphs.

    ``mapping`` pairs atom indices (g1, g2), sorted by the g1 index.
    Among all maximum mappings the lexicographically smallest pair
    sequence is returned, so results are reproducible. ``truncated``
    marks searches that hit the step budget and may be undersized.
    ``steps`` counts the search's backtracking steps; it is a diagnostic
    and takes no part in equality.
    """

    mapping: tuple[tuple[int, int], ...]
    size: int
    fraction_1: float
    fraction_2: float
    truncated: bool = False
    steps: int = field(default=0, compare=False)

    @property
    def fraction(self) -> float:
        """Coverage of the larger molecule, the conservative overlap measure."""
        return min(self.fraction_1, self.fraction_2)


class _McsSearch:
    """Branch and bound over connected common induced subgraph mappings.

    A mapping grows along g1's bonds from a root atom. At each step the
    lowest unmapped, unbanned g1 neighbour ``a`` of the mapping is mapped
    to each fitting g2 atom in ascending order, then banned. The fitting
    atoms are the unused same-label neighbours of the image of one mapped
    neighbour of ``a``, and a check visits only ``a``'s bonds, so a step
    costs the atoms' degrees, not the mapping's size. A branch is cut when
    the mapping plus, per atom label, the smaller of the free g1 and unused
    g2 counts cannot reach the best size found: McSplit's label-class bound
    (McCreesh, Prosser & Trimble, IJCAI 2017). Atom sets are int bitsets.
    """

    def __init__(self, g1: MolecularGraph, g2: MolecularGraph, budget: int):
        self.g1 = g1
        self.g2 = g2
        self.budget = budget
        self.truncated = False
        self.best: list[tuple[int, int]] = []
        labels: dict[tuple[str, bool], int] = {}
        self.label1 = [labels.setdefault((x.element, x.aromatic), len(labels)) for x in g1.atoms]
        self.label2 = [labels.setdefault((x.element, x.aromatic), len(labels)) for x in g2.atoms]
        self.bonds1: list[list[tuple[int, str]]] = [[] for _ in g1.atoms]
        self.neighbors1 = [0] * g1.num_atoms
        for b in g1.bonds:
            self.bonds1[b.i].append((b.j, b.order))
            self.bonds1[b.j].append((b.i, b.order))
            self.neighbors1[b.i] |= 1 << b.j
            self.neighbors1[b.j] |= 1 << b.i
        self.bonds2: list[dict[int, str]] = [{} for _ in g2.atoms]
        self.neighbors2 = [0] * g2.num_atoms
        for b in g2.bonds:
            self.bonds2[b.i][b.j] = b.order
            self.bonds2[b.j][b.i] = b.order
            self.neighbors2[b.i] |= 1 << b.j
            self.neighbors2[b.j] |= 1 << b.i
        self.with_label2 = [0] * len(labels)
        for j, lab in enumerate(self.label2):
            self.with_label2[lab] |= 1 << j
        self.image = [-1] * g1.num_atoms  # g2 atom mapped to each g1 atom, -1 if none
        self.mapped: list[int] = []  # g1 atoms in the mapping
        # Free (unmapped, unbanned) g1 and unused g2 atoms per label, and
        # the bound's sum over labels of the smaller of the two.
        self.free1 = [0] * len(labels)
        self.free2 = [0] * len(labels)
        for lab in self.label1:
            self.free1[lab] += 1
        for lab in self.label2:
            self.free2[lab] += 1
        self.slack = sum(map(min, self.free1, self.free2))

    def _map(self, a: int, b: int) -> None:
        # Both counts of one label fall by one, so the slack falls by one.
        self.image[a] = b
        self.mapped.append(a)
        self.free1[self.label1[a]] -= 1
        self.free2[self.label2[b]] -= 1
        self.slack -= 1

    def _unmap(self, a: int, b: int) -> None:
        self.image[a] = -1
        self.mapped.pop()
        self.free1[self.label1[a]] += 1
        self.free2[self.label2[b]] += 1
        self.slack += 1

    def _ban(self, a: int) -> None:
        lab = self.label1[a]
        if self.free1[lab] <= self.free2[lab]:
            self.slack -= 1
        self.free1[lab] -= 1

    def _unban(self, a: int) -> None:
        lab = self.label1[a]
        self.free1[lab] += 1
        if self.free1[lab] <= self.free2[lab]:
            self.slack += 1

    def _consider(self) -> None:
        if len(self.mapped) < len(self.best):
            return
        candidate = sorted((a, self.image[a]) for a in self.mapped)
        if len(candidate) > len(self.best) or candidate < self.best:
            self.best = candidate

    def _extend(self, frontier: int, closed: int, used: int) -> None:
        """``frontier``: unmapped, unbanned g1 neighbours of the mapping;
        ``closed``: mapped or banned g1 atoms; ``used``: mapped g2 atoms."""
        if self.budget <= 0:
            self.truncated = True
            return
        self.budget -= 1
        self._consider()
        if not frontier:
            return
        if len(self.mapped) + self.slack < len(self.best):
            return
        bit = frontier & -frontier
        a = bit.bit_length() - 1
        closed |= bit
        # A fitting b has bonds of the same orders to the images of a's
        # mapped neighbours and no bond to any other used atom.
        links = [(self.image[y], order) for y, order in self.bonds1[a] if self.image[y] >= 0]
        want = 0
        for yb, _ in links:
            want |= 1 << yb
        grown = (frontier | self.neighbors1[a]) & ~closed
        fits = self.neighbors2[links[0][0]] & self.with_label2[self.label1[a]] & ~used
        while fits:
            low = fits & -fits
            fits ^= low
            b = low.bit_length() - 1
            if self.neighbors2[b] & used != want:
                continue
            bonds = self.bonds2[b]
            if any(bonds[yb] != order for yb, order in links):
                continue
            self._map(a, b)
            self._extend(grown, closed, used | low)
            self._unmap(a, b)
            if self.truncated:
                return
        self._ban(a)
        self._extend(frontier ^ bit, closed, used)
        self._unban(a)

    def run(self) -> McsResult:
        n1 = self.g1.num_atoms
        budget = self.budget
        for start in range(n1):
            # Mappings rooted here have size <= n1 - start and are lex-greater
            # than any equal-sized mapping already found at an earlier start.
            if self.best and n1 - start <= len(self.best):
                break
            closed = (2 << start) - 1  # earlier roots stay banned
            frontier = self.neighbors1[start] & ~closed
            for b in range(self.g2.num_atoms):
                if self.label2[b] != self.label1[start]:
                    continue
                self._map(start, b)
                self._extend(frontier, closed, 1 << b)
                self._unmap(start, b)
                if self.truncated:
                    break
            if self.truncated:
                break
            self._ban(start)
        mapping = tuple(self.best)
        size = len(mapping)
        return McsResult(
            mapping=mapping,
            size=size,
            fraction_1=size / n1,
            fraction_2=size / self.g2.num_atoms,
            truncated=self.truncated,
            steps=budget - self.budget,
        )


def max_common_substructure(
    g1: MolecularGraph, g2: MolecularGraph, node_budget: int = 200_000
) -> McsResult:
    """Exact maximum common connected induced substructure.

    Atoms are compatible when element and aromatic flag agree; bonds
    when their order agrees. The mapped subgraph is edge-consistent in
    both directions and connected. ``node_budget`` caps backtracking
    steps; an exhausted budget returns the best mapping found so far
    with ``truncated=True``.
    """
    if node_budget < 1:
        raise ValueError("node_budget must be positive")
    return _McsSearch(g1, g2, node_budget).run()


@dataclass(frozen=True)
class CompoundRecord:
    """One measured compound: identity, structure, and activity in pIC50."""

    compound_id: str
    target_id: str
    smiles: str
    graph: MolecularGraph
    pic50: float


@dataclass(frozen=True)
class PairGenConfig:
    min_mcs_fraction: float = 0.5
    min_activity_delta: float = 1.0
    min_pairs_per_target: int = 50
    mcs_node_budget: int = 200_000

    def __post_init__(self):
        if not 0.0 < self.min_mcs_fraction <= 1.0:
            raise ValueError("min_mcs_fraction must lie in (0, 1]")
        if self.min_activity_delta < 0:
            raise ValueError("min_activity_delta must be non-negative")
        if self.min_pairs_per_target < 1:
            raise ValueError("min_pairs_per_target must be positive")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CliffPair:
    """A matched pair with masks marking the shared substructure on each side."""

    pair_id: str
    target_id: str
    compound_i: str
    compound_j: str
    smiles_i: str
    smiles_j: str
    graph_i: MolecularGraph = field(compare=False)
    graph_j: MolecularGraph = field(compare=False)
    y_i: float = 0.0
    y_j: float = 0.0
    mcs_fraction: float = 0.0
    mapping: tuple[tuple[int, int], ...] = ()
    common_mask_i: np.ndarray = field(compare=False, default=None)
    common_mask_j: np.ndarray = field(compare=False, default=None)
    mcs_truncated: bool = False

    @property
    def uncommon_mask_i(self) -> np.ndarray:
        return ~self.common_mask_i

    @property
    def uncommon_mask_j(self) -> np.ndarray:
        return ~self.common_mask_j

    @property
    def delta(self) -> float:
        return abs(self.y_i - self.y_j)


def _mapping_masks(
    g1: MolecularGraph, g2: MolecularGraph, mapping: tuple[tuple[int, int], ...]
) -> tuple[np.ndarray, np.ndarray]:
    mask1 = np.zeros(g1.num_atoms, dtype=bool)
    mask2 = np.zeros(g2.num_atoms, dtype=bool)
    for a, b in mapping:
        mask1[a] = True
        mask2[b] = True
    return mask1, mask2


def build_pair(
    rec_i: CompoundRecord, rec_j: CompoundRecord, mcs: McsResult
) -> CliffPair:
    """Assemble a :class:`CliffPair`; the lower compound id takes the i slot."""
    if rec_i.compound_id > rec_j.compound_id:
        raise ValueError("compound records must arrive ordered by id")
    mask_i, mask_j = _mapping_masks(rec_i.graph, rec_j.graph, mcs.mapping)
    return CliffPair(
        pair_id=f"{rec_i.target_id}:{rec_i.compound_id}|{rec_j.compound_id}",
        target_id=rec_i.target_id,
        compound_i=rec_i.compound_id,
        compound_j=rec_j.compound_id,
        smiles_i=rec_i.smiles,
        smiles_j=rec_j.smiles,
        graph_i=rec_i.graph,
        graph_j=rec_j.graph,
        y_i=rec_i.pic50,
        y_j=rec_j.pic50,
        mcs_fraction=mcs.fraction,
        mapping=mcs.mapping,
        common_mask_i=mask_i,
        common_mask_j=mask_j,
        mcs_truncated=mcs.truncated,
    )


def _pair_candidates(compounds: list[CompoundRecord], config: PairGenConfig):
    by_target: dict[str, list[CompoundRecord]] = {}
    for rec in compounds:
        by_target.setdefault(rec.target_id, []).append(rec)
    for target_id in sorted(by_target):
        records = sorted(by_target[target_id], key=lambda r: r.compound_id)
        for a in range(len(records)):
            for b in range(a + 1, len(records)):
                if abs(records[a].pic50 - records[b].pic50) < config.min_activity_delta:
                    continue
                yield records[a], records[b]


def generate_cliff_pairs(
    compounds: list[CompoundRecord], config: PairGenConfig = PairGenConfig()
) -> list[CliffPair]:
    """All qualifying pairs within each target, in deterministic order.

    The activity gate runs before the substructure search. Targets that
    end up with fewer than ``min_pairs_per_target`` surviving pairs are
    dropped entirely. Output order is (target_id, pair_id) ascending.
    """
    by_target: dict[str, list[CliffPair]] = {}
    for rec_i, rec_j in _pair_candidates(compounds, config):
        mcs = max_common_substructure(rec_i.graph, rec_j.graph, config.mcs_node_budget)
        if mcs.fraction >= config.min_mcs_fraction:
            by_target.setdefault(rec_i.target_id, []).append(build_pair(rec_i, rec_j, mcs))
    kept: list[CliffPair] = []
    for target_id in sorted(by_target):
        pairs = by_target[target_id]
        if len(pairs) >= config.min_pairs_per_target:
            kept.extend(sorted(pairs, key=lambda p: p.pair_id))
    return kept


def filter_by_threshold(pairs: list[CliffPair], threshold: float) -> list[CliffPair]:
    """Pairs whose substructure overlap reaches the threshold, order preserved."""
    return [p for p in pairs if p.mcs_fraction >= threshold]


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[CliffPair, ...]
    validation: tuple[CliffPair, ...]
    test: tuple[CliffPair, ...]

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (len(self.train), len(self.validation), len(self.test))


def split_pairs(
    pairs: list[CliffPair],
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
    seed: int = 0,
) -> DatasetSplit:
    """Per-target shuffled split at cumulative-floor cut points.

    Within each target the pairs are shuffled with the seeded generator
    and cut at ``floor(cum_ratio * n)`` (with a 1e-9 guard against float
    dust), so for 1377 pairs and 70/10/20 the slice sizes are
    (963, 138, 276). Slices are concatenated across targets in sorted
    target order.
    """
    if len(pairs) < 10:
        raise ValueError(f"need at least 10 pairs to split, got {len(pairs)}")
    if len(ratios) != 3 or any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must be three positive numbers summing to 1, got {ratios}")
    by_target: dict[str, list[CliffPair]] = {}
    for p in pairs:
        by_target.setdefault(p.target_id, []).append(p)
    rng = np.random.default_rng(seed)
    train: list[CliffPair] = []
    val: list[CliffPair] = []
    test: list[CliffPair] = []
    for target_id in sorted(by_target):
        bucket = sorted(by_target[target_id], key=lambda p: p.pair_id)
        n = len(bucket)
        if n < 3:
            raise ValueError(f"target {target_id} has only {n} pairs; need at least 3")
        order = rng.permutation(n)
        shuffled = [bucket[k] for k in order]
        cut1 = math.floor(ratios[0] * n + 1e-9)
        cut2 = math.floor((ratios[0] + ratios[1]) * n + 1e-9)
        train.extend(shuffled[:cut1])
        val.extend(shuffled[cut1:cut2])
        test.extend(shuffled[cut2:])
    return DatasetSplit(tuple(train), tuple(val), tuple(test))


# ---------------------------------------------------------------------------
# Synthetic benchmark generation

# Every template carries the decoration site on the same saturated stem;
# the ring that distinguishes scaffolds sits more than three bonds from
# every decoration atom, outside the model's message-passing radius.
_SCAFFOLD_TEMPLATES = (
    "c1ccccc1CCC({})C",
    "C1CCCCC1CCC({})C",
    "c1ccncc1CCC({})C",
    "c1ccsc1CCC({})C",
    "C1CCOCC1CCC({})C",
    "c1ccoc1CCC({})C",
    "C1CCCC1CCC({})C",
    "C1CCSC1CCC({})C",
)

_DECORATION_ATOMS = ("C", "N", "O", "S", "F", "Cl", "Br", "I")
_DECORATION_CHAIN = ("C", "N", "O", "S")

# Planted pIC50 parts: a uniform base per scaffold, a uniform effect per decoration.
_BASE_RANGE = (4.5, 7.5)
_EFFECT_RANGE = (-2.0, 2.0)


def decoration_library(count: int) -> list[str]:
    """First ``count`` fragments from the deterministic decoration enumeration."""
    frags = list(_DECORATION_ATOMS)
    frags += [a + b for a in _DECORATION_CHAIN for b in _DECORATION_CHAIN]
    frags += [a + b + c for a in _DECORATION_CHAIN for b in _DECORATION_CHAIN for c in _DECORATION_CHAIN]
    if count > len(frags):
        raise ValueError(f"decoration library holds {len(frags)} fragments, {count} requested")
    return frags[:count]


@dataclass(frozen=True)
class SyntheticConfig:
    n_scaffolds: int = 1
    n_decorations: int = 60
    noise_sd: float = 0.1
    seed: int = 0
    scaffolds_per_target: int = 1

    def __post_init__(self):
        if not 1 <= self.n_scaffolds <= len(_SCAFFOLD_TEMPLATES):
            raise ValueError(f"n_scaffolds must be in 1..{len(_SCAFFOLD_TEMPLATES)}")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be non-negative")
        if self.scaffolds_per_target < 1:
            raise ValueError("scaffolds_per_target must be at least 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PlantedEffect:
    base: float
    effect: float
    noise: float

    @property
    def pic50(self) -> float:
        return self.base + self.effect + self.noise


@dataclass(frozen=True)
class SyntheticDataset:
    compounds: tuple[CompoundRecord, ...]
    planted: dict[str, PlantedEffect]
    config: SyntheticConfig


def generate_synthetic_dataset(config: SyntheticConfig = SyntheticConfig()) -> SyntheticDataset:
    """Scaffold-plus-decoration compounds with additive planted activities.

    Consecutive runs of ``scaffolds_per_target`` scaffolds share one
    synthetic target (one scaffold per target by default); every
    decoration from the library is attached at the scaffold's fixed
    site. pIC50 is ``base(scaffold) + effect(decoration) + N(0,
    noise_sd)``, with all draws taken in a fixed order from one seeded
    generator, so the whole dataset is a pure function of the config.
    """
    rng = np.random.default_rng(config.seed)
    decorations = decoration_library(config.n_decorations)
    bases = rng.uniform(*_BASE_RANGE, size=config.n_scaffolds)
    effects = rng.uniform(*_EFFECT_RANGE, size=len(decorations))
    compounds: list[CompoundRecord] = []
    planted: dict[str, PlantedEffect] = {}
    for s in range(config.n_scaffolds):
        template = _SCAFFOLD_TEMPLATES[s]
        target_id = f"SYN{s // config.scaffolds_per_target:02d}"
        for d, frag in enumerate(decorations):
            noise = float(rng.normal(0.0, config.noise_sd)) if config.noise_sd > 0 else 0.0
            record_id = f"S{s:02d}D{d:03d}"
            smiles = template.format(frag)
            effect = PlantedEffect(float(bases[s]), float(effects[d]), noise)
            compounds.append(
                CompoundRecord(
                    compound_id=record_id,
                    target_id=target_id,
                    smiles=smiles,
                    graph=parse_smiles(smiles),
                    pic50=effect.pic50,
                )
            )
            planted[record_id] = effect
    return SyntheticDataset(tuple(compounds), planted, config)


# ---------------------------------------------------------------------------
# File formats (documented in docs/formats.md)

CSV_HEADER = ["compound_id", "target_id", "smiles", "ic50_nm"]


def pic50_from_ic50_nm(ic50_nm: float) -> float:
    """pIC50 = -log10 of the molar concentration; input is nanomolar."""
    if not ic50_nm > 0 or not math.isfinite(ic50_nm):
        raise ValueError(f"ic50_nm must be a positive finite number, got {ic50_nm}")
    return 9.0 - math.log10(ic50_nm)


def read_compounds_csv(path: str, strict: bool = False):
    """Load a compounds table; returns ``(records, skipped)``.

    ``skipped`` lists (row number, compound_id, reason) for rows whose
    SMILES did not parse. Malformed structure (bad header, bad ic50,
    duplicate ids) always raises; ``strict=True`` escalates SMILES
    failures to errors as well.
    """
    records: list[CompoundRecord] = []
    skipped: list[tuple[int, str, str]] = []
    seen: set[str] = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty compounds file") from None
        if header != CSV_HEADER:
            raise ValueError(f"{path}: header must be {','.join(CSV_HEADER)}, got {','.join(header)}")
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"{path}:{row_num}: expected 4 columns, got {len(row)}")
            compound_id, target_id, smiles, ic50_text = (cell.strip() for cell in row)
            if not compound_id or not target_id:
                raise ValueError(f"{path}:{row_num}: compound_id and target_id must be non-empty")
            if compound_id in seen:
                raise ValueError(f"{path}:{row_num}: duplicate compound_id {compound_id!r}")
            seen.add(compound_id)
            try:
                ic50 = float(ic50_text)
            except ValueError:
                raise ValueError(f"{path}:{row_num}: ic50_nm is not a number: {ic50_text!r}") from None
            try:
                pic50 = pic50_from_ic50_nm(ic50)
            except ValueError as exc:
                raise ValueError(f"{path}:{row_num}: {exc}") from None
            try:
                graph = parse_smiles(smiles)
            except ValueError as exc:
                if strict:
                    raise ValueError(f"{path}:{row_num}: {exc}") from exc
                skipped.append((row_num, compound_id, str(exc)))
                continue
            records.append(CompoundRecord(compound_id, target_id, smiles, graph, pic50))
    return records, skipped


def write_compounds_csv(path: str, compounds) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in compounds:
            ic50_nm = 10.0 ** (9.0 - rec.pic50)
            writer.writerow([rec.compound_id, rec.target_id, rec.smiles, repr(ic50_nm)])


def canonical_json(obj) -> str:
    """Compact JSON with sorted keys: one line, the same bytes on every run."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_jsonl(path: str, schema: str, manifest_hash: str, records) -> None:
    """A JSON Lines file: a header line naming the schema and manifest hash, then one line per record."""
    with open(path, "w") as fh:
        fh.write(canonical_json({"schema": schema, "kind": "header", "manifest_hash": manifest_hash}))
        fh.write("\n")
        for record in records:
            fh.write(canonical_json(record))
            fh.write("\n")


def jsonl_records(path: str):
    """Yield ``(where, record)`` for each non-blank line of a JSON Lines file.

    ``where`` is ``path:line``; a line that is not a JSON object raises
    ValueError naming it. Header lines are yielded like any other.
    """
    with open(path) as fh:
        for line_num, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{line_num}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: invalid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise ValueError(f"{where}: expected a JSON object")
            yield where, record


def pair_to_record(pair: CliffPair) -> dict:
    return {
        "schema": PAIR_SCHEMA,
        "pair_id": pair.pair_id,
        "target_id": pair.target_id,
        "compound_i": pair.compound_i,
        "compound_j": pair.compound_j,
        "smiles_i": pair.smiles_i,
        "smiles_j": pair.smiles_j,
        "y_i": pair.y_i,
        "y_j": pair.y_j,
        "mcs_fraction": pair.mcs_fraction,
        "mapping": [list(ab) for ab in pair.mapping],
        "common_mask_i": [int(v) for v in pair.common_mask_i],
        "common_mask_j": [int(v) for v in pair.common_mask_j],
        "mcs_truncated": pair.mcs_truncated,
    }


def pair_from_record(record: dict) -> CliffPair:
    if record.get("schema") != PAIR_SCHEMA:
        raise ValueError(f"unsupported pair schema {record.get('schema')!r}")
    graph_i = parse_smiles(record["smiles_i"])
    graph_j = parse_smiles(record["smiles_j"])
    mask_i = np.asarray(record["common_mask_i"], dtype=bool)
    mask_j = np.asarray(record["common_mask_j"], dtype=bool)
    if mask_i.shape != (graph_i.num_atoms,) or mask_j.shape != (graph_j.num_atoms,):
        raise ValueError(f"pair {record.get('pair_id')!r}: mask length does not match molecule")
    return CliffPair(
        pair_id=record["pair_id"],
        target_id=record["target_id"],
        compound_i=record["compound_i"],
        compound_j=record["compound_j"],
        smiles_i=record["smiles_i"],
        smiles_j=record["smiles_j"],
        graph_i=graph_i,
        graph_j=graph_j,
        y_i=float(record["y_i"]),
        y_j=float(record["y_j"]),
        mcs_fraction=float(record["mcs_fraction"]),
        mapping=tuple((int(a), int(b)) for a, b in record["mapping"]),
        common_mask_i=mask_i,
        common_mask_j=mask_j,
        mcs_truncated=bool(record.get("mcs_truncated", False)),
    )


def write_pairs_jsonl(path: str, pairs, manifest_hash: str = "") -> None:
    """Header line with the manifest hash, then one record per pair."""
    write_jsonl(path, PAIR_SCHEMA, manifest_hash, map(pair_to_record, pairs))


def read_pairs_jsonl(path: str):
    """Returns ``(pairs, header)``; validates schema tags on every line."""
    pairs: list[CliffPair] = []
    header: dict = {}
    for where, record in jsonl_records(path):
        if record.get("kind") == "header":
            if record.get("schema") != PAIR_SCHEMA:
                raise ValueError(f"{where}: unsupported schema {record.get('schema')!r}")
            header = record
            continue
        try:
            pairs.append(pair_from_record(record))
        except KeyError as exc:
            raise ValueError(f"{where}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from None
    return pairs, header
