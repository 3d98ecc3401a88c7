import dataclasses
import math
import re

import numpy as np
import pytest

from cliffkit.molgraph import Atom, Bond, DOUBLE, MolecularGraph, SINGLE, parse_smiles
from cliffkit.pairs import (
    CliffPair,
    CompoundRecord,
    PairGenConfig,
    SyntheticConfig,
    build_pair,
    decoration_library,
    filter_by_threshold,
    generate_cliff_pairs,
    generate_synthetic_dataset,
    max_common_substructure,
    pair_from_record,
    pair_to_record,
    pic50_from_ic50_nm,
    read_compounds_csv,
    read_pairs_jsonl,
    split_pairs,
    write_compounds_csv,
    write_pairs_jsonl,
)


# ---------------------------------------------------------------------------
# brute-force reference for the substructure search

def brute_mcs(g1, g2):
    """Lexicographically smallest maximum connected induced common mapping.

    Exhaustive extension; returns the (g1, g2) pairs sorted by g1 index.
    """

    def atom_ok(a, b):
        x, y = g1.atoms[a], g2.atoms[b]
        return x.element == y.element and x.aromatic == y.aromatic

    def consistent(a, b, mapping):
        for a2, b2 in mapping.items():
            e1 = g1.bond_between(a, a2)
            e2 = g2.bond_between(b, b2)
            if (e1 is None) != (e2 is None):
                return False
            if e1 is not None and e1.order != e2.order:
                return False
        return True

    best = ()
    seen = set()

    def extend(mapping):
        nonlocal best
        key = frozenset(mapping.items())
        if key in seen:
            return
        seen.add(key)
        candidate = tuple(sorted(mapping.items()))
        if len(candidate) > len(best) or (len(candidate) == len(best) and candidate < best):
            best = candidate
        frontier = {
            n
            for a in mapping
            for n in g1.neighbors(a)
            if n not in mapping
        }
        used2 = set(mapping.values())
        for a in frontier:
            for b in range(g2.num_atoms):
                if b in used2 or not atom_ok(a, b) or not consistent(a, b, mapping):
                    continue
                mapping[a] = b
                extend(mapping)
                del mapping[a]

    for a in range(g1.num_atoms):
        for b in range(g2.num_atoms):
            if atom_ok(a, b):
                extend({a: b})
    return best


def random_molecule(rng, max_atoms=9):
    """Random connected graph over a few elements; tree plus up to two extra edges."""
    n = int(rng.integers(2, max_atoms + 1))
    elements = rng.choice(["C", "C", "C", "N", "O", "S"], size=n)
    atoms = tuple(Atom(str(e)) for e in elements)
    orders = [SINGLE, SINGLE, SINGLE, DOUBLE]
    edges = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges[(j, i)] = orders[rng.integers(len(orders))]
    for _ in range(int(rng.integers(0, 3))):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (i, j) not in edges:
            edges[(i, j)] = orders[rng.integers(len(orders))]
    bonds = tuple(Bond(i, j, o) for (i, j), o in sorted(edges.items()))
    return MolecularGraph(atoms, bonds)


def test_mcs_hand_cases():
    cases = [
        ("CCO", "CCN", 2),          # shared ethyl
        ("CC(=O)O", "CC(=O)N", 3),  # acetyl core
        ("c1ccccc1", "C1CCCCC1", 0),  # aromatic flag blocks every atom
        ("c1ccccc1C", "c1ccccc1O", 6),
        ("CCO", "CCO", 3),
        ("C=CC", "CCC", 2),         # double bond breaks one alignment
        ("C", "N", 0),
    ]
    for smi1, smi2, size in cases:
        g1, g2 = parse_smiles(smi1), parse_smiles(smi2)
        res = max_common_substructure(g1, g2)
        assert res.size == size, (smi1, smi2, res.size)
        assert res.size == len(brute_mcs(g1, g2))
        assert not res.truncated


def test_mcs_identity_full_cover():
    g = parse_smiles("CC(=O)Oc1ccccc1")
    res = max_common_substructure(g, g)
    assert res.size == g.num_atoms
    assert res.mapping == tuple((i, i) for i in range(g.num_atoms))
    assert res.fraction == res.fraction_1 == res.fraction_2 == 1.0


def test_mcs_mapping_is_valid_common_subgraph():
    rng = np.random.default_rng(0)
    for _ in range(60):
        g1, g2 = random_molecule(rng), random_molecule(rng)
        res = max_common_substructure(g1, g2)
        m = dict(res.mapping)
        assert len(m) == res.size == len(set(m.values()))
        # induced both directions, orders equal
        for a, b in res.mapping:
            for a2, b2 in res.mapping:
                e1 = g1.bond_between(a, a2)
                e2 = g2.bond_between(b, b2)
                assert (e1 is None) == (e2 is None)
                if e1 is not None:
                    assert e1.order == e2.order
        # connected
        if res.size > 1:
            nodes = set(m)
            reach = {next(iter(nodes))}
            grew = True
            while grew:
                grew = False
                for a in list(reach):
                    for nb in g1.neighbors(a):
                        if nb in nodes and nb not in reach:
                            reach.add(nb)
                            grew = True
            assert reach == nodes


def test_mcs_matches_brute_force_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(120):
        g1, g2 = random_molecule(rng, 8), random_molecule(rng, 8)
        res = max_common_substructure(g1, g2)
        assert not res.truncated
        assert res.mapping == brute_mcs(g1, g2)
        assert res.size == len(res.mapping)


def test_mcs_deterministic_tie_break():
    g1 = parse_smiles("CCC")
    g2 = parse_smiles("CC")
    res = max_common_substructure(g1, g2)
    # lexicographically smallest max mapping wins
    assert res.mapping == ((0, 0), (1, 1))
    again = max_common_substructure(g1, g2)
    assert res.mapping == again.mapping


def test_mcs_tert_butyl_pair_is_solved_exactly():
    # Two tert-butyl groups and a morpholine give many equivalent partial
    # mappings; the bound must settle them well inside the step budget.
    g1 = parse_smiles("Nc1ncnc2n(C(C)(C)C)nc(-c3ccc(C(C)(C)C)c(N%81CCOCC%81)c3)c12")
    g2 = parse_smiles("Nc1ncnc2n(C(C)(C)C)nc(-c3ccc(C(F)(F)F)c(N(C)C)c3)c12")
    res = max_common_substructure(g1, g2)
    assert not res.truncated
    assert res.size == 24
    assert 0 < res.steps < 20_000
    # steps is a diagnostic, not part of the result's identity
    assert res == dataclasses.replace(res, steps=0)


def test_mcs_budget_truncation():
    g1 = parse_smiles("CCCCCCCCC")
    g2 = parse_smiles("CCCCCCCCC")
    res = max_common_substructure(g1, g2, node_budget=5)
    assert res.truncated
    assert res.size <= 9
    with pytest.raises(ValueError):
        max_common_substructure(g1, g2, node_budget=0)


def test_mcs_fraction_is_min_side():
    g1 = parse_smiles("CCO")        # 3 atoms
    g2 = parse_smiles("CCOCC")      # 5 atoms
    res = max_common_substructure(g1, g2)
    assert res.size == 3
    assert res.fraction_1 == 1.0 and res.fraction_2 == 0.6
    assert res.fraction == 0.6


# ---------------------------------------------------------------------------
# pair construction

def record(cid, target, smi, pic50):
    return CompoundRecord(cid, target, smi, parse_smiles(smi), pic50)


def test_build_pair_masks_and_id():
    a = record("A1", "T", "CCO", 7.5)
    b = record("B1", "T", "CCN", 5.0)
    mcs = max_common_substructure(a.graph, b.graph)
    pair = build_pair(a, b, mcs)
    assert pair.pair_id == "T:A1|B1"
    assert pair.delta == 2.5
    assert np.array_equal(pair.common_mask_i, [True, True, False])
    assert np.array_equal(pair.uncommon_mask_j, [False, False, True])
    with pytest.raises(ValueError, match="ordered"):
        build_pair(b, a, mcs)


def test_generate_cliff_pairs_gates():
    compounds = [
        record("A", "T1", "CCCO", 8.0),
        record("B", "T1", "CCCN", 6.0),   # cliff with A, mcs 3/4
        record("C", "T1", "CCCS", 7.5),   # delta 0.5 vs A: no cliff
        record("D", "T2", "c1ccccc1", 9.0),
        record("E", "T2", "CCCCCC", 4.0),  # no common substructure
    ]
    config = PairGenConfig(min_pairs_per_target=1)
    pairs = generate_cliff_pairs(compounds, config)
    assert [p.pair_id for p in pairs] == ["T1:A|B", "T1:B|C"]
    # mining reads structure only: no graph computes its feature arrays
    assert all(rec.graph._features is None for rec in compounds)
    # raising the floor drops the whole target
    assert generate_cliff_pairs(compounds, PairGenConfig(min_pairs_per_target=3)) == []


def test_generate_pairs_cross_target_never_pairs():
    compounds = [
        record("A", "T1", "CCO", 9.0),
        record("B", "T2", "CCO", 4.0),
    ]
    assert generate_cliff_pairs(compounds, PairGenConfig(min_pairs_per_target=1)) == []


def test_filter_by_threshold():
    a = record("A", "T", "CCCCO", 8.0)
    b = record("B", "T", "CCCCN", 6.0)
    pair = build_pair(a, b, max_common_substructure(a.graph, b.graph))
    assert filter_by_threshold([pair], 0.8) == [pair]
    assert filter_by_threshold([pair], 0.81) == []


# ---------------------------------------------------------------------------
# splits

def dummy_pairs(n, target="T"):
    g = parse_smiles("CC")
    mask = np.ones(2, dtype=bool)
    return [
        CliffPair(
            pair_id=f"{target}:{k:05d}",
            target_id=target,
            compound_i=f"a{k}",
            compound_j=f"b{k}",
            smiles_i="CC",
            smiles_j="CC",
            graph_i=g,
            graph_j=g,
            y_i=0.0,
            y_j=1.5,
            mcs_fraction=1.0,
            mapping=((0, 0), (1, 1)),
            common_mask_i=mask,
            common_mask_j=mask,
        )
        for k in range(n)
    ]


def test_split_sizes_ten_and_large():
    split = split_pairs(dummy_pairs(10))
    assert split.sizes == (7, 1, 2)
    split = split_pairs(dummy_pairs(1377))
    assert split.sizes == (963, 138, 276)


def test_split_partition_and_determinism():
    pairs = dummy_pairs(137)
    s1 = split_pairs(pairs, seed=3)
    s2 = split_pairs(pairs, seed=3)
    s3 = split_pairs(pairs, seed=4)
    assert [p.pair_id for p in s1.train] == [p.pair_id for p in s2.train]
    assert [p.pair_id for p in s1.train] != [p.pair_id for p in s3.train]
    ids = [p.pair_id for p in s1.train + s1.validation + s1.test]
    assert sorted(ids) == [p.pair_id for p in pairs]
    assert len(set(ids)) == len(pairs)


def test_split_is_per_target():
    pairs = dummy_pairs(100, "T1") + dummy_pairs(50, "T2")
    split = split_pairs(pairs)
    for part, want1, want2 in (
        (split.train, 70, 35),
        (split.validation, 10, 5),
        (split.test, 20, 10),
    ):
        n1 = sum(1 for p in part if p.target_id == "T1")
        n2 = sum(1 for p in part if p.target_id == "T2")
        assert (n1, n2) == (want1, want2)


def test_split_validation_errors():
    with pytest.raises(ValueError, match="at least 10"):
        split_pairs(dummy_pairs(9))
    with pytest.raises(ValueError, match="ratios"):
        split_pairs(dummy_pairs(20), ratios=(0.5, 0.2, 0.2))
    with pytest.raises(ValueError, match="at least 3"):
        split_pairs(dummy_pairs(10, "T1") + dummy_pairs(2, "T2"))


# ---------------------------------------------------------------------------
# synthetic benchmark

def test_decoration_library_shape():
    lib = decoration_library(88)
    assert len(lib) == 88 and len(set(lib)) == 88
    assert decoration_library(8) == list(("C", "N", "O", "S", "F", "Cl", "Br", "I"))
    with pytest.raises(ValueError):
        decoration_library(89)


def test_synthetic_dataset_deterministic_and_planted():
    cfg = SyntheticConfig(n_scaffolds=2, n_decorations=25, noise_sd=0.05, seed=9)
    d1 = generate_synthetic_dataset(cfg)
    d2 = generate_synthetic_dataset(cfg)
    assert len(d1.compounds) == 50
    assert [c.compound_id for c in d1.compounds] == [c.compound_id for c in d2.compounds]
    assert all(a.pic50 == b.pic50 for a, b in zip(d1.compounds, d2.compounds))
    for rec in d1.compounds:
        p = d1.planted[rec.compound_id]
        assert rec.pic50 == p.base + p.effect + p.noise
        assert rec.graph.num_atoms >= 5
    # one scaffold per target; shared base within a target
    by_target = {}
    for rec in d1.compounds:
        by_target.setdefault(rec.target_id, set()).add(d1.planted[rec.compound_id].base)
    assert set(by_target) == {"SYN00", "SYN01"}
    assert all(len(bases) == 1 for bases in by_target.values())


def test_synthetic_zero_noise_is_exact():
    cfg = SyntheticConfig(n_decorations=10, noise_sd=0.0, seed=1)
    data = generate_synthetic_dataset(cfg)
    for rec in data.compounds:
        planted = data.planted[rec.compound_id]
        assert planted.noise == 0.0
        assert rec.pic50 == planted.base + planted.effect


def test_synthetic_pairs_survive_generation():
    data = generate_synthetic_dataset(SyntheticConfig(n_decorations=40, seed=0))
    pairs = generate_cliff_pairs(list(data.compounds), PairGenConfig(min_pairs_per_target=50))
    assert len(pairs) >= 200
    assert all(p.delta >= 1.0 and p.mcs_fraction >= 0.5 for p in pairs)


def test_synthetic_scaffold_grouping():
    cfg = SyntheticConfig(n_scaffolds=4, n_decorations=5, noise_sd=0.0, seed=3,
                          scaffolds_per_target=2)
    data = generate_synthetic_dataset(cfg)
    assert len(data.compounds) == 20
    # compound ids keep their scaffold index; targets group pairs of scaffolds
    assert [c.compound_id for c in data.compounds[::5]] == [
        "S00D000", "S01D000", "S02D000", "S03D000"
    ]
    by_target = {}
    for rec in data.compounds:
        by_target.setdefault(rec.target_id, set()).add(data.planted[rec.compound_id].base)
    assert set(by_target) == {"SYN00", "SYN01"}
    assert all(len(bases) == 2 for bases in by_target.values())
    # same decoration keeps the same planted effect across scaffolds
    effects = {}
    for rec in data.compounds:
        d = rec.compound_id[-4:]
        effects.setdefault(d, set()).add(data.planted[rec.compound_id].effect)
    assert all(len(vals) == 1 for vals in effects.values())
    with pytest.raises(ValueError):
        SyntheticConfig(scaffolds_per_target=0)


def test_synthetic_ring_is_remote_from_decoration_site():
    # the scaffold-identifying ring must sit at least 4 bonds from every
    # decoration atom, outside a 3-layer message-passing radius
    data = generate_synthetic_dataset(
        SyntheticConfig(n_scaffolds=8, n_decorations=2, noise_sd=0.0, seed=0)
    )
    by_scaffold = {}
    for rec in data.compounds:
        by_scaffold.setdefault(rec.compound_id[:3], []).append(rec.graph)
    for g_c, g_n in by_scaffold.values():
        assert g_c.num_atoms == g_n.num_atoms
        deco = [k for k in range(g_c.num_atoms)
                if g_c.atoms[k].element != g_n.atoms[k].element]
        assert len(deco) == 1
        ring = {b.i for b in g_c.bonds if b.in_ring} | {b.j for b in g_c.bonds if b.in_ring}
        assert ring
        adj = [[] for _ in range(g_c.num_atoms)]
        for b in g_c.bonds:
            adj[b.i].append(b.j)
            adj[b.j].append(b.i)
        dist = {deco[0]: 0}
        frontier = [deco[0]]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        assert min(dist[r] for r in ring) >= 4


# ---------------------------------------------------------------------------
# file formats

def test_pic50_conversion():
    assert pic50_from_ic50_nm(1.0) == 9.0
    assert abs(pic50_from_ic50_nm(1000.0) - 6.0) < 1e-12
    for bad in (0.0, -5.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            pic50_from_ic50_nm(bad)


def test_compounds_csv_roundtrip(tmp_path):
    recs = [record("A", "T", "CCO", 7.25), record("B", "T", "c1ccccc1", 5.5)]
    path = tmp_path / "compounds.csv"
    write_compounds_csv(path, recs)
    back, skipped = read_compounds_csv(path)
    assert skipped == []
    assert [(r.compound_id, r.smiles) for r in back] == [("A", "CCO"), ("B", "c1ccccc1")]
    assert all(abs(a.pic50 - b.pic50) < 1e-12 for a, b in zip(recs, back))


def test_compounds_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("compound_id,target_id,smiles\nA,T,CCO\n")
    with pytest.raises(ValueError, match="header"):
        read_compounds_csv(path)
    path.write_text("compound_id,target_id,smiles,ic50_nm\nA,T,CCO,abc\n")
    with pytest.raises(ValueError, match="not a number"):
        read_compounds_csv(path)
    path.write_text("compound_id,target_id,smiles,ic50_nm\nA,T,CCO,10\nA,T,CCN,20\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_compounds_csv(path)
    # a non-positive or non-finite ic50 is reported with its file and row
    for bad in ("0", "-5", "nan", "inf"):
        path.write_text(f"compound_id,target_id,smiles,ic50_nm\nA,T,CCO,10\nB,T,CCN,{bad}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: ic50_nm must be a positive"):
            read_compounds_csv(path)


def test_compounds_csv_smiles_failures_lax_vs_strict(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text(
        "compound_id,target_id,smiles,ic50_nm\n"
        "A,T,CCO,10\n"
        "B,T,C(C,20\n"
        "C,T,CCN,30\n"
    )
    records, skipped = read_compounds_csv(path)
    assert [r.compound_id for r in records] == ["A", "C"]
    assert len(skipped) == 1 and skipped[0][0] == 3 and skipped[0][1] == "B"
    with pytest.raises(ValueError, match="bad.csv|mixed.csv:3"):
        read_compounds_csv(path, strict=True)


def test_pairs_jsonl_roundtrip(tmp_path):
    a = record("A", "T", "CCCO", 8.0)
    b = record("B", "T", "CCCN", 6.5)
    pair = build_pair(a, b, max_common_substructure(a.graph, b.graph))
    path = tmp_path / "pairs.jsonl"
    write_pairs_jsonl(path, [pair], manifest_hash="deadbeef")
    back, header = read_pairs_jsonl(path)
    assert header["manifest_hash"] == "deadbeef"
    assert len(back) == 1
    got = back[0]
    assert got.pair_id == pair.pair_id
    assert got.y_i == pair.y_i and got.y_j == pair.y_j
    assert np.array_equal(got.common_mask_i, pair.common_mask_i)
    assert got.mapping == pair.mapping
    assert got.graph_i.num_atoms == pair.graph_i.num_atoms
    # record dict is json-stable
    assert pair_to_record(got) == pair_to_record(pair)


def test_pairs_jsonl_rejects_bad_schema_and_masks(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind":"header","manifest_hash":"","schema":"other/9"}\n')
    with pytest.raises(ValueError, match="unsupported schema"):
        read_pairs_jsonl(path)
    a = record("A", "T", "CCO", 8.0)
    b = record("B", "T", "CCN", 6.5)
    rec = pair_to_record(build_pair(a, b, max_common_substructure(a.graph, b.graph)))
    rec["common_mask_i"] = [1, 1]  # wrong length
    with pytest.raises(ValueError, match="mask length"):
        pair_from_record(rec)
    path.write_text("not json\n")
    with pytest.raises(ValueError, match="invalid JSON"):
        read_pairs_jsonl(path)


def test_pair_gen_config_validation():
    with pytest.raises(ValueError):
        PairGenConfig(min_mcs_fraction=0.0)
    with pytest.raises(ValueError):
        PairGenConfig(min_activity_delta=-0.1)
    with pytest.raises(ValueError):
        PairGenConfig(min_pairs_per_target=0)
