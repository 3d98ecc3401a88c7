import warnings

import numpy as np
import pytest

from cliffkit.molgraph import (
    AROMATIC,
    ATOM_FEATURE_WIDTH,
    Atom,
    BOND_FEATURE_WIDTH,
    Bond,
    DOUBLE,
    ELEMENTS,
    MolecularGraph,
    SINGLE,
    SmilesParseError,
    StereoDroppedWarning,
    TRIPLE,
    atom_features,
    bond_features,
    parse_smiles,
)


def bond_set(graph):
    return {(b.i, b.j): b.order for b in graph.bonds}


def test_acetic_acid_layout():
    g = parse_smiles("CC(=O)O")
    assert [a.element for a in g.atoms] == ["C", "C", "O", "O"]
    assert bond_set(g) == {(0, 1): SINGLE, (1, 2): DOUBLE, (1, 3): SINGLE}
    assert all(not b.in_ring for b in g.bonds)
    assert g.degree(1) == 3 and g.degree(0) == 1


def test_benzene_ring_and_aromatic_defaults():
    g = parse_smiles("c1ccccc1")
    assert g.num_atoms == 6
    assert all(a.aromatic and a.element == "C" for a in g.atoms)
    assert len(g.bonds) == 6
    assert all(b.order == AROMATIC and b.in_ring for b in g.bonds)
    # closure bond connects first and last ring atoms
    assert (0, 5) in bond_set(g)


def test_default_bond_between_aromatic_and_plain_is_single():
    g = parse_smiles("cC")  # fragment-style, still a valid graph here
    assert g.bonds[0].order == SINGLE
    assert g.atoms[0].aromatic and not g.atoms[1].aromatic


def test_two_letter_bare_atoms():
    g = parse_smiles("ClCBr")
    assert [a.element for a in g.atoms] == ["Cl", "C", "Br"]
    assert len(g.bonds) == 2


def test_bracket_atom_charge_hydrogens():
    g = parse_smiles("[NH3+]C")
    n = g.atoms[0]
    assert (n.element, n.formal_charge, n.explicit_h, n.aromatic) == ("N", 1, 3, False)
    g2 = parse_smiles("[O-]C")
    assert g2.atoms[0].formal_charge == -1
    g3 = parse_smiles("[Si](C)(C)(C)C")
    assert g3.atoms[0].element == "Si" and g3.degree(0) == 4
    g4 = parse_smiles("[n+]1ccccc1C")
    assert g4.atoms[0].aromatic and g4.atoms[0].formal_charge == 1


def test_explicit_bonds_and_triple():
    g = parse_smiles("C#N")
    assert g.bonds[0].order == TRIPLE
    g2 = parse_smiles("C-C=C")
    assert [b.order for b in g2.bonds] == [SINGLE, DOUBLE]


def test_branching_restores_attachment_point():
    g = parse_smiles("CC(C)(C)C")  # neopentane: central atom degree 4
    assert g.degree(1) == 4
    assert sorted(g.neighbors(1)) == [0, 2, 3, 4]


def test_ring_closure_bond_symbol_either_side():
    for smi in ("C=1CCCCC1", "C1CCCCC=1"):
        g = parse_smiles(smi)
        assert bond_set(g)[(0, 5)] == DOUBLE
    with pytest.raises(SmilesParseError, match="conflicting bond symbols"):
        parse_smiles("C=1CCCCC-1")


def test_percent_ring_closure():
    g = parse_smiles("C%12CCCCC%12")
    assert (0, 5) in bond_set(g)
    with pytest.raises(SmilesParseError, match="two digits"):
        parse_smiles("C%1CC")


def test_ring_membership_is_not_a_bridge():
    # spiro-like: two triangles joined by a two-bond chain
    g = parse_smiles("C1CC1CC2CC2")
    flags = {(b.i, b.j): b.in_ring for b in g.bonds}
    assert flags[(0, 1)] and flags[(1, 2)] and flags[(0, 2)]
    assert flags[(4, 5)] and flags[(5, 6)] and flags[(4, 6)]
    assert not flags[(2, 3)] and not flags[(3, 4)]


def test_fused_rings_all_bonds_in_ring():
    g = parse_smiles("C1CC2CCC12")  # bicyclo[2.1.0], shared edge
    assert all(b.in_ring for b in g.bonds)


def test_stereo_markers_dropped_with_warning():
    with pytest.warns(StereoDroppedWarning):
        g = parse_smiles("C/C=C/C")
    assert bond_set(g) == {(0, 1): SINGLE, (1, 2): DOUBLE, (2, 3): SINGLE}
    with pytest.warns(StereoDroppedWarning):
        g2 = parse_smiles("N[C@H](C)O")
    assert g2.atoms[1].explicit_h == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_smiles("CCO")  # no stereo, no warning


@pytest.mark.parametrize(
    "smi, position, match",
    [
        ("CC.C", 2, "dot"),
        ("C(C", 2, "unclosed branch"),
        ("C)C", 1, "unmatched"),
        ("C1CC", 1, "unclosed ring"),
        ("[13C]", 1, "isotope"),
        ("C==C", 2, "consecutive bond symbols"),
        ("C=", 1, "dangling bond"),
        ("C(=)C", 3, "dangling bond symbol before"),
        ("=C", 1, "no preceding atom"),
        ("C11", 2, "itself"),
        ("C1C1", 3, "duplicate bond"),
        ("[Xe]C", 1, "unsupported element"),
        ("CxC", 1, "unexpected character"),
        ("", 0, "empty"),
        ("1CC", 0, "before any atom"),
    ],
)
def test_parse_errors_carry_positions(smi, position, match):
    with pytest.raises(SmilesParseError, match=match) as exc_info:
        parse_smiles(smi)
    assert exc_info.value.position == position


def test_self_consistency_of_graph_invariants():
    with pytest.raises(ValueError, match="aromatic bond"):
        MolecularGraph(
            (Atom("C"), Atom("C")), (Bond(0, 1, AROMATIC),)
        )
    with pytest.raises(ValueError, match="i < j"):
        Bond(2, 1, SINGLE)
    with pytest.raises(ValueError, match="unsupported element"):
        Atom("Xx")


def test_atom_feature_rows():
    g = parse_smiles("CC(=O)O")
    x = atom_features(g)
    assert x.shape == (4, 26) and x.dtype == np.float64
    # one hot per block: element 0-10, degree 11-16, charge 17-19, aromatic 20, H 21-25
    assert set(np.nonzero(x[0])[0]) == {1, 11 + 1, 17 + 1, 21 + 0}
    assert set(np.nonzero(x[1])[0]) == {1, 11 + 3, 17 + 1, 21 + 0}
    g2 = parse_smiles("[NH3+]C")
    x2 = atom_features(g2)
    assert set(np.nonzero(x2[0])[0]) == {2, 11 + 1, 17 + 2, 21 + 3}
    g3 = parse_smiles("c1ccccc1")
    x3 = atom_features(g3)
    assert np.all(x3[:, 20] == 1.0)


def test_charge_and_hydrogen_clipping():
    x = atom_features(parse_smiles("[N+2](C)(C)(C)C"))
    assert x[0, 17 + 2] == 1.0  # +2 clips to +1 slot
    x2 = atom_features(parse_smiles("[SiH6]C"))
    assert x2[0, 21 + 4] == 1.0  # 6 hydrogens clip to the 4 slot


def test_degree_above_maximum_rejected():
    g = parse_smiles("[Si](C)(C)(C)(C)(C)C")  # degree 6
    with pytest.raises(ValueError, match="degree"):
        atom_features(g)


def test_bond_feature_rows_and_directed_edges():
    g = parse_smiles("C1CC1")
    e, idx = bond_features(g)
    assert e.shape == (6, 5) and idx.shape == (6, 2)
    assert np.all(e[:, 0] == 1.0) and np.all(e[:, 4] == 1.0)  # single, in ring
    # each undirected bond appears in both directions with equal features
    rows = {tuple(r) for r in idx.tolist()}
    assert rows == {(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)}
    for k in range(0, 6, 2):
        assert np.array_equal(e[k], e[k + 1])
        assert idx[k, 0] == idx[k + 1, 1] and idx[k, 1] == idx[k + 1, 0]


def test_feature_widths_match_config():
    assert ATOM_FEATURE_WIDTH == len(ELEMENTS) + 6 + 3 + 1 + 5 == 26
    assert BOND_FEATURE_WIDTH == 5


def test_random_roundtrip_properties():
    # parser output always satisfies the graph invariants on a mixed corpus
    corpus = [
        "c1ccc2ccccc2c1",
        "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
        "O=C(O)c1ccccc1OC(=O)C",
        "C1CCC(CC1)N2C=NC=N2" .replace("2", "3"),
        "FC(F)(F)c1ccccc1",
        "[O-]S(=O)(=O)c1ccccc1",
        "C#CC#CC",
        "N1C=CC=C1" .lower().replace("n1", "N1"),
    ]
    for smi in corpus:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = parse_smiles(smi)
        x = atom_features(g)
        e, idx = bond_features(g)
        assert x.shape == (g.num_atoms, 26)
        assert e.shape[0] == 2 * len(g.bonds) == idx.shape[0]
        # element/degree/charge/H blocks each one-hot
        assert np.all(x[:, :11].sum(axis=1) == 1.0)
        assert np.all(x[:, 11:17].sum(axis=1) == 1.0)
        assert np.all(x[:, 17:20].sum(axis=1) == 1.0)
        assert np.all(x[:, 21:].sum(axis=1) == 1.0)


def test_features_are_cached_read_only_and_outside_equality():
    g = parse_smiles("CC(=O)Oc1ccccc1")
    assert g._features is None  # parsing does not featurize
    x, e, idx = g.features
    assert all(a is b for a, b in zip(g.features, (x, e, idx)))
    assert np.array_equal(x, atom_features(g))
    assert all(np.array_equal(a, b) for a, b in zip((e, idx), bond_features(g)))
    for cached in (x, e, idx):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 0
    fresh = atom_features(g)
    fresh[0] = 0.0  # the featurizers still return fresh, writable arrays
    assert fresh is not x and x[0].sum() > 0
    other = parse_smiles("CC(=O)Oc1ccccc1")
    assert g == other and hash(g) == hash(other) and repr(g) == repr(other)

