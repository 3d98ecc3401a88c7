"""SMILES parsing and molecular graph featurization.

Covers the SMILES subset that compound activity tables in practice
contain: organic-subset atoms, aromatic lowercase forms, bracket atoms
with hydrogen counts and charges, branches, explicit bond symbols, and
ring closures written as single digits or ``%nn``. Stereochemistry
markers (``/``, ``\\``, ``@``) are accepted and dropped with a warning;
dot-disconnected inputs are rejected. The formal grammar is written out
in ``docs/formats.md``.

Aromaticity is taken syntactically from the input (lowercase atoms),
not re-perceived. Ring membership of bonds is computed from the final
graph: a bond is in a ring exactly when it is not a bridge.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

ELEMENTS = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I", "Si")

# Organic-subset symbols may appear bare; everything else needs brackets.
_BARE_TWO = ("Cl", "Br")
_BARE_ONE = ("B", "C", "N", "O", "P", "S", "F", "I")
_AROMATIC_OK = ("b", "c", "n", "o", "p", "s")

SINGLE = "single"
DOUBLE = "double"
TRIPLE = "triple"
AROMATIC = "aromatic"
BOND_ORDERS = (SINGLE, DOUBLE, TRIPLE, AROMATIC)

_BOND_CHARS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}


class SmilesParseError(ValueError):
    """Raised on malformed or unsupported SMILES, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class StereoDroppedWarning(UserWarning):
    """Signals that stereochemistry markers were present and ignored."""


@dataclass(frozen=True)
class Atom:
    """One heavy atom: element symbol, formal charge, aromatic flag, explicit H count."""

    element: str
    formal_charge: int = 0
    aromatic: bool = False
    explicit_h: int = 0

    def __post_init__(self):
        if self.element not in ELEMENTS:
            raise ValueError(f"unsupported element {self.element!r}")
        if not -4 <= self.formal_charge <= 4:
            raise ValueError(f"formal charge {self.formal_charge} out of range")
        if not 0 <= self.explicit_h <= 9:
            raise ValueError(f"explicit hydrogen count {self.explicit_h} out of range")


@dataclass(frozen=True)
class Bond:
    """Undirected bond between atom indices ``i < j``."""

    i: int
    j: int
    order: str
    in_ring: bool = False

    def __post_init__(self):
        if self.i >= self.j:
            raise ValueError("bond endpoints must satisfy i < j")
        if self.order not in BOND_ORDERS:
            raise ValueError(f"unknown bond order {self.order!r}")


@dataclass(frozen=True)
class MolecularGraph:
    """Connected molecular graph with atoms in SMILES left-to-right order."""

    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]
    source_smiles: str = ""
    _adjacency: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _features: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self):
        n = len(self.atoms)
        nbrs: list[list[int]] = [[] for _ in range(n)]
        seen = set()
        for b in self.bonds:
            if b.j >= n:
                raise ValueError(f"bond ({b.i}, {b.j}) references missing atom")
            if (b.i, b.j) in seen:
                raise ValueError(f"duplicate bond ({b.i}, {b.j})")
            seen.add((b.i, b.j))
            if b.order == AROMATIC and not (
                self.atoms[b.i].aromatic and self.atoms[b.j].aromatic
            ):
                raise ValueError(
                    f"aromatic bond ({b.i}, {b.j}) between non-aromatic atoms"
                )
            nbrs[b.i].append(b.j)
            nbrs[b.j].append(b.i)
        object.__setattr__(self, "_adjacency", tuple(tuple(a) for a in nbrs))

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adjacency[i]

    def degree(self, i: int) -> int:
        return len(self._adjacency[i])

    @property
    def features(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(atom features, bond features, edge index)``, computed on first use.

        The arrays are cached on the graph and read-only; :func:`atom_features`
        and :func:`bond_features` return fresh, writable copies.
        """
        if self._features is None:
            arrays = (atom_features(self), *bond_features(self))
            for a in arrays:
                a.flags.writeable = False
            object.__setattr__(self, "_features", arrays)
        return self._features

    def bond_between(self, i: int, j: int) -> Bond | None:
        if i > j:
            i, j = j, i
        for b in self.bonds:
            if b.i == i and b.j == j:
                return b
        return None


def _mark_ring_bonds(n: int, bonds: list[tuple[int, int, str]]) -> list[bool]:
    """A bond is in a ring iff it is not a bridge (Tarjan low-link, iterative)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (i, j, _) in enumerate(bonds):
        adj[i].append((j, k))
        adj[j].append((i, k))
    disc = [-1] * n
    low = [0] * n
    is_bridge = [False] * len(bonds)
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        stack = [(root, -1, iter(adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, in_edge, it = stack[-1]
            advanced = False
            for w, k in it:
                if k == in_edge:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, k, iter(adj[w])))
                    advanced = True
                    break
                low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[v])
                if low[v] > disc[parent]:
                    is_bridge[in_edge] = True
    return [not br for br in is_bridge]


class _Parser:
    """Single-pass cursor parser building atoms and undirected bonds."""

    def __init__(self, smiles: str):
        self.s = smiles
        self.pos = 0
        self.atoms: list[Atom] = []
        self.bonds: list[tuple[int, int, str]] = []
        self.bond_keys: set[tuple[int, int]] = set()
        self.prev_atom = -1
        self.pending_bond: str | None = None
        self.branch_stack: list[int] = []
        # open ring number -> (atom index, bond symbol at opening or None, position)
        self.rings: dict[int, tuple[int, str | None, int]] = {}
        self.stereo_seen = False

    def error(self, message: str, position: int | None = None) -> SmilesParseError:
        return SmilesParseError(message, self.pos if position is None else position)

    def add_bond(self, i: int, j: int, order: str, position: int) -> None:
        if i == j:
            raise self.error("ring closure bonds an atom to itself", position)
        key = (min(i, j), max(i, j))
        if key in self.bond_keys:
            raise self.error(f"duplicate bond between atoms {key[0]} and {key[1]}", position)
        self.bond_keys.add(key)
        self.bonds.append((key[0], key[1], order))

    def default_order(self, i: int, j: int) -> str:
        both = self.atoms[i].aromatic and self.atoms[j].aromatic
        return AROMATIC if both else SINGLE

    def attach(self, idx: int, position: int) -> None:
        if self.prev_atom >= 0:
            order = self.pending_bond or self.default_order(self.prev_atom, idx)
            self.add_bond(self.prev_atom, idx, order, position)
        elif self.pending_bond is not None:
            raise self.error("bond symbol with no preceding atom", position)
        self.pending_bond = None
        self.prev_atom = idx

    def parse_bracket_atom(self) -> Atom:
        start = self.pos
        self.pos += 1  # consume '['
        s = self.s
        if self.pos < len(s) and s[self.pos].isdigit():
            raise self.error("isotope labels are not supported")
        sym_start = self.pos
        if self.pos < len(s) and s[self.pos].isalpha():
            sym = s[self.pos]
            self.pos += 1
            if self.pos < len(s) and s[self.pos].islower() and sym + s[self.pos] in ELEMENTS:
                sym += s[self.pos]
                self.pos += 1
        else:
            raise self.error("expected element symbol in bracket atom")
        aromatic = sym[0].islower() and len(sym) == 1
        if aromatic:
            if sym not in _AROMATIC_OK:
                raise self.error(f"element {sym!r} cannot be aromatic", sym_start)
            element = sym.upper()
        else:
            element = sym
        if element not in ELEMENTS:
            raise self.error(f"unsupported element {sym!r}", sym_start)
        while self.pos < len(s) and s[self.pos] == "@":
            self.stereo_seen = True
            self.pos += 1
        explicit_h = 0
        if self.pos < len(s) and s[self.pos] == "H":
            self.pos += 1
            explicit_h = 1
            if self.pos < len(s) and s[self.pos].isdigit():
                explicit_h = int(s[self.pos])
                self.pos += 1
        charge = 0
        if self.pos < len(s) and s[self.pos] in "+-":
            sign = 1 if s[self.pos] == "+" else -1
            self.pos += 1
            if self.pos < len(s) and s[self.pos].isdigit():
                charge = sign * int(s[self.pos])
                self.pos += 1
            else:
                charge = sign
        if self.pos >= len(s) or s[self.pos] != "]":
            raise self.error("expected ']' to close bracket atom", start)
        self.pos += 1
        return Atom(element, formal_charge=charge, aromatic=aromatic, explicit_h=explicit_h)

    def parse_bare_atom(self) -> Atom:
        s = self.s
        two = s[self.pos : self.pos + 2]
        if two in _BARE_TWO:
            self.pos += 2
            return Atom(two)
        c = s[self.pos]
        if c in _BARE_ONE:
            self.pos += 1
            return Atom(c)
        if c in _AROMATIC_OK:
            self.pos += 1
            return Atom(c.upper(), aromatic=True)
        raise self.error(f"unexpected character {c!r}")

    def handle_ring_closure(self, num: int, position: int) -> None:
        if self.prev_atom < 0:
            raise self.error("ring closure digit before any atom", position)
        if num in self.rings:
            open_atom, open_sym, open_pos = self.rings.pop(num)
            close_sym = self.pending_bond
            self.pending_bond = None
            if open_sym is not None and close_sym is not None and open_sym != close_sym:
                raise self.error(
                    f"conflicting bond symbols for ring closure {num}", position
                )
            order = open_sym or close_sym or self.default_order(open_atom, self.prev_atom)
            self.add_bond(open_atom, self.prev_atom, order, position)
        else:
            self.rings[num] = (self.prev_atom, self.pending_bond, position)
            self.pending_bond = None

    def run(self) -> MolecularGraph:
        s = self.s
        if not s.strip():
            raise self.error("empty SMILES", 0)
        while self.pos < len(s):
            c = s[self.pos]
            if c.isspace():
                self.pos += 1
            elif c == ".":
                raise self.error("disconnected (dot-separated) SMILES is not supported")
            elif c in _BOND_CHARS:
                if self.pending_bond is not None:
                    raise self.error("two consecutive bond symbols")
                self.pending_bond = _BOND_CHARS[c]
                self.pos += 1
            elif c in "/\\":
                self.stereo_seen = True
                if self.pending_bond is None:
                    self.pending_bond = SINGLE
                self.pos += 1
            elif c == "(":
                if self.prev_atom < 0:
                    raise self.error("branch opened before any atom")
                if self.pending_bond is not None:
                    raise self.error("bond symbol before branch opening")
                self.branch_stack.append(self.prev_atom)
                self.pos += 1
            elif c == ")":
                if not self.branch_stack:
                    raise self.error("unmatched ')'")
                if self.pending_bond is not None:
                    raise self.error("dangling bond symbol before ')'")
                self.prev_atom = self.branch_stack.pop()
                self.pos += 1
            elif c.isdigit():
                self.handle_ring_closure(int(c), self.pos)
                self.pos += 1
            elif c == "%":
                if self.pos + 2 >= len(s) or not s[self.pos + 1 : self.pos + 3].isdigit():
                    raise self.error("'%' ring closure needs two digits")
                self.handle_ring_closure(int(s[self.pos + 1 : self.pos + 3]), self.pos)
                self.pos += 3
            elif c == "[":
                pos = self.pos
                atom = self.parse_bracket_atom()
                self.atoms.append(atom)
                self.attach(len(self.atoms) - 1, pos)
            elif c.isalpha():
                pos = self.pos
                atom = self.parse_bare_atom()
                self.atoms.append(atom)
                self.attach(len(self.atoms) - 1, pos)
            else:
                raise self.error(f"unexpected character {c!r}")
        if self.branch_stack:
            raise self.error("unclosed branch '('", len(s) - 1)
        if self.rings:
            num, (_, _, pos) = next(iter(sorted(self.rings.items())))
            raise self.error(f"unclosed ring closure {num}", pos)
        if self.pending_bond is not None:
            raise self.error("dangling bond symbol at end of input", len(s) - 1)
        if not self.atoms:
            raise self.error("no atoms parsed", 0)
        if self.stereo_seen:
            warnings.warn(
                "stereochemistry markers were ignored", StereoDroppedWarning, stacklevel=3
            )
        ring_flags = _mark_ring_bonds(len(self.atoms), self.bonds)
        bonds = tuple(
            Bond(i, j, order, in_ring=flag)
            for (i, j, order), flag in zip(self.bonds, ring_flags)
        )
        return MolecularGraph(tuple(self.atoms), bonds, source_smiles=self.s)


def parse_smiles(smiles: str) -> MolecularGraph:
    """Parse a SMILES string into a :class:`MolecularGraph`.

    Atom order matches the left-to-right order of atom tokens. Raises
    :class:`SmilesParseError` with a character position on malformed or
    unsupported input, and :class:`TypeError` when ``smiles`` is not a string.
    """
    if not isinstance(smiles, str):
        raise TypeError(f"SMILES must be a string, got {type(smiles).__name__}")
    return _Parser(smiles).run()


# Feature layout shared by the featurizers and the model. Atom rows
# concatenate a one-hot element block, a one-hot degree block (0..5), a
# one-hot formal charge block clipped to {-1, 0, +1}, an aromatic flag,
# and a one-hot explicit hydrogen block (0..4, clipped above). Bond rows
# concatenate a one-hot order block and a ring flag.
MAX_DEGREE = 5
MAX_EXPLICIT_H = 4
ATOM_FEATURE_WIDTH = len(ELEMENTS) + (MAX_DEGREE + 1) + 3 + 1 + (MAX_EXPLICIT_H + 1)
BOND_FEATURE_WIDTH = len(BOND_ORDERS) + 1


def atom_features(graph: MolecularGraph) -> np.ndarray:
    """Per-atom feature matrix, shape ``(num_atoms, ATOM_FEATURE_WIDTH)``, float64."""
    n = graph.num_atoms
    out = np.zeros((n, ATOM_FEATURE_WIDTH), dtype=np.float64)
    deg_base = len(ELEMENTS)
    charge_base = deg_base + MAX_DEGREE + 1
    arom_base = charge_base + 3
    h_base = arom_base + 1
    for idx, atom in enumerate(graph.atoms):
        out[idx, ELEMENTS.index(atom.element)] = 1.0
        degree = graph.degree(idx)
        if degree > MAX_DEGREE:
            raise ValueError(f"atom {idx} has degree {degree}, above the encodable maximum")
        out[idx, deg_base + degree] = 1.0
        charge = min(1, max(-1, atom.formal_charge))
        out[idx, charge_base + charge + 1] = 1.0
        if atom.aromatic:
            out[idx, arom_base] = 1.0
        out[idx, h_base + min(atom.explicit_h, MAX_EXPLICIT_H)] = 1.0
    return out


def bond_features(graph: MolecularGraph) -> tuple[np.ndarray, np.ndarray]:
    """Directed edge features and endpoints.

    Each undirected bond emits two directed edges carrying identical
    features. Returns ``(features, edge_index)`` with shapes
    ``(2 * num_bonds, BOND_FEATURE_WIDTH)`` and ``(2 * num_bonds, 2)``;
    row ``(v, w)`` of ``edge_index`` is the edge along which node ``v``
    receives from neighbor ``w``.
    """
    m = len(graph.bonds)
    feats = np.zeros((2 * m, BOND_FEATURE_WIDTH), dtype=np.float64)
    index = np.zeros((2 * m, 2), dtype=np.int64)
    for k, bond in enumerate(graph.bonds):
        row = np.zeros(BOND_FEATURE_WIDTH, dtype=np.float64)
        row[BOND_ORDERS.index(bond.order)] = 1.0
        if bond.in_ring:
            row[-1] = 1.0
        feats[2 * k] = row
        feats[2 * k + 1] = row
        index[2 * k] = (bond.i, bond.j)
        index[2 * k + 1] = (bond.j, bond.i)
    return feats, index
