from xml.etree import ElementTree

import numpy as np
import pytest

from cliffkit import render
from cliffkit.molgraph import parse_smiles


def test_render_lays_out_each_compound_once():
    render.spring_layout.cache_clear()
    g = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
    values = np.linspace(-1.0, 1.0, g.num_atoms)
    first = render.render_molecule_svg(g, values, "ASP", "aspirin")
    second = render.render_molecule_svg(g, values, "ASP", "aspirin")
    assert first == second
    info = render.spring_layout.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # the shared layout is the one a fresh computation gives, and read-only
    pos = render.spring_layout(g, "ASP")
    assert np.array_equal(pos, render.spring_layout.__wrapped__(g, "ASP"))
    with pytest.raises(ValueError):
        pos[0, 0] = 0.0
    render.spring_layout(g, "ASP2")
    assert render.spring_layout.cache_info().misses == 2


def test_render_escapes_the_title():
    g = parse_smiles("CCO")
    svg = render.render_molecule_svg(g, np.zeros(3), "A&B<1>", "A&B<1> cam")
    root = ElementTree.fromstring(svg)
    title = next(root.iter("{http://www.w3.org/2000/svg}text"))
    assert title.text == "A&B<1> cam"
