"""SVG scatter rendering."""

import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from saco.data import Patch, write_lines
from saco.errors import InvalidInputError
from saco.plotting import svg_scatter


def some_patches(n=12):
    rng = np.random.default_rng(30)
    pts = rng.uniform(size=(n, 2))
    return [Patch(i, pts[i], tuple(pts[i]), int(i % 3), 0) for i in range(n)]


def test_structure_counts():
    patches = some_patches()
    root = ET.fromstring(svg_scatter(patches, selected_ids=[2, 5]))
    assert root.tag.endswith("svg")
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    # one dot per patch plus one ring per selected id
    assert len(circles) == len(patches) + 2
    rings = [c for c in circles if c.get("fill") == "none"]
    assert len(rings) == 2
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "class 0" in texts and "class 2" in texts


def test_title_and_no_selection():
    root = ET.fromstring(svg_scatter(some_patches(4), title="hello plot"))
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "hello plot" in texts


def test_deterministic_output():
    patches = some_patches()
    assert svg_scatter(patches, [1]) == svg_scatter(patches, [1])


def test_empty_rejected():
    with pytest.raises(InvalidInputError):
        svg_scatter([])


def test_write_roundtrip(tmp_path):
    path = tmp_path / "p.svg"
    write_lines(path, [svg_scatter(some_patches(5), [0])])
    content = path.read_text()
    assert content.endswith("</svg>\n")
    ET.fromstring(content)


@pytest.mark.parametrize("selected", [[-1], [12]])
def test_selected_rows_outside_the_set_rejected(selected):
    with pytest.raises(InvalidInputError, match=re.escape(
            f"selected id {selected[0]} at position 0 is not an integer in [0, 12)")):
        svg_scatter(some_patches(12), selected)


@pytest.mark.parametrize("selected, shown", [([4, 1.7], "1.7"), ([True], "True"),
                                             ([4, [1]], "[1]")],
                         ids=["fraction", "bool", "nested"])
def test_a_selected_id_that_is_not_a_row_is_named(selected, shown):
    with pytest.raises(InvalidInputError, match=re.escape(
            f"selected id {shown} at position {len(selected) - 1} is not an integer in [0, 12)")):
        svg_scatter(some_patches(12), selected)
