"""The reference commands reproduce the figures pinned in
tests/data/pinned_figures.json (see tests/pinned_figures.py for what is
pinned, the tolerance, and how to rewrite the file)."""

import json

import pytest

import pinned_figures


@pytest.fixture(scope="module")
def pinned():
    with open(pinned_figures.PINNED) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def figures(tmp_path_factory):
    return pinned_figures.collect(tmp_path_factory.mktemp("pinned"))


def test_the_file_pins_every_command(pinned):
    assert list(pinned) == list(pinned_figures.COMMANDS)


@pytest.mark.parametrize("name", list(pinned_figures.COMMANDS))
def test_command_reproduces_its_pinned_figures(name, figures, pinned):
    mismatches = pinned_figures.compare(figures[name], pinned[name], name)
    assert not mismatches, "\n".join(mismatches[:20])


def test_a_moved_figure_is_caught(pinned):
    want = pinned["reconstruct-p1"]
    moved = json.loads(json.dumps(want))
    [_, value] = next(kv for kv in moved["manifest"]
                      if kv[0] == "measured_error")
    nodes = moved["files"]["v_eps.grd"]["field"]["nodes"]
    value["figures"][0] *= 1.0 + 1e-13
    nodes[2] += 1e-13
    assert pinned_figures.compare(moved, want) == []
    value["figures"][0] *= 1.0 + 1e-11
    nodes[2] += 1e-10
    assert [m.partition(":")[0] for m in pinned_figures.compare(
        moved, want)] == ["/manifest[11][1]/figures[0]",
                          "/files/v_eps.grd/field/nodes[2]"]
