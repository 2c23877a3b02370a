"""Colored-graph and terminal rendering."""

import re

import numpy as np
import pytest

from tankfdi import fuzzy, harness, plant, render
from tankfdi.render import color_index, emit_ansi, emit_dot

import oracle
from conftest import OPERATING_INPUTS

ALL_GREEN_DOT = """digraph system_state {
  rankdir=LR;
  node [style=filled, shape=ellipse, fontname="Helvetica"];
  "Msf1" [fillcolor="#00FF00", label="Msf1 (0.00)"];
  "Msf2" [fillcolor="#00FF00", label="Msf2 (0.00)"];
  "De1" [fillcolor="#00FF00", label="De1 (0.00)"];
  "De2" [fillcolor="#00FF00", label="De2 (0.00)"];
  "De3" [fillcolor="#00FF00", label="De3 (0.00)"];
  "Df1" [fillcolor="#00FF00", label="Df1 (0.00)"];
  "Df2" [fillcolor="#00FF00", label="Df2 (0.00)"];
  "De1" -> "Df1";
  "De2" -> "Df2";
  "Df1" -> "De1";
  "Df1" -> "De2";
  "Df2" -> "De2";
  "Df2" -> "De3";
  "Msf1" -> "De1";
  "Msf2" -> "De3";
}
"""


def tokenize_dot(text):
    """Minimal DOT tokenizer: quoted strings, brackets, arrows, words."""
    token_re = re.compile(r'"[^"]*"|->|[{}\[\];=,]|[A-Za-z_][A-Za-z0-9_]*')
    pos, tokens = 0, []
    for match in token_re.finditer(text):
        between = text[pos:match.start()]
        assert between.strip() == "", f"untokenizable DOT text: {between!r}"
        tokens.append(match.group())
        pos = match.end()
    assert text[pos:].strip() == ""
    return tokens


class TestColorIndex:
    def test_endpoints_and_midpoint(self):
        assert color_index(0.0) == "#00FF00"
        assert color_index(1.0) == "#FF0000"
        assert color_index(0.5) == "#FFFF00"

    def test_clamps_out_of_range(self):
        assert color_index(-3.0) == "#00FF00"
        assert color_index(7.0) == "#FF0000"

    def test_equal_degrees_equal_colors(self):
        assert color_index(0.321) == color_index(0.321)

    def test_monotone_red_channel(self):
        degrees = np.linspace(0, 1, 21)
        reds = [int(color_index(d)[1:3], 16) for d in degrees]
        greens = [int(color_index(d)[5:7], 16) for d in degrees]
        assert all(b >= a for a, b in zip(reds, reds[1:]))
        assert greens == [0] * 21  # hue sweep stays on the red-green edge

    def test_continuity(self):
        a = np.array([int(color_index(0.25)[i:i + 2], 16) for i in (1, 3, 5)])
        b = np.array([int(color_index(0.2501)[i:i + 2], 16) for i in (1, 3, 5)])
        assert np.abs(a - b).max() <= 1


class TestEmitDot:
    def test_all_green_golden(self):
        assert emit_dot([0.0] * 7) == ALL_GREEN_DOT

    def test_byte_stable(self):
        degrees = [0.1, 0.9, 0.4, 0.0, 1.0, 0.2, 0.6]
        assert emit_dot(degrees) == emit_dot(degrees)

    def test_tokenizes_as_digraph(self):
        tokens = tokenize_dot(emit_dot([0.3] * 7))
        assert tokens[0] == "digraph"
        assert tokens.count("->") == len(render.EDGES)
        assert tokens[-1] == "}"

    def test_equals_the_line_by_line_oracle(self):
        rng = np.random.default_rng(17)
        # on a grid that lands on the .2f rounding ties, and off it
        grid = rng.integers(-100, 1101, (1000, 7)) / 1000
        for degrees in [*grid, *rng.uniform(-0.5, 1.5, (1000, 7))]:
            assert emit_dot(degrees) == oracle.emit_dot(degrees)

    def test_degree_count_enforced(self):
        with pytest.raises(ValueError):
            emit_dot([0.0] * 6)

    def node_red_channel(self, dot, name):
        line = next(ln for ln in dot.splitlines() if f'"{name}" [' in ln)
        return int(line.split('fillcolor="#')[1][:2], 16)

    def test_detected_pair_shows_red_shifted_nodes(self, params, tuned_cfg):
        # qualitative check on a De2+Msf2 injection: the faulted nodes move
        # off pure green (De2 saturating to red), variables outside the
        # pattern stay exactly green
        events = (plant.FaultEvent("De2", 5.0, 2.5),
                  plant.FaultEvent("Msf2", 5.0, 2.5))
        sc = plant.FaultScenario(seed=2, duration=15.0, dt=0.1, events=events)
        _, resid = oracle.simulate_residuals(sc, params, OPERATING_INPUTS)
        degrees, _ = fuzzy.DetectorKernel(tuned_cfg).run(resid)
        dot = emit_dot(degrees[-1])
        assert self.node_red_channel(dot, "De2") == 0xFF
        assert self.node_red_channel(dot, "Msf2") > 0x40
        for cold in ("Msf1", "De1", "Df1"):
            assert self.node_red_channel(dot, cold) == 0

    def test_isolable_pair_fully_separates(self, params, tuned_cfg):
        # an isolable combination drives both faulted nodes deep red
        events = (plant.FaultEvent("De1", 5.0, 2.5),
                  plant.FaultEvent("Msf2", 5.0, 2.5))
        sc = plant.FaultScenario(seed=2, duration=15.0, dt=0.1, events=events)
        _, resid = oracle.simulate_residuals(sc, params, OPERATING_INPUTS)
        degrees, _ = fuzzy.DetectorKernel(tuned_cfg).run(resid)
        dot = emit_dot(degrees[-1])
        assert self.node_red_channel(dot, "De1") == 0xFF
        assert self.node_red_channel(dot, "Msf2") == 0xFF
        for cold in ("Msf1", "De2", "De3", "Df1", "Df2"):
            assert self.node_red_channel(dot, cold) == 0


class TestEmitAnsi:
    def test_plain_when_color_disabled(self):
        text = emit_ansi([0.0] * 7, no_color=True)
        assert "\x1b" not in text
        assert text.splitlines()[0].startswith("Msf1")

    def test_green_escape_for_zero_degree(self):
        first = emit_ansi([0.0] * 7).splitlines()[0]
        assert "\x1b[48;2;0;255;0m" in first

    def test_seven_rows_fixed_order(self):
        lines = emit_ansi(np.linspace(0, 1, 7)).splitlines()
        assert len(lines) == 7
        assert [ln.split()[-2] for ln in lines] == list(plant.VARIABLES)
