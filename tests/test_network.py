from __future__ import annotations

import copy
import dataclasses
import functools
import json
import operator
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pressim.network import (
    ConfigurationError,
    Compass,
    Lane,
    PhaseScheme,
    RoadNetwork,
    TrafficMovement,
    Turn,
    build_grid,
    load_network,
    movements_conflict,
    network_from_dict,
    network_to_dict,
    opposite,
    phase_table,
    save_network,
    turned_heading,
    validate,
    with_phase_scheme,
)
from pressim.sim import FlowSpec, flows_from_list, flows_to_list, load_flows


def test_compass_geometry():
    assert opposite(Compass.N) is Compass.S
    assert opposite(Compass.E) is Compass.W
    assert turned_heading(Compass.N, Turn.LEFT) is Compass.W
    assert turned_heading(Compass.N, Turn.RIGHT) is Compass.E
    assert turned_heading(Compass.S, Turn.LEFT) is Compass.E
    assert turned_heading(Compass.W, Turn.THROUGH) is Compass.W


@pytest.mark.parametrize(
    "rows,cols,n_inter,n_roads",
    [
        (1, 1, 1, 8),
        (2, 2, 4, 8 + 2 * 4 + 4),  # 8 perimeter pairs... computed below instead
        (3, 4, 12, 62),
        (4, 4, 16, 72),
    ],
)
def test_grid_counts(rows, cols, n_inter, n_roads):
    net = build_grid(rows, cols, 400.0, 800.0)
    assert len(net.intersections) == n_inter
    # each intersection touches 8 directed road stubs, interior ones shared
    interior = 2 * (rows * (cols - 1) + cols * (rows - 1))
    perimeter = 2 * (2 * rows + 2 * cols)
    assert len(net.roads) == interior + perimeter
    if rows == 3 and cols == 4:
        assert len(net.roads) == n_roads


def test_grid_is_valid_under_both_schemes():
    for scheme in PhaseScheme:
        net = build_grid(2, 2, 300.0, 300.0, scheme)
        assert validate(net) == []
        for inter in net.intersections:
            assert len(inter.phases) == len(phase_table(scheme))


def test_movement_structure():
    net = build_grid(1, 1, 400.0, 400.0)
    inter = net.intersections[0]
    assert len(inter.movements) == 12
    assert len([m for m in inter.movements if m.signalized]) == 8
    assert len([m for m in inter.movements if not m.signalized]) == 4
    nt = inter.movement("n0_0:NT")
    assert nt.approach is Compass.N
    assert nt.turn is Turn.THROUGH
    # through traffic from the north exits on the southbound road
    (road, _) = net.lane_index[nt.exiting[0]]
    assert (road.src, road.dst) == ("n0_0", "boundary:S0")
    # entering lanes carry the through designation
    for lane_id in nt.entering:
        assert Turn.THROUGH in net.lane_index[lane_id][1].designation
    # exiting covers every lane of the receiving road
    assert set(nt.exiting) == {l.id for l in road.lanes}


def test_single_lane_grid_movements_share_one_lane():
    net = build_grid(2, 2, 300.0, 300.0, lanes_per_approach=1)
    assert validate(net) == []
    for inter in net.intersections:
        for m in inter.movements:
            assert len(m.entering) == 1
    road = net.roads[0]
    assert len(road.lanes) == 1
    assert road.lanes[0].designation == frozenset(Turn)


def test_phase_tables():
    net4 = build_grid(1, 1, 400.0, 400.0, PhaseScheme.FOUR)
    net8 = build_grid(1, 1, 400.0, 400.0, PhaseScheme.EIGHT)
    p4 = [p.movements for p in net4.intersections[0].phases]
    assert p4 == [
        ("n0_0:NT", "n0_0:ST"),
        ("n0_0:ET", "n0_0:WT"),
        ("n0_0:NL", "n0_0:SL"),
        ("n0_0:EL", "n0_0:WL"),
    ]
    p8 = [p.movements for p in net8.intersections[0].phases]
    assert p8[:4] == p4
    assert p8[4:] == [
        ("n0_0:NT", "n0_0:NL"),
        ("n0_0:ST", "n0_0:SL"),
        ("n0_0:ET", "n0_0:EL"),
        ("n0_0:WT", "n0_0:WL"),
    ]


def test_every_signalized_movement_covered_by_some_phase():
    for scheme in PhaseScheme:
        net = build_grid(2, 3, 400.0, 400.0, scheme)
        for inter in net.intersections:
            in_phases = {mid for p in inter.phases for mid in p.movements}
            assert in_phases == {m.id for m in inter.movements if m.signalized}


def _mk_movement(approach: Compass, turn: Turn) -> TrafficMovement:
    return TrafficMovement(
        id=f"x:{approach.value}{turn.value}",
        approach=approach,
        turn=turn,
        entering=("a",),
        exiting=("b",),
    )


@given(
    a=st.sampled_from(list(Compass)),
    ta=st.sampled_from(list(Turn)),
    b=st.sampled_from(list(Compass)),
    tb=st.sampled_from(list(Turn)),
)
def test_conflict_relation_is_symmetric(a, ta, b, tb):
    ma, mb = _mk_movement(a, ta), _mk_movement(b, tb)
    assert movements_conflict(ma, mb) == movements_conflict(mb, ma)


def test_conflict_cases():
    NT = _mk_movement(Compass.N, Turn.THROUGH)
    ST = _mk_movement(Compass.S, Turn.THROUGH)
    SL = _mk_movement(Compass.S, Turn.LEFT)
    ET = _mk_movement(Compass.E, Turn.THROUGH)
    NR = _mk_movement(Compass.N, Turn.RIGHT)
    NL = _mk_movement(Compass.N, Turn.LEFT)
    assert not movements_conflict(NT, ST)  # opposed throughs coexist
    assert movements_conflict(NT, SL)  # opposed left crosses oncoming through
    assert movements_conflict(NT, ET)  # perpendicular
    assert not movements_conflict(NT, NR)  # rights never conflict
    assert not movements_conflict(NT, NL)  # same approach shares the head
    assert movements_conflict(NL, SL) is False  # opposed lefts coexist


def test_validate_flags_conflicting_phase():
    net = build_grid(1, 1, 400.0, 400.0)
    inter = net.intersections[0]
    bad_phase = dataclasses.replace(
        inter.phases[0], movements=("n0_0:NT", "n0_0:ET")
    )
    bad_inter = dataclasses.replace(
        inter, phases=(bad_phase,) + inter.phases[1:]
    )
    broken = RoadNetwork([bad_inter], net.roads, net.phase_scheme)
    assert any("conflicting movements" in v.message for v in validate(broken))


def test_validate_flags_empty_designation():
    net = build_grid(1, 1, 400.0, 400.0)
    road = net.roads[0]
    bare = dataclasses.replace(road.lanes[0], designation=frozenset())
    bad_road = dataclasses.replace(road, lanes=(bare,) + road.lanes[1:])
    rebuilt = [bad_road if r.id == road.id else r for r in net.roads]
    broken = RoadNetwork(net.intersections, rebuilt, net.phase_scheme)
    assert any("designation is empty" in v.message for v in validate(broken))


def test_with_phase_scheme_rebuilds_tables():
    net = build_grid(2, 2, 300.0, 300.0, PhaseScheme.FOUR)
    net8 = with_phase_scheme(net, PhaseScheme.EIGHT)
    assert net8.phase_scheme is PhaseScheme.EIGHT
    assert validate(net8) == []
    for inter in net8.intersections:
        assert len(inter.phases) == 8


def test_serialization_round_trip(tmp_path):
    net = build_grid(3, 4, 400.0, 800.0)
    path = tmp_path / "net.json"
    save_network(net, path)
    loaded = load_network(path)
    assert network_to_dict(loaded) == network_to_dict(net)
    assert validate(loaded) == []


def test_file_format_normative_keys(tmp_path):
    net = build_grid(1, 1, 400.0, 400.0)
    path = tmp_path / "net.json"
    save_network(net, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"phase_scheme", "roads", "intersections"}
    road = doc["roads"][0]
    assert {"id", "from", "to", "length_m", "speed_mps", "lanes"} <= set(road)
    assert {"index", "designation"} <= set(road["lanes"][0])
    inter = doc["intersections"][0]
    assert {"id", "entering_lanes", "exiting_lanes", "movements", "phases"} <= set(inter)


def test_loader_accepts_plain_boundary_marker():
    net = build_grid(1, 1, 400.0, 400.0)
    doc = network_to_dict(net)
    for rdoc in doc["roads"]:
        for key in ("from", "to"):
            if rdoc[key].startswith("boundary:"):
                rdoc[key] = "boundary"
    loaded = network_from_dict(doc)
    assert len(loaded.entry_roads()) == 4
    assert all(net.terminal(r.id) for r in loaded.roads if r.src == "n0_0")


@settings(max_examples=20, deadline=None)
@given(rows=st.integers(1, 3), cols=st.integers(1, 3), lanes=st.sampled_from([1, 3]))
def test_any_small_grid_validates(rows, cols, lanes):
    net = build_grid(rows, cols, 200.0, 250.0, lanes_per_approach=lanes)
    assert validate(net) == []


def test_build_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_grid(0, 2, 400.0, 400.0)
    with pytest.raises(ValueError):
        build_grid(2, 2, -1.0, 400.0)
    with pytest.raises(ValueError):
        build_grid(2, 2, 400.0, 400.0, lanes_per_approach=2)


def test_travel_time():
    net = build_grid(1, 2, 500.0, 300.0, speed_mps=10.0)
    assert net.road_index["n0_0__n0_1"].travel_time == pytest.approx(50.0)


# -- malformed files --------------------------------------------------------

_NETWORK_DOC = network_to_dict(build_grid(1, 1, 300.0, 300.0, lanes_per_approach=1))
_FLOWS_DOC = flows_to_list(
    [FlowSpec(("boundary:W0__n0_0", "n0_0__boundary:E0"), 1.0, 60.0, 4.0)]
)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    """Every key path into a JSON document, the empty path first."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*prefix, key))


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    which=st.sampled_from(["network", "flows"]),
    how=st.sampled_from(["delete", "replace", "truncate"]),
)
def test_loaders_raise_only_configuration_errors(data, which, how):
    """A file with one field deleted or replaced by any JSON value, or cut
    short, either loads or raises ConfigurationError; so does the document,
    handed to its parser directly."""
    doc, load, parse = (
        (_NETWORK_DOC, load_network, network_from_dict)
        if which == "network"
        else (_FLOWS_DOC, load_flows, flows_from_list)
    )
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if how == "truncate":
        text = json.dumps(doc)
        text = text[: data.draw(st.integers(0, len(text) - 1))]
    else:
        if not path:
            doc = data.draw(_json)
        else:
            parent = functools.reduce(operator.getitem, path[:-1], doc)
            if how == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(_json)
        text = json.dumps(doc)
        try:
            parse(doc)
        except ConfigurationError:
            pass
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / f"{which}.json"
        file.write_text(text)
        try:
            load(file)
        except ConfigurationError:
            pass
