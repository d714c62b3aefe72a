import gc
import io
import logging
import pathlib
import random
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from navpredict.osm_ingest import (
    ROAD_TYPE_WHITELIST,
    DuplicateNodeError,
    OsmNode,
    OsmParseError,
    OsmWay,
    build_nav_graph,
    parse_osm,
)
from navpredict.road_graph import load_graph, save_graph

FIXTURE = pathlib.Path(__file__).parent / "data" / "fixture.osm"

# Documented fixture content: 50 nodes; 12 ways of which 8 are
# whitelisted and resolvable (way 110 has a dangling ref, ways
# 103/108/112 are non-car types), yielding 23 graph nodes and 25 edges.
FIXTURE_NODES = 50
FIXTURE_WAYS = 12
FIXTURE_GRAPH_NODES = 23
FIXTURE_GRAPH_EDGES = 25


def _doc(body: str) -> io.BytesIO:
    return io.BytesIO(
        f'<?xml version="1.0"?><osm>{body}</osm>'.encode("utf-8")
    )


MINIMAL = (
    '<node id="1" lat="25.8" lon="-80.2"/>'
    '<node id="2" lat="25.801" lon="-80.201"/>'
    '<way id="10"><nd ref="1"/><nd ref="2"/>'
    '<tag k="highway" v="residential"/></way>'
)


def test_whitelist_is_exactly_the_13_road_types():
    assert len(ROAD_TYPE_WHITELIST) == 13
    assert "residential" in ROAD_TYPE_WHITELIST
    assert "footway" not in ROAD_TYPE_WHITELIST


def test_parse_minimal_document():
    nodes, ways = parse_osm(_doc(MINIMAL))
    assert len(nodes) == 2
    assert len(ways) == 1
    assert ways[0].node_refs == (1, 2)
    assert ways[0].tags["highway"] == "residential"


def test_parsed_nodes_are_a_read_only_view():
    nodes, _ = parse_osm(_doc(
        '<node id="7" lat="25.5" lon="-80.25"/>'
        '<node id="-3" lat="25.25" lon="-80.5"/>'))
    assert list(nodes) == [7, -3] and len(nodes) == 2
    assert nodes == {7: OsmNode(7, 25.5, -80.25),
                     -3: OsmNode(-3, 25.25, -80.5)}
    assert -3 in nodes and 3 not in nodes
    with pytest.raises(KeyError):
        nodes[3]
    with pytest.raises(TypeError):
        nodes[3] = OsmNode(3, 0.0, 0.0)


def test_relations_are_ignored():
    nodes, ways = parse_osm(_doc(
        MINIMAL + '<relation id="5"><member type="way" ref="10"/></relation>'
    ))
    assert len(nodes) == 2
    assert len(ways) == 1


def test_unknown_tags_ignored():
    nodes, ways = parse_osm(_doc(
        '<node id="1" lat="0" lon="0" visible="true"/>'
        '<bounds minlat="0" minlon="0" maxlat="1" maxlon="1"/>'
    ))
    assert len(nodes) == 1
    assert ways == []


def test_malformed_xml_reports_position():
    with pytest.raises(OsmParseError, match=r"line \d+, column \d+"):
        parse_osm(io.BytesIO(b"<osm><node id='1'"))


def test_duplicate_node_id_rejected():
    with pytest.raises(DuplicateNodeError):
        parse_osm(_doc(
            '<node id="1" lat="0" lon="0"/><node id="1" lat="1" lon="1"/>'
        ))


def test_fixture_counts():
    with open(FIXTURE, "rb") as fh:
        nodes, ways = parse_osm(fh)
    assert len(nodes) == FIXTURE_NODES
    assert len(ways) == FIXTURE_WAYS
    assert ways[0].tags["name"] == "way 101"


def test_fixture_graph():
    with open(FIXTURE, "rb") as fh:
        nodes, ways = parse_osm(fh)
    graph = build_nav_graph(nodes, ways)
    assert len(graph.nodes) == FIXTURE_GRAPH_NODES
    assert len(graph.edges) == FIXTURE_GRAPH_EDGES
    # oneway=yes way 102: forward only
    assert (4, 5) in graph.edges and (5, 4) not in graph.edges
    # oneway=-1 way 104: reverse only
    assert (10, 9) in graph.edges and (9, 10) not in graph.edges
    # skipped way 110: no edge from node 24
    assert all(24 not in edge for edge in graph.edges)


def test_bidirectional_default_expansion():
    nodes, ways = parse_osm(_doc(
        '<node id="1" lat="0" lon="0"/><node id="2" lat="0" lon="0.001"/>'
        '<node id="3" lat="0" lon="0.002"/>'
        '<way id="7"><nd ref="1"/><nd ref="2"/><nd ref="3"/>'
        '<tag k="highway" v="residential"/></way>'
    ))
    graph = build_nav_graph(nodes, ways)
    assert set(graph.edges) == {(1, 2), (2, 1), (2, 3), (3, 2)}


def test_non_whitelisted_way_yields_empty_graph():
    nodes, ways = parse_osm(_doc(
        '<node id="1" lat="0" lon="0"/><node id="2" lat="0" lon="0.001"/>'
        '<way id="7"><nd ref="1"/><nd ref="2"/>'
        '<tag k="highway" v="footway"/></way>'
    ))
    graph = build_nav_graph(nodes, ways)
    assert graph.nodes == {}
    assert graph.edges == ()


def test_oneway_single_edge():
    nodes, ways = parse_osm(_doc(
        '<node id="1" lat="0" lon="0"/><node id="2" lat="0" lon="0.001"/>'
        '<way id="7"><nd ref="1"/><nd ref="2"/>'
        '<tag k="highway" v="motorway"/><tag k="oneway" v="yes"/></way>'
    ))
    graph = build_nav_graph(nodes, ways)
    assert graph.edges == ((1, 2),)


def test_missing_ref_skips_way_whole(caplog):
    nodes, ways = parse_osm(_doc(
        '<node id="1" lat="0" lon="0"/><node id="2" lat="0" lon="0.001"/>'
        '<way id="7"><nd ref="1"/><nd ref="2"/><nd ref="99"/>'
        '<tag k="highway" v="residential"/></way>'
    ))
    with caplog.at_level("WARNING"):
        graph = build_nav_graph(nodes, ways)
    assert graph.edges == ()
    assert any("unresolved" in rec.message for rec in caplog.records)


def test_edge_count_formula_on_fixture():
    with open(FIXTURE, "rb") as fh:
        nodes, ways = parse_osm(fh)
    graph = build_nav_graph(nodes, ways)
    expected = 0
    for way in ways:
        if way.tags.get("highway") not in ROAD_TYPE_WHITELIST:
            continue
        if any(ref not in nodes for ref in way.node_refs):
            continue
        per_pair = 1 if way.tags.get("oneway") in ("yes", "true", "1", "-1") \
            else 2
        expected += (len(way.node_refs) - 1) * per_pair
    assert len(graph.edges) == expected


def test_referential_integrity():
    with open(FIXTURE, "rb") as fh:
        nodes, ways = parse_osm(fh)
    graph = build_nav_graph(nodes, ways)
    for src, dst in graph.edges:
        assert src in graph.nodes
        assert dst in graph.nodes


def test_save_load_round_trip(tmp_path):
    with open(FIXTURE, "rb") as fh:
        nodes, ways = parse_osm(fh)
    graph = build_nav_graph(nodes, ways)
    path = tmp_path / "graph.txt"
    save_graph(graph, path)
    reloaded = load_graph(path)
    assert set(reloaded.nodes) == set(graph.nodes)
    assert set(reloaded.edges) == set(graph.edges)
    # serialization is deterministic
    path2 = tmp_path / "graph2.txt"
    save_graph(reloaded, path2)
    assert path.read_bytes() == path2.read_bytes()


GOLDEN = pathlib.Path(__file__).parent / "data" / "fixture-graph.txt"


def test_fixture_graph_round_trips_the_golden_file(tmp_path):
    # fixture-graph.txt is `navpredict ingest tests/data/fixture.osm
    # --frame miami` as the per-node loader wrote it.
    with open(FIXTURE, "rb") as fh:
        graph = build_nav_graph(*parse_osm(fh))
    save_graph(graph, tmp_path / "built.txt")
    assert (tmp_path / "built.txt").read_bytes() == GOLDEN.read_bytes()
    save_graph(load_graph(GOLDEN), tmp_path / "loaded.txt")
    assert (tmp_path / "loaded.txt").read_bytes() == GOLDEN.read_bytes()


@pytest.mark.parametrize("body,what", [
    ('<node id="9223372036854775808" lat="0" lon="0"/>',
     "node id 9223372036854775808 is outside int64"),
    ('<node id="-9223372036854775809" lat="0" lon="0"/>',
     "node id -9223372036854775809 is outside int64"),
    ('<node id="1" lat="0" lon="0"/><way id="7"><nd ref="1"/>'
     '<nd ref="99999999999999999999"/><tag k="highway" v="residential"/>'
     '</way>', "nd ref 99999999999999999999 is outside int64"),
], ids=["node", "negative-node", "nd-ref"])
def test_ids_outside_int64_rejected(body, what):
    with pytest.raises(OsmParseError, match=what):
        parse_osm(_doc(body))


def test_negative_and_extreme_int64_ids_accepted():
    lo, hi = -2 ** 63, 2 ** 63 - 1
    nodes, ways = parse_osm(_doc(
        f'<node id="{lo}" lat="0" lon="0"/><node id="-2" lat="0" '
        f'lon="0.001"/><node id="{hi}" lat="0" lon="0.002"/>'
        f'<way id="7"><nd ref="{hi}"/><nd ref="-2"/><nd ref="{lo}"/>'
        f'<tag k="highway" v="residential"/></way>'))
    graph = build_nav_graph(nodes, ways)
    assert list(graph.nodes) == [lo, -2, hi]
    assert graph.edges == ((hi, -2), (-2, hi), (-2, lo), (lo, -2))


def _reference_edges(nodes, ways):
    """The per-pair expansion the array pass must reproduce in order."""
    edges = []
    for way in ways:
        refs = way.node_refs
        if (way.tags.get("highway") not in ROAD_TYPE_WHITELIST
                or any(ref not in nodes for ref in refs) or len(refs) < 2):
            continue
        oneway = way.tags.get("oneway", "")
        forward = oneway != "-1"
        backward = oneway not in ("yes", "true", "1")
        for a, b in zip(refs, refs[1:]):
            for keep, edge in ((forward, (a, b)), (backward, (b, a))):
                if keep and a != b and edge not in edges:
                    edges.append(edge)
    return edges


def test_build_matches_per_pair_expansion():
    # Random ways over few nodes: repeated pairs, self-loops, one-way
    # tags, unresolved refs, single-ref ways and non-car roads.
    rng = random.Random(5)
    nodes = {nid: OsmNode(nid, 25.0 + nid * 1e-4, -80.0)
             for nid in range(-6, 14)}
    for trial in range(40):
        ways = []
        for wid in range(rng.randint(0, 12)):
            refs = tuple(rng.choice([*nodes, 99])
                         for _ in range(rng.randint(1, 7)))
            tags = {"highway": rng.choice(["residential", "footway",
                                           "motorway"])}
            oneway = rng.choice([None, "yes", "-1", "true", "no"])
            if oneway:
                tags["oneway"] = oneway
            ways.append(OsmWay(wid, refs, tags))
        expected = _reference_edges(nodes, ways)
        graph = build_nav_graph(nodes, ways)
        assert list(graph.edges) == expected, trial
        assert list(graph.nodes) == sorted({n for e in expected for n in e})


def _reference_parse(source):
    """The ElementTree parse the expat handlers must reproduce: each node
    and way is read at its end tag, a way's refs and tags from its direct
    children."""
    nodes, ways = {}, []
    for _event, elem in ET.iterparse(source, events=("end",)):
        if elem.tag == "node":
            nid = int(elem.attrib["id"])
            assert nid not in nodes
            nodes[nid] = OsmNode(nid, float(elem.attrib["lat"]),
                                 float(elem.attrib["lon"]))
        elif elem.tag == "way":
            refs = [int(child.attrib["ref"]) for child in elem
                    if child.tag == "nd"]
            tags = {child.attrib["k"]: child.attrib["v"] for child in elem
                    if child.tag == "tag"}
            ways.append(OsmWay(int(elem.attrib["id"]), tuple(refs), tags))
    return nodes, ways


def _random_document(rng: random.Random) -> str:
    """A well-formed document of unique nodes and of ways, relations,
    bounds and unknown elements, nested at random."""
    lo, hi = -2 ** 63, 2 ** 63 - 1
    pool = rng.sample([lo, lo + 1, -7, -1, 0, 1, 2, 3, 5, 8, 13, 99,
                       2 ** 31, 2 ** 53 + 1, hi - 1, hi], rng.randint(0, 16))
    absent = [4, -2, 2 ** 40]
    lats = ["0", "-0.0", "25.8", "1e-3", "89.99999999", "-45.5",
            "12.345678901234567", " 7 "]
    lons = ["0", "-80.2", "-179.5", "179.99", "1e-3", "2.5E1"]

    def node(nid):
        head = (f'<node id="{nid}" lat="{rng.choice(lats)}" '
                f'lon="{rng.choice(lons)}" version="2"')
        if rng.random() < 0.3:
            return f'{head}><tag k="highway" v="traffic_signals"/></node>'
        return head + "/>"

    def ref():
        return rng.choice(absent if not pool or rng.random() < 0.05
                          else pool)

    def way(wid, depth=0):
        parts = [f'<nd ref="{ref()}"/>'
                 for _ in range(rng.choice([0, 1, 2, 3, 4, 6]))]
        highway = rng.choice(["residential", "motorway", "footway",
                              "primary"])
        parts.append(f'<tag k="highway" v="{highway}"/>')
        oneway = rng.choice([None, "yes", "true", "1", "-1", "no",
                             "reversible"])
        if oneway:
            parts.append(f'<tag k="oneway" v="{oneway}"/>')
        if rng.random() < 0.3:
            # A nested element: its nd and tag children are not the way's.
            parts.append(f'<extra><nd ref="{ref()}"/>'
                         '<tag k="highway" v="trunk"/></extra>')
        if depth == 0 and rng.random() < 0.15:
            parts.append(way(wid + 1000, depth + 1))
        rng.shuffle(parts)
        return f'<way id="{wid}">{"".join(parts)}</way>'

    items = [node(nid) for nid in pool]
    items += [way(wid) for wid in range(rng.randint(0, 8))]
    items.append('<relation id="5"><member type="way" ref="1" role=""/>'
                 '<tag k="type" v="route"/><nd ref="1"/></relation>')
    items.append('<bounds minlat="0" minlon="0" maxlat="1" maxlon="1"/>')
    items.append('<nd ref="3"/><tag k="highway" v="primary"/>')
    rng.shuffle(items)
    # Unknown elements around some items, and a prefixed or default
    # namespace on the root: a default one puts every element in it.
    body = "\n".join(f"<wrap><deeper>{item}</deeper></wrap>"
                     if rng.random() < 0.2 else item for item in items)
    root = rng.choice(["osm"] * 3 + ['o:osm xmlns:o="urn:o"',
                                     'osm xmlns="http://osm.org/0.6"'])
    return (f'<?xml version="1.0" encoding="UTF-8"?>\n<{root}>\n{body}\n'
            f'</{root.split()[0]}>\n')


def _build_logged(nodes, ways, caplog):
    caplog.clear()
    graph = build_nav_graph(nodes, ways)
    return graph, [rec.getMessage() for rec in caplog.records]


def test_parse_matches_elementtree_reference(tmp_path, caplog):
    rng = random.Random(30)
    docs = [FIXTURE.read_text(encoding="utf-8")]
    docs += [_random_document(rng) for _ in range(40)]
    caplog.set_level(logging.WARNING, logger="navpredict.osm_ingest")
    for trial, doc in enumerate(docs):
        expected_nodes, expected_ways = _reference_parse(
            io.BytesIO(doc.encode()))
        nodes, ways = parse_osm(io.BytesIO(doc.encode()))
        assert ways == expected_ways, trial
        ids, lat, lon = nodes.columns
        assert nodes.ids is ids and ids.tolist() == list(expected_nodes), trial
        assert lat.tolist() == [n.lat for n in expected_nodes.values()], trial
        assert lon.tolist() == [n.lon for n in expected_nodes.values()], trial
        assert len(nodes) == len(expected_nodes), trial
        assert list(nodes) == list(expected_nodes), trial
        for nid, node in expected_nodes.items():
            assert nid in nodes and nodes[nid] == node, trial
        for nid in (4, -2, 2 ** 40, 2 ** 70, "1"):
            assert (nid in nodes) == (nid in expected_nodes), trial
        # The arrays and a plain dict of the same nodes build one graph,
        # with the same warnings.
        built, warned = _build_logged(nodes, ways, caplog)
        from_dict, dict_warned = _build_logged(expected_nodes, ways, caplog)
        assert warned == dict_warned, trial
        save_graph(built, tmp_path / "arrays.txt")
        save_graph(from_dict, tmp_path / "dict.txt")
        assert ((tmp_path / "arrays.txt").read_bytes()
                == (tmp_path / "dict.txt").read_bytes()), trial


_HEAD = ('<?xml version="1.0"?>\n<osm>\n'
         '  <node id="1" lat="25.8" lon="-80.2"/>\n')
_WAY = '  <way id="7">\n    <nd ref="1"/>\n    {}\n  </way>\n</osm>\n'
_BAD = "bad OSM element attributes: "

# (document, error text of the ElementTree parser, (line, column) of the
# faulty element's start tag, or None where the XML itself is malformed
# and the text must not change at all).
ERROR_CASES = {
    "truncated": (
        _HEAD, "malformed OSM XML at line 4, column 0: no element found: "
        "line 4, column 0", None),
    "unclosed-token": (
        _HEAD + '  <node id="2"', "malformed OSM XML at line 4, column 2: "
        "unclosed token: line 4, column 2", None),
    "mismatched-tag": (
        _HEAD + '  <way id="7"><nd ref="1"/></node>\n</osm>\n',
        "malformed OSM XML at line 4, column 29: mismatched tag: line 4, "
        "column 29", None),
    "junk-after-root": (
        _HEAD + "</osm>\n<osm/>\n", "malformed OSM XML at line 5, column 0: "
        "junk after document element: line 5, column 0", None),
    "unbound-prefix": (
        _HEAD + '  <p:node id="2" lat="0" lon="0"/>\n</osm>\n',
        "malformed OSM XML at line 4, column 2: unbound prefix: line 4, "
        "column 2", None),
    "undefined-entity-under-external-dtd": (
        '<?xml version="1.0"?>\n<!DOCTYPE osm SYSTEM "osm.dtd">\n<osm>\n'
        '  <node id="1" lat="0" lon="0">&nbsp;</node>\n</osm>\n',
        "malformed OSM XML at line 4, column 31: undefined entity &nbsp;: "
        "line 4, column 31", None),
    "missing-id": (
        _HEAD + '  <node lat="0" lon="0"/>\n</osm>\n', _BAD + "'id'", (4, 2)),
    "missing-lat": (
        _HEAD + '  <node id="2" lon="0"/>\n</osm>\n', _BAD + "'lat'", (4, 2)),
    "missing-lon": (
        _HEAD + '  <node id="2" lat="0"/>\n</osm>\n', _BAD + "'lon'", (4, 2)),
    "missing-ref": (_HEAD + _WAY.format("<nd/>"), _BAD + "'ref'", (6, 4)),
    "missing-k": (
        _HEAD + _WAY.format('<tag v="residential"/>'), _BAD + "'k'", (6, 4)),
    "missing-v": (
        _HEAD + _WAY.format('<tag k="highway"/>'), _BAD + "'v'", (6, 4)),
    "bad-int": (
        _HEAD + '  <node id="2x" lat="0" lon="0"/>\n</osm>\n',
        _BAD + "invalid literal for int() with base 10: '2x'", (4, 2)),
    "bad-float": (
        _HEAD + '  <node id="2" lat="0" lon="west"/>\n</osm>\n',
        _BAD + "could not convert string to float: 'west'", (4, 2)),
    "node-id-outside-int64": (
        _HEAD + '  <node id="-9223372036854775809" lat="0" lon="0"/>\n'
        '</osm>\n',
        _BAD + "node id -9223372036854775809 is outside int64", (4, 2)),
    "nd-ref-outside-int64": (
        _HEAD + _WAY.format('<nd ref="9223372036854775808"/>'),
        _BAD + "nd ref 9223372036854775808 is outside int64", (6, 4)),
    "duplicate": (
        _HEAD + '  <node id="1" lat="0" lon="0"/>\n</osm>\n',
        "duplicate node id 1", (4, 2)),
    "bad-float-before-duplicate": (
        _HEAD + '  <node id="2" lat="x" lon="0"/>\n'
        '  <node id="1" lat="0" lon="0"/>\n</osm>\n',
        _BAD + "could not convert string to float: 'x'", (4, 2)),
    "duplicate-before-bad-ref": (
        _HEAD + '  <node id="1" lat="0" lon="0"/>\n'
        + _WAY.format('<nd ref="y"/>'), "duplicate node id 1", (4, 2)),
    "bad-node-before-malformed-xml": (
        _HEAD + '  <node id="2" lat="0"/>\n  <a></b>\n</osm>\n',
        _BAD + "'lon'", (4, 2)),
    "malformed-xml-before-bad-node": (
        _HEAD + '  <a></b>\n  <node id="2" lat="0"/>\n</osm>\n',
        "malformed OSM XML at line 4, column 7: mismatched tag: line 4, "
        "column 7", None),
}


@pytest.mark.parametrize("source", ["path", "file"])
@pytest.mark.parametrize("case", list(ERROR_CASES))
def test_parse_error_text(tmp_path, case, source):
    doc, text, position = ERROR_CASES[case]
    path = tmp_path / "bad.osm"
    path.write_text(doc, encoding="utf-8")
    with pytest.raises(OsmParseError) as info:
        parse_osm(str(path) if source == "path" else io.BytesIO(doc.encode()))
    if position is not None:
        line, column = position
        text = f"OSM element at line {line}, column {column}: {text}"
    assert str(info.value) == text
    assert isinstance(info.value, DuplicateNodeError) == ("duplicate" in text)


def test_nodes_keep_the_order_of_their_start_tags():
    # A node inside a node comes after it, as its start tag does.
    nodes, _ = parse_osm(_doc(
        '<node id="5" lat="1" lon="1"><node id="3" lat="2" lon="2"/></node>'
        '<node id="4" lat="3" lon="3"/>'))
    assert list(nodes) == [5, 3, 4]
    assert nodes[3] == OsmNode(3, 2.0, 2.0)


def _grid_document(side: int) -> bytes:
    """``side`` x ``side`` nodes and one residential way per row."""
    lines = ['<?xml version="1.0"?>', "<osm>"]
    for i in range(side * side):
        lat, lon = 25.7 + i // side * 1e-4, -80.2 + i % side * 1e-4
        lines.append(f'  <node id="{i + 1}" lat="{lat:.7f}" lon="{lon:.7f}"/>')
    for row in range(side):
        refs = "".join(f'<nd ref="{row * side + col + 1}"/>'
                       for col in range(side))
        lines.append(f'  <way id="{row + 1}">{refs}'
                     '<tag k="highway" v="residential"/></way>')
    lines.append("</osm>")
    return "\n".join(lines).encode()


def test_parse_memory_of_a_10k_node_document():
    # No object per node: ids, lat and lon go to three arrays, and the
    # set of ids seen is freed on return, not by a later collection.
    data = _grid_document(100)
    parse_osm(io.BytesIO(data))                # warm up
    gc.collect()
    tracemalloc.start()
    try:
        nodes, ways = parse_osm(io.BytesIO(data))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(nodes) == 10_000 and len(ways) == 100
    # A dict of OsmNode with every element kept under the root held
    # 2.5 MB and peaked at 3.7 MB; the arrays hold 0.64 and peak at 1.64.
    assert held < 1.5e6, held
    assert peak < 2.5e6, peak
