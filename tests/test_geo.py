import json
import math
import pathlib
import re
import types
import warnings

import numpy as np
import pytest

from navpredict.geo import (
    BUILTIN_FRAMES,
    MIAMI,
    PITTSBURGH,
    CityFrame,
    FrameMismatchError,
    GeoPoint,
    InvalidCoordinateError,
    LocalPoint,
    OutOfZoneError,
    UtmPoint,
    geo_to_local,
    geo_to_local_arrays,
    load_frames,
    local_to_utm,
    utm_to_local,
    utm_to_wgs84,
    wgs84_to_utm,
)

import geodesy_oracle

DATA = pathlib.Path(__file__).parent / "data"

# A southern-hemisphere frame: its origin northing includes the false
# northing of 10,000 km.
SYDNEY = CityFrame("sydney", 56, 334000.0, 6250000.0)


def test_central_meridian_equator_maps_to_false_easting():
    u = wgs84_to_utm(GeoPoint(0.0, -81.0), 17)
    assert u.easting == 500000.0
    assert u.northing == 0.0


@pytest.mark.parametrize("lat,lon", [(25.8, -80.19), (40.44, -79.99)])
def test_forward_matches_independent_oracle(lat, lon):
    e_ref, n_ref = geodesy_oracle.forward(lat, lon, 17)
    u = wgs84_to_utm(GeoPoint(lat, lon), 17)
    assert abs(u.easting - e_ref) < 1e-3
    assert abs(u.northing - n_ref) < 1e-3


def test_forward_matches_frozen_vector_file():
    rows = json.loads((DATA / "utm_vectors.json").read_text())
    assert len(rows) >= 20
    for row in rows:
        u = wgs84_to_utm(GeoPoint(row["lat"], row["lon"]), row["zone"])
        assert abs(u.easting - row["easting"]) < 1e-3
        assert abs(u.northing - row["northing"]) < 1e-3


def test_inverse_of_central_meridian_case():
    g = utm_to_wgs84(UtmPoint(500000.0, 0.0, 17))
    assert g.lat == pytest.approx(0.0, abs=1e-12)
    assert g.lon == pytest.approx(-81.0, abs=1e-12)


@pytest.mark.parametrize("lat,lon", [(25.8, -80.19), (40.44, -79.99)])
def test_round_trip_identity(lat, lon):
    g = utm_to_wgs84(wgs84_to_utm(GeoPoint(lat, lon), 17))
    assert abs(g.lat - lat) < 1e-9
    assert abs(g.lon - lon) < 1e-9


def test_round_trip_1000_random_points():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        lat = float(rng.uniform(24.0, 42.0))
        lon = float(rng.uniform(-84.0, -78.0))
        g = utm_to_wgs84(wgs84_to_utm(GeoPoint(lat, lon), 17))
        assert abs(g.lat - lat) < 1e-9
        assert abs(g.lon - lon) < 1e-9


def test_projection_monotone_in_longitude_along_equator():
    lons = np.linspace(-83.5, -78.5, 40)
    eastings = [wgs84_to_utm(GeoPoint(0.0, float(l)), 17).easting
                for l in lons]
    assert all(a < b for a, b in zip(eastings, eastings[1:]))


def test_out_of_zone_rejected():
    with pytest.raises(OutOfZoneError):
        wgs84_to_utm(GeoPoint(30.0, -90.0), 17)


def test_invalid_coordinates_rejected():
    with pytest.raises(InvalidCoordinateError):
        GeoPoint(95.0, 0.0)
    with pytest.raises(InvalidCoordinateError):
        GeoPoint(0.0, 200.0)
    with pytest.raises(InvalidCoordinateError):
        GeoPoint(float("nan"), 0.0)
    with pytest.raises(InvalidCoordinateError):
        UtmPoint(0.0, 0.0, 17)
    with pytest.raises(InvalidCoordinateError):
        UtmPoint(500000.0, 0.0, 61)


def test_miami_origin_maps_to_frame_zero():
    p = utm_to_local(UtmPoint(580560.0088, 2850959.9999, 17), MIAMI)
    assert p.x == 0.0
    assert p.y == 0.0


def test_pittsburgh_origin_maps_to_frame_zero():
    p = utm_to_local(UtmPoint(583710.0070, 4477259.9999, 17), PITTSBURGH)
    assert p.x == 0.0
    assert p.y == 0.0


def test_utm_to_local_is_pure_translation():
    p = utm_to_local(UtmPoint(580561.0088, 2850961.9999, 17), MIAMI)
    assert p.x == pytest.approx(1.0, abs=1e-9)
    assert p.y == pytest.approx(2.0, abs=1e-9)


def test_zone_mismatch_rejected():
    with pytest.raises(FrameMismatchError):
        utm_to_local(UtmPoint(500000.0, 0.0, 18), MIAMI)


def test_local_translation_preserves_distances():
    rng = np.random.default_rng(3)
    for _ in range(200):
        e1, n1 = rng.uniform(400000, 700000), rng.uniform(2.8e6, 4.5e6)
        e2, n2 = e1 + rng.uniform(-5000, 5000), n1 + rng.uniform(-5000, 5000)
        a = utm_to_local(UtmPoint(e1, n1, 17), MIAMI)
        b = utm_to_local(UtmPoint(e2, n2, 17), MIAMI)
        d_utm = math.hypot(e2 - e1, n2 - n1)
        d_loc = math.hypot(b.x - a.x, b.y - a.y)
        assert abs(d_loc - d_utm) <= 1e-12 * max(1.0, d_utm)


def test_local_to_utm_round_trip():
    u = UtmPoint(581234.5, 2851999.25, 17)
    back = local_to_utm(utm_to_local(u, MIAMI), MIAMI)
    assert back.easting == pytest.approx(u.easting, abs=1e-9)
    assert back.northing == pytest.approx(u.northing, abs=1e-9)


def test_geo_to_local_composition():
    frame = CityFrame("equator", 17, 500000.0, 0.0)
    p = geo_to_local(GeoPoint(0.0, -81.0), frame)
    assert p.x == 0.0
    assert p.y == 0.0


@pytest.mark.parametrize("lat,lon,frame", [
    (25.8, -80.19, MIAMI),
    (40.44, -79.99, PITTSBURGH),
])
def test_geo_to_local_matches_oracle_composition(lat, lon, frame):
    e_ref, n_ref = geodesy_oracle.forward(lat, lon, frame.zone)
    p = geo_to_local(GeoPoint(lat, lon), frame)
    assert abs(p.x - (e_ref - frame.origin_easting)) < 1e-3
    assert abs(p.y - (n_ref - frame.origin_northing)) < 1e-3


def test_load_frames_merges_builtins(tmp_path):
    cfg = tmp_path / "frames.json"
    cfg.write_text(json.dumps([
        {"name": "testville", "zone": 18, "origin_easting": 1.0,
         "origin_northing": 2.0},
    ]))
    frames = load_frames(cfg)
    assert set(BUILTIN_FRAMES) <= set(frames)
    assert frames["testville"].zone == 18


def test_local_point_requires_finite():
    with pytest.raises(InvalidCoordinateError):
        LocalPoint(float("inf"), 0.0)


@pytest.mark.parametrize("frame,lat0", [
    (MIAMI, 25.8),
    (PITTSBURGH, 40.44),
    (SYDNEY, -33.87),
])
def test_array_kernel_matches_oracle_on_grid(frame, lat0):
    meridian = -183.0 + 6.0 * frame.zone
    lat, lon = (a.ravel() for a in np.meshgrid(
        np.linspace(lat0 - 1.0, lat0 + 1.0, 9),
        np.linspace(meridian - 1.5, meridian + 1.5, 9)))
    x, y = geo_to_local_arrays(lat, lon, frame)
    for la, lo, px, py in zip(lat.tolist(), lon.tolist(),
                              x.tolist(), y.tolist()):
        e_ref, n_ref = geodesy_oracle.forward(la, lo, frame.zone)
        if la < 0.0:
            n_ref += 10000000.0
        assert abs(px - (e_ref - frame.origin_easting)) < 1e-3
        assert abs(py - (n_ref - frame.origin_northing)) < 1e-3


@pytest.mark.parametrize("zone", [0, 61])
def test_bad_zone_rejected(zone):
    message = f"^zone out of range: {zone}$"
    with pytest.raises(InvalidCoordinateError, match=message):
        wgs84_to_utm(GeoPoint(0.0, -81.0), zone)
    # A frame that skipped CityFrame's own check.
    frame = types.SimpleNamespace(zone=zone, origin_easting=0.0,
                                  origin_northing=0.0)
    with pytest.raises(InvalidCoordinateError, match=message):
        geo_to_local_arrays([0.0], [-81.0], frame)


@pytest.mark.parametrize("lat,lon,error,message", [
    (95.0, -80.2, InvalidCoordinateError, "latitude out of range: 95.0"),
    (math.nan, -80.2, InvalidCoordinateError, "non-finite coordinate"),
    (25.8, 180.0, InvalidCoordinateError, "longitude out of range: 180.0"),
    (25.8, -90.5, OutOfZoneError, "longitude -90.5 is 9.500 deg from the "
                                  "central meridian of zone 17 (limit 3.5)"),
])
def test_array_kernel_raises_for_first_bad_row(lat, lon, error, message):
    # Row 1 is bad and row 2 out of zone: row 1's error, without a
    # floating-point warning on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=re.escape(message)):
            geo_to_local_arrays([25.8, lat, 25.8], [-80.2, lon, -70.0],
                                MIAMI)
