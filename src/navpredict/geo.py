"""Coordinate transforms between WGS84, UTM and local city frames.

All computation is in 64-bit floats. The forward/inverse transverse
Mercator projection uses a 6th-order Krueger series on the WGS84
ellipsoid, which keeps the error well below 1 mm anywhere inside a UTM
zone (and the slightly widened band this module accepts).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

__all__ = [
    "GeoPoint",
    "UtmPoint",
    "CityFrame",
    "LocalPoint",
    "InvalidCoordinateError",
    "OutOfZoneError",
    "FrameMismatchError",
    "MIAMI",
    "PITTSBURGH",
    "BUILTIN_FRAMES",
    "load_frames",
    "wgs84_to_utm",
    "utm_to_wgs84",
    "utm_to_local",
    "local_to_utm",
    "geo_to_local",
]

# WGS84 ellipsoid and UTM projection constants.
_A = 6378137.0                  # semi-major axis [m]
_INV_F = 298.257223563          # inverse flattening
_F = 1.0 / _INV_F
_E = math.sqrt(_F * (2.0 - _F))  # first eccentricity
_K0 = 0.9996                    # UTM scale factor
_FALSE_EASTING = 500000.0
_FALSE_NORTHING_SOUTH = 10000000.0

# Third flattening and the rectifying radius.
_N = _F / (2.0 - _F)
_RECT_RADIUS = _A / (1.0 + _N) * (
    1.0 + _N**2 / 4.0 + _N**4 / 64.0 + _N**6 / 256.0
)

# Krueger series coefficients, order 6 in the third flattening.
_ALPHA = (
    _N / 2.0 - 2.0 / 3.0 * _N**2 + 5.0 / 16.0 * _N**3
    + 41.0 / 180.0 * _N**4 - 127.0 / 288.0 * _N**5 + 7891.0 / 37800.0 * _N**6,
    13.0 / 48.0 * _N**2 - 3.0 / 5.0 * _N**3 + 557.0 / 1440.0 * _N**4
    + 281.0 / 630.0 * _N**5 - 1983433.0 / 1935360.0 * _N**6,
    61.0 / 240.0 * _N**3 - 103.0 / 140.0 * _N**4 + 15061.0 / 26880.0 * _N**5
    + 167603.0 / 181440.0 * _N**6,
    49561.0 / 161280.0 * _N**4 - 179.0 / 168.0 * _N**5
    + 6601661.0 / 7257600.0 * _N**6,
    34729.0 / 80640.0 * _N**5 - 3418889.0 / 1995840.0 * _N**6,
    212378941.0 / 319334400.0 * _N**6,
)
_BETA = (
    _N / 2.0 - 2.0 / 3.0 * _N**2 + 37.0 / 96.0 * _N**3
    - 1.0 / 360.0 * _N**4 - 81.0 / 512.0 * _N**5 + 96199.0 / 604800.0 * _N**6,
    1.0 / 48.0 * _N**2 + 1.0 / 15.0 * _N**3 - 437.0 / 1440.0 * _N**4
    + 46.0 / 105.0 * _N**5 - 1118711.0 / 3870720.0 * _N**6,
    17.0 / 480.0 * _N**3 - 37.0 / 840.0 * _N**4 - 209.0 / 4480.0 * _N**5
    + 5569.0 / 90720.0 * _N**6,
    4397.0 / 161280.0 * _N**4 - 11.0 / 504.0 * _N**5
    - 830251.0 / 7257600.0 * _N**6,
    4583.0 / 161280.0 * _N**5 - 108847.0 / 3991680.0 * _N**6,
    20648693.0 / 638668800.0 * _N**6,
)

# Longitudes may sit slightly outside the nominal 6 degree zone when a
# neighbouring zone is forced (both built-in city frames pin zone 17).
_MAX_MERIDIAN_OFFSET_DEG = 3.5


class InvalidCoordinateError(ValueError):
    """A latitude/longitude or UTM component is outside its valid range."""


class OutOfZoneError(ValueError):
    """Longitude is too far from the requested zone's central meridian."""


class FrameMismatchError(ValueError):
    """UTM point and city frame disagree on the zone."""


@dataclass(frozen=True)
class GeoPoint:
    """WGS84 position in degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise InvalidCoordinateError(f"non-finite coordinate: {self}")
        if not -90.0 <= self.lat <= 90.0:
            raise InvalidCoordinateError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon < 180.0:
            raise InvalidCoordinateError(f"longitude out of range: {self.lon}")


@dataclass(frozen=True)
class UtmPoint:
    """UTM position in meters within a given zone."""

    easting: float
    northing: float
    zone: int
    hemisphere: str = "N"

    def __post_init__(self):
        if not 1 <= self.zone <= 60:
            raise InvalidCoordinateError(f"zone out of range: {self.zone}")
        if self.hemisphere not in ("N", "S"):
            raise InvalidCoordinateError(
                f"hemisphere must be 'N' or 'S', got {self.hemisphere!r}"
            )
        if not (math.isfinite(self.easting) and math.isfinite(self.northing)):
            raise InvalidCoordinateError(f"non-finite UTM coordinate: {self}")
        if not 0.0 < self.easting < 1000000.0:
            raise InvalidCoordinateError(f"easting out of range: {self.easting}")
        if self.hemisphere == "N" and self.northing < 0.0:
            raise InvalidCoordinateError(
                f"negative northing on northern hemisphere: {self.northing}"
            )


@dataclass(frozen=True)
class CityFrame:
    """Local Cartesian frame: a UTM zone plus a fixed origin."""

    name: str
    zone: int
    origin_easting: float
    origin_northing: float

    def __post_init__(self):
        if not 1 <= self.zone <= 60:
            raise InvalidCoordinateError(f"zone out of range: {self.zone}")
        if not (
            math.isfinite(self.origin_easting)
            and math.isfinite(self.origin_northing)
        ):
            raise InvalidCoordinateError(f"non-finite frame origin: {self}")


@dataclass(frozen=True)
class LocalPoint:
    """Position in a city frame, meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidCoordinateError(f"non-finite local point: {self}")


MIAMI = CityFrame("miami", 17, 580560.0088, 2850959.9999)
PITTSBURGH = CityFrame("pittsburgh", 17, 583710.0070, 4477259.9999)
BUILTIN_FRAMES = {MIAMI.name: MIAMI, PITTSBURGH.name: PITTSBURGH}


def load_frames(path) -> dict[str, CityFrame]:
    """Load city frames from a JSON config file, merged over the built-ins.

    The file holds a list of objects with keys ``name``, ``zone``,
    ``origin_easting`` and ``origin_northing``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        frames = dict(BUILTIN_FRAMES)
        for entry in raw:
            if type(entry["zone"]) is not int:
                raise ValueError(f"zone must be an integer, got "
                                 f"{entry['zone']!r}")
            frame = CityFrame(
                name=str(entry["name"]),
                zone=entry["zone"],
                origin_easting=float(entry["origin_easting"]),
                origin_northing=float(entry["origin_northing"]),
            )
            frames[frame.name] = frame
    except InvalidCoordinateError as exc:
        raise InvalidCoordinateError(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors too.
        raise ValueError(f"{path}: bad frames config "
                         f"({type(exc).__name__}: {exc})") from None
    return frames


def central_meridian_deg(zone: int) -> float:
    return -183.0 + 6.0 * zone


def wgs84_to_utm(p: GeoPoint, zone: int) -> UtmPoint:
    """Project a WGS84 point into the given (caller-chosen) UTM zone."""
    if not 1 <= zone <= 60:
        raise InvalidCoordinateError(f"zone out of range: {zone}")
    lon0 = central_meridian_deg(zone)
    dlon = p.lon - lon0
    if abs(dlon) > _MAX_MERIDIAN_OFFSET_DEG:
        raise OutOfZoneError(
            f"longitude {p.lon} is {abs(dlon):.3f} deg from the central "
            f"meridian of zone {zone} (limit {_MAX_MERIDIAN_OFFSET_DEG})"
        )

    phi = math.radians(p.lat)
    lam = math.radians(dlon)

    tau = math.tan(phi)
    sigma = math.sinh(_E * math.atanh(_E * tau / math.hypot(1.0, tau)))
    taup = tau * math.hypot(1.0, sigma) - sigma * math.hypot(1.0, tau)

    xi_p = math.atan2(taup, math.cos(lam))
    eta_p = math.asinh(math.sin(lam) / math.hypot(taup, math.cos(lam)))

    xi = xi_p
    eta = eta_p
    for j, a in enumerate(_ALPHA, start=1):
        xi += a * math.sin(2 * j * xi_p) * math.cosh(2 * j * eta_p)
        eta += a * math.cos(2 * j * xi_p) * math.sinh(2 * j * eta_p)

    easting = _FALSE_EASTING + _K0 * _RECT_RADIUS * eta
    northing = _K0 * _RECT_RADIUS * xi
    hemisphere = "N" if p.lat >= 0.0 else "S"
    if hemisphere == "S":
        northing += _FALSE_NORTHING_SOUTH
    return UtmPoint(easting, northing, zone, hemisphere)


def _tau_from_taup(taup: float) -> float:
    """Invert the conformal-latitude relation by Newton iteration."""
    e2m = 1.0 - _E * _E
    tau = taup / e2m
    for _ in range(6):
        sigma = math.sinh(_E * math.atanh(_E * tau / math.hypot(1.0, tau)))
        taupa = tau * math.hypot(1.0, sigma) - sigma * math.hypot(1.0, tau)
        dtau = (
            (taup - taupa)
            * (1.0 + e2m * tau * tau)
            / (e2m * math.hypot(1.0, tau) * math.hypot(1.0, taupa))
        )
        tau += dtau
        if abs(dtau) < 1e-16 * max(1.0, abs(tau)):
            break
    return tau


def utm_to_wgs84(p: UtmPoint) -> GeoPoint:
    """Inverse of :func:`wgs84_to_utm`."""
    northing = p.northing
    if p.hemisphere == "S":
        northing -= _FALSE_NORTHING_SOUTH
    xi = northing / (_K0 * _RECT_RADIUS)
    eta = (p.easting - _FALSE_EASTING) / (_K0 * _RECT_RADIUS)

    xi_p = xi
    eta_p = eta
    for j, b in enumerate(_BETA, start=1):
        xi_p -= b * math.sin(2 * j * xi) * math.cosh(2 * j * eta)
        eta_p -= b * math.cos(2 * j * xi) * math.sinh(2 * j * eta)

    taup = math.sin(xi_p) / math.hypot(math.sinh(eta_p), math.cos(xi_p))
    lam = math.atan2(math.sinh(eta_p), math.cos(xi_p))
    tau = _tau_from_taup(taup)

    lat = math.degrees(math.atan(tau))
    lon = central_meridian_deg(p.zone) + math.degrees(lam)
    return GeoPoint(lat, lon)


def utm_to_local(p: UtmPoint, frame: CityFrame) -> LocalPoint:
    """Shift a UTM point into the frame by subtracting the frame origin."""
    if p.zone != frame.zone:
        raise FrameMismatchError(
            f"point zone {p.zone} does not match frame "
            f"{frame.name!r} zone {frame.zone}"
        )
    return LocalPoint(p.easting - frame.origin_easting,
                      p.northing - frame.origin_northing)


def local_to_utm(p: LocalPoint, frame: CityFrame) -> UtmPoint:
    """Inverse of :func:`utm_to_local` (northern hemisphere frames)."""
    return UtmPoint(p.x + frame.origin_easting,
                    p.y + frame.origin_northing,
                    frame.zone)


def geo_to_local(p: GeoPoint, frame: CityFrame) -> LocalPoint:
    """WGS84 -> UTM -> city frame, in one step."""
    return utm_to_local(wgs84_to_utm(p, frame.zone), frame)
