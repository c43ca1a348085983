//! Geographic coordinates and great-circle distance.
//!
//! The paper estimates the propagation delay of inter-domain links from the great-circle
//! distance between the geolocated border routers at the two link ends (CAIDA geo-rel
//! dataset). The topology generator of this reproduction does the same with synthetic
//! locations, and interface groups (§IV-D) are formed from geographic proximity of
//! interfaces, so distance computation lives in the shared types crate.

use crate::metrics::Latency;
use core::fmt;
use serde::{Deserialize, Serialize};

/// Mean Earth radius in kilometres, used for great-circle distance.
pub const EARTH_RADIUS_KM: f64 = 6371.0;

/// Effective propagation speed of light in fibre, in km per millisecond.
///
/// The common approximation is 2/3 of c, i.e. ~200 km/ms; the paper's "great-circle delay"
/// uses the same style of estimate.
pub const FIBRE_KM_PER_MS: f64 = 200.0;

/// A geographic coordinate (latitude/longitude in degrees).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoCoord {
    /// Latitude in degrees, in `[-90, 90]`.
    pub lat: f64,
    /// Longitude in degrees, in `[-180, 180]`.
    pub lon: f64,
}

impl GeoCoord {
    /// Creates a coordinate, clamping latitude to `[-90, 90]` and wrapping longitude into
    /// `[-180, 180]`.
    ///
    /// Inlinable, and a longitude already inside `(-360, 360)` — every one the wire codec
    /// decodes — skips the remainder, which is a libm call and returns such a value as it is.
    #[inline]
    pub fn new(lat: f64, lon: f64) -> Self {
        let lat = lat.clamp(-90.0, 90.0);
        let mut lon = if lon.abs() < 360.0 { lon } else { lon % 360.0 };
        if lon > 180.0 {
            lon -= 360.0;
        } else if lon < -180.0 {
            lon += 360.0;
        }
        Self { lat, lon }
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    pub fn distance_km(&self, other: &GeoCoord) -> f64 {
        let lat1 = self.lat.to_radians();
        let lat2 = other.lat.to_radians();
        let dlat = (other.lat - self.lat).to_radians();
        let dlon = (other.lon - self.lon).to_radians();
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        let c = 2.0 * a.sqrt().asin();
        EARTH_RADIUS_KM * c
    }

    /// Estimated one-way propagation delay to `other`, assuming fibre along the great
    /// circle.
    pub fn propagation_delay(&self, other: &GeoCoord) -> Latency {
        let km = self.distance_km(other);
        let ms = km / FIBRE_KM_PER_MS;
        Latency::from_micros((ms * 1000.0).round() as u64)
    }
}

impl fmt::Display for GeoCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.lat, self.lon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn zero_distance_to_self() {
        let p = GeoCoord::new(47.37, 8.55); // Zurich
        assert!(approx(p.distance_km(&p), 0.0, 1e-9));
        assert_eq!(p.propagation_delay(&p), Latency::ZERO);
    }

    #[test]
    fn known_city_distance_zurich_new_york() {
        let zurich = GeoCoord::new(47.3769, 8.5417);
        let nyc = GeoCoord::new(40.7128, -74.0060);
        let d = zurich.distance_km(&nyc);
        // The true great-circle distance is ~6,330 km.
        assert!(d > 6200.0 && d < 6450.0, "distance was {d}");
    }

    #[test]
    fn known_city_distance_london_sydney() {
        let london = GeoCoord::new(51.5074, -0.1278);
        let sydney = GeoCoord::new(-33.8688, 151.2093);
        let d = london.distance_km(&sydney);
        // The true great-circle distance is ~16,990 km.
        assert!(d > 16800.0 && d < 17200.0, "distance was {d}");
    }

    #[test]
    fn distance_is_symmetric() {
        let a = GeoCoord::new(10.0, 20.0);
        let b = GeoCoord::new(-35.0, 140.0);
        assert!(approx(a.distance_km(&b), b.distance_km(&a), 1e-6));
    }

    #[test]
    fn propagation_delay_uses_fibre_speed() {
        // Points 2000 km apart along the equator: delay should be ~10 ms.
        let a = GeoCoord::new(0.0, 0.0);
        let b = GeoCoord::new(0.0, 17.986); // ~2000 km at the equator
        let delay = a.propagation_delay(&b);
        let ms = delay.as_millis_f64();
        assert!(ms > 9.0 && ms < 11.0, "delay was {ms} ms");
    }

    #[test]
    fn coordinates_are_normalized() {
        let p = GeoCoord::new(95.0, 190.0);
        assert!(approx(p.lat, 90.0, 1e-9));
        assert!(approx(p.lon, -170.0, 1e-9));
        let q = GeoCoord::new(-100.0, -190.0);
        assert!(approx(q.lat, -90.0, 1e-9));
        assert!(approx(q.lon, 170.0, 1e-9));
    }

    #[test]
    fn longitudes_inside_one_turn_skip_the_remainder_unchanged() {
        // The shortcut in `new` against the plain formula, bit for bit (signed zeros too).
        let plain = |lon: f64| {
            let mut lon = lon % 360.0;
            if lon > 180.0 {
                lon -= 360.0;
            } else if lon < -180.0 {
                lon += 360.0;
            }
            lon
        };
        let below_one_turn = 360.0_f64.next_down();
        for lon in [
            0.0,
            -0.0,
            8.5417,
            -74.006,
            180.0,
            -180.0,
            180.000001,
            -180.000001,
            359.999999,
            -359.999999,
            below_one_turn,
            -below_one_turn,
            360.0,
            -360.0,
            360.000001,
            -540.0,
            725.5,
            1e300,
            f64::INFINITY,
        ] {
            let normalized = GeoCoord::new(0.0, lon).lon;
            assert_eq!(
                normalized.to_bits(),
                plain(lon).to_bits(),
                "longitude {lon}"
            );
        }
        assert!(GeoCoord::new(0.0, f64::NAN).lon.is_nan());
    }

    #[test]
    fn display_format() {
        let p = GeoCoord::new(1.5, -2.25);
        assert_eq!(p.to_string(), "(1.500, -2.250)");
    }

    #[test]
    fn antipodal_points_half_circumference() {
        let a = GeoCoord::new(0.0, 0.0);
        let b = GeoCoord::new(0.0, 180.0);
        let d = a.distance_km(&b);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!(approx(d, half, 1.0), "d={d} half={half}");
    }
}
