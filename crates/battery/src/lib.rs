//! Polymer Li-Ion battery runtime model (paper §5.1, following the accurate
//! electrical battery model of Chen & Rincon-Mora that the paper cites).
//!
//! The full Chen–Rincon-Mora model is an RC equivalent circuit for transient
//! voltage prediction; for lifetime estimation the paper (and this crate)
//! needs its steady-state consequence: usable capacity depends on the
//! average discharge rate (rate-capacity effect, modelled with a mild
//! Peukert exponent appropriate for Li-ion chemistry) plus self-discharge.
//!
//! Two stock batteries match the paper's setup: a 40 mAh wearable-sensor
//! cell (§1) and a 2900 mAh aggregator battery ("iPhone 7", §5.6).
//!
//! # Examples
//!
//! ```
//! use xpro_battery::BatteryModel;
//!
//! let sensor = BatteryModel::sensor_40mah();
//! // A 10 µW average load on a 40 mAh / 3 V battery runs for years;
//! // a 20 mW load (§1's "drains in less than 6 hours") does not.
//! let long = sensor.runtime_hours(10e-6);
//! let short = sensor.runtime_hours(20e-3);
//! assert!(long > 1000.0);
//! assert!(short < 6.5);
//! ```

pub mod runtime;

pub use runtime::BatteryModel;
