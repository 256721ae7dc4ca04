//! Hardware substrate for XPro's in-sensor functional cells.
//!
//! Models the sensor-node hardware of the paper's §3.1 and §4.3: each
//! functional cell is an asynchronous micro-computing unit (private S-ALU,
//! buffer, clock and power gating — Fig. 3) realized on an FPGA/ASIC-style
//! fabric at 16 MHz in TSMC 130/90/45 nm technology.
//!
//! * [`ops`] — abstract datapath operation counts per cell activation;
//! * [`module`] — the module zoo (8 features, DWT levels, SVM bases, score
//!   fusion) and their op-count derivations;
//! * [`alu`] — the three S-ALU working modes (serial / parallel / pipeline);
//! * [`process`] — TSMC process-node energy scaling;
//! * [`library`] — the analytic energy/delay cost model standing in for the
//!   paper's Synopsys characterization flow, calibrated to reproduce the
//!   Figure-4 mode study;
//! * [`area`] — gate-equivalent silicon area of in-sensor cells;
//! * [`approx`] — approximation knobs (truncated multiplies, SVM pruning,
//!   DWT-level skip) and their hardware pricing.
//!
//! # Examples
//!
//! Reproduce one bar group of Figure 4 (energy of the Var module under the
//! three ALU modes):
//!
//! ```
//! use xpro_hw::alu::AluMode;
//! use xpro_hw::library::CellCostModel;
//! use xpro_hw::module::ModuleKind;
//! use xpro_hw::process::ProcessNode;
//! use xpro_signal::stats::FeatureKind;
//!
//! let model = CellCostModel::default();
//! let var = ModuleKind::Feature {
//!     kind: FeatureKind::Var,
//!     input_len: 128,
//!     reuses_var: false,
//! };
//! let costs = model.characterize(&var, ProcessNode::N90);
//! let (best, _) = model.best_mode(&var, ProcessNode::N90);
//! assert_eq!(best, AluMode::Serial); // the red star of Fig. 4
//! assert_eq!(costs.len(), 3);
//! ```

pub mod alu;
pub mod approx;
pub mod area;
pub mod library;
pub mod module;
pub mod ops;
pub mod process;

pub use alu::AluMode;
pub use approx::{approx_cell_area_ge, ApproxConfig, MAX_TRUNCATION_BITS};
pub use area::{cell_area_ge, total_area_ge};
pub use library::{CellCost, CellCostModel, SENSOR_CLOCK_HZ};
pub use module::ModuleKind;
pub use ops::{Op, OpCounts};
pub use process::ProcessNode;
