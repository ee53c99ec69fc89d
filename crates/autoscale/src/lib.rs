//! # parva-autoscale — ParvaGPU under fluctuating request rates
//!
//! The paper motivates its low scheduling overhead with "environments with
//! fluctuating request rates" (§IV-A: MIG-serving's slow algorithm is ruled
//! out for exactly that reason) and sketches the runtime story in §III-F:
//! when a service's rate or SLO changes, only that service is re-configured,
//! its segments are relocated, and unaffected GPUs keep serving; shadow
//! processes bridge the brief MIG/MPS reconfiguration window.
//!
//! This crate holds the two pieces the control loops share:
//! [`DemandEstimator`] turns observed per-epoch arrivals into demand specs
//! (the `parvad` autoscaler's only demand signal), and [`shadow`] simulates
//! the service-displacement window of a reconfiguration or recovery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimator;
pub mod shadow;

pub use estimator::DemandEstimator;
pub use shadow::{
    displacement_window, simulate_displacement_window, simulate_window, DisplacementWindow,
    DisruptionReport,
};
