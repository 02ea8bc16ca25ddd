//! Benchmark harness: regenerates every table and figure of the ASV paper's
//! evaluation (Sec. 7) from the models and algorithms in this workspace.
//!
//! Each experiment is a plain function returning serializable rows, so the
//! same code backs three consumers:
//!
//! * the `fig*`/`tab*` binaries in `src/bin/`, which print the rows a figure
//!   plots (run e.g. `cargo run --release -p asv-bench --bin fig10_speedup_energy`);
//! * the Criterion benches in `benches/`, which time the underlying kernels;
//! * the workspace integration tests, which smoke-check the experiment
//!   outputs against the paper's qualitative claims.
//!
//! README's "Reproducing the paper's figures" lists the binary of each
//! paper figure and table; each binary wraps one function of [`figs`].

pub mod algorithms;
pub mod cluster;
pub mod figs;
pub mod gate;
pub mod hardware;
pub mod perf;
pub mod qos;
pub mod streaming;
pub mod table;

/// Default evaluation resolution for the analytical hardware experiments
/// (height, width).  The paper evaluates KITTI-sized inputs; this scaled
/// resolution keeps every experiment fast while preserving all relative
/// results.
pub const EVAL_HEIGHT: usize = 192;
/// Default evaluation width.
pub const EVAL_WIDTH: usize = 384;
/// Default maximum disparity for the 3-D cost-volume networks.
pub const EVAL_MAX_DISPARITY: usize = 96;
