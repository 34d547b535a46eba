//! Experiment harness for the IDA-coding reproduction.
//!
//! Every table and figure of the paper's evaluation is reproduced through
//! the `idasim` CLI, which drives the pieces below and prints the same
//! rows or series the paper reports, with the paper's numbers alongside:
//!
//! | command | reproduces |
//! |---|---|
//! | `idasim paper table3_workloads` | Table III — workload characteristics |
//! | `idasim paper fig4_read_distribution` | Figure 4 — read breakdown by page type/validity |
//! | `idasim sweep fig8` | Figure 8 — response time vs adjustment error rate |
//! | `idasim paper table4_refresh_overhead` | Table IV — refresh overhead accounting |
//! | `idasim sweep fig9` | Figure 9 — ΔtR sensitivity |
//! | `idasim sweep fig10` | Figure 10 — device throughput |
//! | `idasim sweep fig11` | Figure 11 — early vs late lifetime (read retry) |
//! | `idasim paper table5_mlc` | Table V — MLC device |
//! | `idasim paper fig6_qlc` | Figure 6 + §V-G — QLC merge and end-to-end run |
//! | `idasim paper blocks_overhead` | §III-C — in-use blocks / GC impact |
//! | `idasim paper ablation_lsb_placement` | §III-C — LSB-slot placement ablation |
//! | `idasim paper ablation_coding_232` | §III-B — 2-3-2 TLC coding ablation |
//!
//! The [`runner`] module owns the warm-up → measure protocol shared by all
//! of them; [`table`] renders aligned text tables. The single-config
//! experiments live in [`paper`]. Grid-shaped experiments (Figures 8–11)
//! run on the `ida-sweep` orchestration engine through [`sweep`], which
//! gives them parallel workers (`--jobs`/`IDA_JOBS`), checkpoint/resume
//! journals, and per-cell failure isolation while keeping aggregated
//! output byte-identical to a serial run. [`suite`] is the fixed-seed
//! hot-path micro-bench harness behind `idasim bench`.

pub mod analyze;
pub mod load;
pub mod paper;
pub mod runner;
pub mod soak;
pub mod suite;
pub mod sweep;
pub mod table;

pub use runner::{ExperimentScale, ReplayMode, SystemUnderTest, WorkloadRun};
