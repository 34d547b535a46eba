//! Library half of the `idasim` command-line driver.
//!
//! Kept as a library so the argument parsing and command dispatch are unit
//! testable; `main.rs` is a thin shell around [`run`].

pub mod args;

use ida_bench::load::{
    load_metrics_json, nominal_iops, run_capacity, run_load_obs, LoadSpec, CAPACITY_MAX_ITERS,
};
use ida_bench::paper::{experiment, EXPERIMENTS};
use ida_bench::runner::{
    normalized_read_response, replay_trace, run_system_obs, system_config, to_host_ops,
    warm_cache_key, warmed_simulator, ExperimentScale, ObsOptions, ReplayMode, SystemUnderTest,
    WARM_SEED_BASE,
};
use ida_bench::soak::{run_soak, soak_metrics_json, soak_run_from_json};
use ida_bench::suite::{compare_json, run_suite};
use ida_bench::sweep::{
    builtin_grid, parse_system, render, run_grid, run_grid_on, run_grid_worker, Backend,
    BUILTIN_GRIDS,
};
use ida_flash::timing::FlashTiming;
use ida_host::{AdmissionPolicy, ArrivalSpec};
use ida_obs::json::JsonObj;
use ida_ssd::retry::RetryConfig;
use ida_ssd::{Report, Simulator};
use ida_sweep::{derive_stream_seed, SweepConfig};
use ida_sweep::{SweepOutcome, SweepSpec};
use ida_workloads::stats::characterize;
use ida_workloads::suite::{paper_workload, paper_workloads, WorkloadPreset};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Default coordinator address for `serve`/`worker` when neither
/// `--listen` nor `--connect` is given: loopback, fixed port.
pub const DEFAULT_FABRIC_ADDR: &str = "127.0.0.1:7141";

/// How long a worker retries its initial connection — workers may be
/// launched moments before the coordinator binds its listener.
const FABRIC_CONNECT_WAIT: std::time::Duration = std::time::Duration::from_secs(10);

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the available workloads.
    List,
    /// Print the characteristics of one workload.
    Describe {
        /// Workload name.
        workload: String,
    },
    /// Compare baseline vs IDA on one workload.
    Compare {
        /// Workload name.
        workload: String,
        /// Voltage-adjustment error rate (0.0–1.0).
        error_rate: f64,
        /// Host requests in the measured trace.
        requests: usize,
        /// Write each run's event trace as JSONL (per-system suffix added).
        trace_out: Option<PathBuf>,
        /// Write each run's metrics report as JSON (per-system suffix added).
        metrics_json: Option<PathBuf>,
        /// Comma-separated event classes to keep in the trace.
        trace_filter: Option<String>,
        /// Report run progress on stderr.
        progress: bool,
    },
    /// Run an experiment grid on the parallel sweep engine.
    Sweep {
        /// Grid name (`fig8`, `fig9`, `fig10`, `fig11`, `faults`,
        /// `load`, `lifetime`).
        grid: String,
        /// Worker threads (`None` = `IDA_JOBS` or all cores).
        jobs: Option<usize>,
        /// Checkpoint journal path (resume skips journaled cells).
        journal: Option<PathBuf>,
        /// Write the aggregated JSON here (stdout gets the rendered
        /// table); without it the JSON itself goes to stdout.
        out: Option<PathBuf>,
        /// Use the smoke-test scale.
        smoke: bool,
        /// Override the measured request count.
        requests: Option<usize>,
        /// Report per-cell progress (with ETA) on stderr.
        progress: bool,
        /// Share warm-up state across cells: run each unique warm-up
        /// once, fork the rest from its snapshot (output is unchanged).
        warm_cache: bool,
    },
    /// Run one single-configuration paper experiment (a table, figure
    /// or ablation that is not a sweep grid).
    Paper {
        /// Experiment name, one of [`EXPERIMENTS`].
        name: String,
    },
    /// Coordinate a distributed sweep: serve cells to `idasim worker`
    /// processes and aggregate their results.
    Serve {
        /// Grid name (same set as `sweep`).
        grid: String,
        /// Listen address, e.g. `127.0.0.1:7141`.
        listen: String,
        /// Checkpoint journal path (resume skips journaled cells).
        journal: Option<PathBuf>,
        /// Write the aggregated JSON here (stdout gets the rendered
        /// table); without it the JSON itself goes to stdout.
        out: Option<PathBuf>,
        /// Use the smoke-test scale.
        smoke: bool,
        /// Override the measured request count.
        requests: Option<usize>,
    },
    /// Join a distributed sweep as a worker: claim and execute cells
    /// from an `idasim serve` coordinator.
    Worker {
        /// Coordinator address to connect to.
        connect: String,
        /// Worker connections/threads (`None` = `IDA_JOBS` or all cores).
        jobs: Option<usize>,
    },
    /// Capture, replay, or describe a framed warm-state snapshot.
    Snapshot {
        /// `save`, `restore`, or `inspect`.
        action: String,
        /// Snapshot file path.
        path: PathBuf,
        /// Workload name (required by `save`).
        workload: Option<String>,
        /// System under test (`Baseline` or an IDA variant).
        system: String,
        /// Use the smoke-test scale.
        smoke: bool,
        /// Override the measured request count.
        requests: Option<usize>,
    },
    /// Soak one workload through a whole accelerated device lifetime
    /// (Baseline and IDA side by side) with per-epoch invariant checks.
    Soak {
        /// Workload name.
        workload: String,
        /// Aging level (`off`, `low`, `mid`, `high`).
        level: String,
        /// Voltage-adjustment error rate for the IDA system (0.0–1.0).
        error_rate: f64,
        /// Accelerated-lifetime epochs (epoch 0 is fresh).
        epochs: usize,
        /// Worker threads (`None` = `IDA_JOBS` or all cores).
        jobs: Option<usize>,
        /// Checkpoint journal path (resume skips journaled cells).
        journal: Option<PathBuf>,
        /// Write the aggregated JSON here (stdout keeps the tables).
        out: Option<PathBuf>,
        /// Use the smoke-test scale.
        smoke: bool,
        /// Override the measured request count per epoch.
        requests: Option<usize>,
        /// Report per-cell progress on stderr.
        progress: bool,
    },
    /// Run the fixed-seed benchmark suite.
    Bench {
        /// Use the reduced CI scale.
        smoke: bool,
        /// Write the JSON document here (stdout gets the summary table);
        /// without it the JSON itself goes to stdout.
        out: Option<PathBuf>,
        /// Previously captured suite (or comparison) JSON to embed as the
        /// baseline; the output becomes a comparison document with
        /// per-bench speedups.
        baseline: Option<PathBuf>,
    },
    /// Drive one workload through the host frontend at a target offered
    /// rate (or bisect for the max sustainable rate at the SLO).
    Load {
        /// Workload name.
        workload: String,
        /// Voltage-adjustment error rate for the IDA system (0.0–1.0).
        error_rate: f64,
        /// Offered rate in IOPS (`None` = the workload's nominal rate).
        iops: Option<u64>,
        /// Arrival shape (`constant`, `poisson`, `onoff`).
        arrival: String,
        /// Tenant streams the trace is dealt across.
        tenants: u32,
        /// Full-queue admission policy (`shed`, `delay`).
        admission: String,
        /// Read p99 SLO target, µs.
        slo_us: u64,
        /// Override the measured request count.
        requests: Option<usize>,
        /// Use the smoke-test scale.
        smoke: bool,
        /// Bisect for max sustainable IOPS instead of one load point.
        capacity: bool,
        /// Capacity-search bracket floor, IOPS (`None` = nominal / 4).
        lo: Option<u64>,
        /// Capacity-search bracket ceiling, IOPS (`None` = nominal × 4).
        hi: Option<u64>,
        /// Write the JSON document here (stdout gets the summary).
        out: Option<PathBuf>,
        /// Write each run's event trace as JSONL (per-system suffix).
        trace_out: Option<PathBuf>,
        /// Comma-separated event classes to keep in the trace.
        trace_filter: Option<String>,
        /// Stream seed.
        seed: u64,
    },
    /// Replay an imported MSR Cambridge trace on both systems.
    Replay {
        /// MSR CSV path.
        msr: PathBuf,
        /// Voltage-adjustment error rate for the IDA system (0.0–1.0).
        error_rate: f64,
        /// Closed-loop queue depth (`None` = open loop, the trace's own
        /// arrival times).
        closed: Option<usize>,
        /// Use the smoke-test scale geometry.
        smoke: bool,
        /// Write each run's event trace as JSONL (per-system suffix).
        trace_out: Option<PathBuf>,
        /// Write each run's metrics report as JSON (per-system suffix).
        metrics_json: Option<PathBuf>,
        /// Report run progress on stderr.
        progress: bool,
    },
    /// Analyze a JSONL event trace (validate, attribute, diff).
    Trace {
        /// Trace file to analyze (absent in `--diff` mode).
        file: Option<PathBuf>,
        /// Only validate (schema, monotonicity, span conservation).
        validate: bool,
        /// How many slowest reads to show with waterfalls.
        top: usize,
        /// Compare two traces phase-by-phase instead.
        diff: Option<(PathBuf, PathBuf)>,
    },
    /// Print usage.
    Help,
}

/// Parse command-line arguments (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands or malformed
/// values.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    use crate::args::*;
    let name = match args.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => return Ok(Command::Help),
        Some(name) => name,
    };
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command: {name} (try `idasim help`)"))?;
    let a = scan(cmd, &args[1..])?;
    Ok(match name {
        "list" => Command::List,
        "describe" => Command::Describe {
            workload: a.required(0),
        },
        "compare" => Command::Compare {
            workload: a.required(0),
            error_rate: a.error_rate()?,
            requests: a.requests()?.unwrap_or(6_000),
            trace_out: a.value(TRACE_OUT),
            metrics_json: a.value(METRICS_JSON),
            trace_filter: a.trace_filter()?,
            progress: a.switch(PROGRESS),
        },
        "sweep" => Command::Sweep {
            grid: a.required(0),
            jobs: a.jobs()?,
            journal: a.value(JOURNAL),
            out: a.value(OUT),
            smoke: a.switch(SMOKE),
            requests: a.requests()?,
            progress: a.switch(PROGRESS),
            warm_cache: a.switch(WARM_CACHE),
        },
        "paper" => {
            let name = a.required(0);
            paper_experiment(&name)?;
            Command::Paper { name }
        }
        "serve" => Command::Serve {
            grid: a.required(0),
            listen: a.value_or(LISTEN, DEFAULT_FABRIC_ADDR),
            journal: a.value(JOURNAL),
            out: a.value(OUT),
            smoke: a.switch(SMOKE),
            requests: a.requests()?,
        },
        "worker" => Command::Worker {
            connect: a.value_or(CONNECT, DEFAULT_FABRIC_ADDR),
            jobs: a.jobs()?,
        },
        "snapshot" => {
            let (action, requests, workload) = (a.required(0), a.requests()?, a.value(WORKLOAD));
            if action == "save" && workload.is_none() {
                return Err("snapshot save needs --workload (try `idasim list`)".into());
            }
            Command::Snapshot {
                action,
                path: a.required(1).into(),
                workload,
                system: a.value_or(SYSTEM, "Baseline"),
                smoke: a.switch(SMOKE),
                requests,
            }
        }
        "soak" => {
            let level = a.value_or(LEVEL, "mid");
            let error_rate = a.error_rate()?;
            let epochs = a.parsed(EPOCHS, "epoch count")?;
            // Validate eagerly so a typo fails before hours of soaking.
            if ida_faults::AgingConfig::preset(&level, 0).is_none() {
                return Err(format!(
                    "unknown aging level {level:?} (one of: {})",
                    ida_faults::AgingConfig::LEVELS.join(", ")
                ));
            }
            if epochs == Some(0) {
                return Err("--epochs must be at least 1".into());
            }
            Command::Soak {
                workload: a.required(0),
                level,
                error_rate,
                epochs: epochs.unwrap_or(ida_bench::soak::SOAK_EPOCHS),
                jobs: a.jobs()?,
                journal: a.value(JOURNAL),
                out: a.value(OUT),
                smoke: a.switch(SMOKE),
                requests: a.requests()?,
                progress: a.switch(PROGRESS),
            }
        }
        "load" => {
            let arrival = a.value_or(ARRIVAL, "poisson");
            let admission = a.value_or(ADMISSION, "shed");
            let tenants = a.parsed(TENANTS, "tenant count")?.unwrap_or(1);
            let slo_us = a.parsed(SLO_US, "SLO")?.unwrap_or(2_000);
            let (lo, hi) = (a.parsed(LO, "--lo IOPS")?, a.parsed(HI, "--hi IOPS")?);
            let error_rate = a.error_rate()?;
            // Validate the label spellings eagerly so typos fail fast.
            ArrivalSpec::parse(&arrival)?;
            AdmissionPolicy::parse(&admission)?;
            if tenants == 0 {
                return Err("--tenants must be at least 1".to_string());
            }
            if slo_us == 0 {
                return Err("--slo-us must be positive".to_string());
            }
            if let (Some(lo), Some(hi)) = (lo, hi) {
                if lo == 0 || lo > hi {
                    return Err(format!("bad capacity bracket [{lo}, {hi}]"));
                }
            }
            // Either bound alone must be positive too: the search asserts it.
            for (flag, bound) in [(LO, lo), (HI, hi)] {
                if bound == Some(0) {
                    return Err(format!("{} must be positive", flag.name));
                }
            }
            Command::Load {
                workload: a.required(0),
                error_rate,
                iops: a.parsed(IOPS, "IOPS")?,
                arrival,
                tenants,
                admission,
                slo_us,
                requests: a.requests()?,
                smoke: a.switch(SMOKE),
                capacity: a.switch(CAPACITY),
                lo,
                hi,
                out: a.value(OUT),
                trace_out: a.value(TRACE_OUT),
                trace_filter: a.trace_filter()?,
                seed: a.parsed(SEED, "seed")?.unwrap_or(0),
            }
        }
        "replay" => {
            let closed = a.checked(CLOSED, |v| match v.parse() {
                Ok(0) => Err("--closed queue depth must be positive".to_string()),
                depth => depth.map_err(|e| format!("bad queue depth: {e}")),
            })?;
            let error_rate = a.error_rate()?;
            Command::Replay {
                msr: a.value(MSR).ok_or("replay needs --msr <trace.csv>")?,
                error_rate,
                closed,
                smoke: a.switch(SMOKE),
                trace_out: a.value(TRACE_OUT),
                metrics_json: a.value(METRICS_JSON),
                progress: a.switch(PROGRESS),
            }
        }
        "bench" => Command::Bench {
            smoke: a.switch(SMOKE),
            out: a.value(OUT),
            baseline: a.value(BASELINE),
        },
        "trace" => {
            let top = a.parsed(TOP, "--top count")?.unwrap_or(5);
            let file = a.positional(0).map(PathBuf::from);
            let diff = a
                .values(DIFF)
                .map(|v| (PathBuf::from(&v[0]), PathBuf::from(&v[1])));
            if file.is_none() && diff.is_none() {
                return Err("trace needs a trace file or --diff <a> <b>".into());
            }
            if file.is_some() && diff.is_some() {
                return Err("trace takes either a trace file or --diff, not both".into());
            }
            Command::Trace {
                file,
                validate: a.switch(VALIDATE),
                top,
                diff,
            }
        }
        _ => unreachable!("{name} is in COMMANDS but has no parser"),
    })
}

/// Execute a command, returning the text to print.
///
/// # Errors
///
/// Returns a message for unknown workloads.
pub fn run(cmd: Command) -> Result<String, String> {
    let mut out = String::new();
    match cmd {
        Command::Help => {
            out.push_str(USAGE);
        }
        Command::List => {
            out.push_str("available workloads (MSR-Cambridge-like, Table III):\n");
            for p in paper_workloads() {
                let _ = writeln!(
                    out,
                    "  {:8} read ratio {:5.1}%  mean read {:5.1} KB",
                    p.spec.name, p.paper.read_ratio_pct, p.paper.read_kb
                );
            }
        }
        Command::Describe { workload } => {
            let p = find_workload(&workload)?;
            let trace = p.generate(40_000, 10_000);
            let s = characterize(&trace);
            let _ = writeln!(out, "workload {workload}:");
            let _ = writeln!(
                out,
                "  read ratio      {:.2}% (paper {:.2}%)",
                s.read_ratio * 100.0,
                p.paper.read_ratio_pct
            );
            let _ = writeln!(
                out,
                "  mean read size  {:.2} KB (paper {:.2} KB)",
                s.mean_read_kb, p.paper.read_kb
            );
            let _ = writeln!(
                out,
                "  read data ratio {:.2}% (paper {:.2}%)",
                s.read_data_ratio * 100.0,
                p.paper.read_data_pct
            );
            let _ = writeln!(
                out,
                "  footprint       {:.1} MB ({}% of device)",
                s.footprint_mb,
                (p.footprint_frac * 100.0) as u32
            );
        }
        Command::Compare {
            workload,
            error_rate,
            requests,
            trace_out,
            metrics_json,
            trace_filter,
            progress,
        } => {
            let p = find_workload(&workload)?;
            let scale = ExperimentScale::default_scale().with_requests(requests);
            let obs = ObsOptions {
                trace_out,
                metrics_json,
                progress,
                gauge_interval_ns: None,
                // The explicit flag wins; IDA_TRACE_FILTER fills in when
                // absent (validated again when the sink is attached).
                trace_filter: trace_filter.or_else(|| std::env::var("IDA_TRACE_FILTER").ok()),
            };
            let mut runs = Vec::new();
            for system in both_systems(error_rate) {
                let run_obs = obs.suffixed(&system.label());
                runs.push(
                    run_system_obs(&p, system, &scale, &run_obs)
                        .map_err(|e| format!("observability output failed: {e}"))?,
                );
                for (what, path) in [
                    ("trace", &run_obs.trace_out),
                    ("metrics", &run_obs.metrics_json),
                ] {
                    if let Some(path) = path {
                        let _ =
                            writeln!(out, "wrote {} {what} to {}", system.label(), path.display());
                    }
                }
            }
            let (base, ida) = (&runs[0].report, &runs[1].report);
            let _ = writeln!(out, "workload {workload}, {} requests:", requests);
            let _ = writeln!(
                out,
                "  baseline  mean read response {:9.1} us  (p99 {:9.1} us)",
                base.reads.mean_us(),
                base.reads.percentile(99.0) as f64 / 1e3
            );
            let _ = writeln!(
                out,
                "  IDA-E{:<3.0} mean read response {:9.1} us  (p99 {:9.1} us)",
                error_rate * 100.0,
                ida.reads.mean_us(),
                ida.reads.percentile(99.0) as f64 / 1e3
            );
            write_normalized(&mut out, base, ida);
        }
        Command::Sweep {
            grid,
            jobs,
            journal,
            out: out_path,
            smoke,
            requests,
            progress,
            warm_cache,
        } => {
            let spec = grid_spec(&grid)?;
            let scale = scale_for(smoke, requests);
            let mut cfg = sweep_config(jobs, journal, progress)?;
            if warm_cache {
                cfg = cfg.with_warm_cache();
            }
            let outcome =
                run_grid(&spec, &scale, &cfg).map_err(|e| format!("sweep failed: {e}"))?;
            if let Some(cache) = cfg.warm_cache() {
                // stderr, like --progress: diagnostics never pollute the
                // machine-readable aggregate on stdout.
                eprintln!("{}", cache.stats_line(outcome.outcomes.len()));
            }
            let summary = format!("sweep {grid} on {} worker(s)", cfg.jobs);
            write_aggregate(&mut out, &outcome, out_path, &summary)?;
        }
        Command::Paper { name } => {
            let experiment = paper_experiment(&name)?;
            out.push_str(&experiment(&ExperimentScale::from_env()));
        }
        Command::Serve {
            grid,
            listen,
            journal,
            out: out_path,
            smoke,
            requests,
        } => {
            let spec = grid_spec(&grid)?;
            let scale = scale_for(smoke, requests);
            let cfg = sweep_config(None, journal, false)?;
            let listener = std::net::TcpListener::bind(&listen)
                .map_err(|e| format!("cannot listen on {listen}: {e}"))?;
            // stderr, like fabric events: the aggregate owns stdout.
            eprintln!(
                "serving sweep {grid} on {listen}; join with: idasim worker --connect {listen}"
            );
            let outcome = run_grid_on(&spec, &scale, &cfg, Backend::Distributed { listener })
                .map_err(|e| format!("serve failed: {e}"))?;
            let summary = format!("sweep {grid} served on {listen}");
            write_aggregate(&mut out, &outcome, out_path, &summary)?;
        }
        Command::Worker { connect, jobs } => {
            let jobs = match jobs {
                Some(j) => j,
                // Same default ladder as local sweeps: IDA_JOBS, else
                // all cores.
                None => SweepConfig::from_env()?.jobs,
            };
            let report = run_grid_worker(&connect, jobs, FABRIC_CONNECT_WAIT)
                .map_err(|e| format!("worker failed: {e}"))?;
            let _ = writeln!(
                out,
                "worker finished sweep {}: {} cell attempt(s) on {jobs} connection(s), {} ok, {} failed",
                report.sweep, report.ran, report.ok, report.failed
            );
        }
        Command::Snapshot {
            action,
            path,
            workload,
            system,
            smoke,
            requests,
        } => {
            let scale = scale_for(smoke, requests);
            let system_spec = parse_system(&system)?;
            match action.as_str() {
                "save" => {
                    let workload = workload.expect("parse_args requires --workload for save");
                    let preset = find_workload(&workload)?;
                    let mut cfg = system_config(
                        system_spec,
                        scale.geometry,
                        FlashTiming::paper_tlc(),
                        RetryConfig::disabled(),
                    );
                    // The same seed the sweep engine would warm this
                    // (workload, system) pair under, so a saved snapshot
                    // is byte-interchangeable with the sweep cache's.
                    cfg.ftl.seed =
                        derive_stream_seed(WARM_SEED_BASE, &format!("{workload}/{system}/r0"));
                    let key = warm_cache_key(&workload, &cfg, &scale);
                    let (sim, _) = warmed_simulator(&preset, cfg, &scale);
                    let framed = ida_snap::frame::seal_with(|w| {
                        ida_snap::Snap::encode(&workload, w);
                        ida_snap::Snap::encode(&system, w);
                        ida_snap::Snap::encode(&(scale.requests as u64), w);
                        ida_snap::Snap::encode(&sim.snapshot(), w);
                    });
                    let bytes = framed.len();
                    write_file(&path, framed)?;
                    let _ = writeln!(
                        out,
                        "saved warm state for {workload}/{system} (cache key {key:016x}, \
                         {bytes} bytes) to {}",
                        path.display()
                    );
                }
                "restore" | "inspect" => {
                    let buf = std::fs::read(&path)
                        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                    let (meta, payload) = ida_snap::frame::open(&buf)
                        .map_err(|e| format!("{} is not a valid snapshot: {e}", path.display()))?;
                    let mut r = ida_snap::Reader::new(payload);
                    let saved_workload: String = ida_snap::Snap::decode(&mut r)
                        .map_err(|e| format!("corrupt snapshot header: {e}"))?;
                    let saved_system: String = ida_snap::Snap::decode(&mut r)
                        .map_err(|e| format!("corrupt snapshot header: {e}"))?;
                    let saved_requests: u64 = ida_snap::Snap::decode(&mut r)
                        .map_err(|e| format!("corrupt snapshot header: {e}"))?;
                    let inner: Vec<u8> = ida_snap::Snap::decode(&mut r)
                        .map_err(|e| format!("corrupt snapshot body: {e}"))?;
                    r.finish()
                        .map_err(|e| format!("trailing snapshot bytes: {e}"))?;
                    let mut sim = Simulator::from_snapshot(&inner)
                        .map_err(|e| format!("snapshot failed to restore: {e}"))?;
                    if action == "inspect" {
                        let g = sim.config().ftl.geometry;
                        let _ = writeln!(
                            out,
                            "snapshot {} (format v{}, payload {} bytes, checksum {:016x})",
                            path.display(),
                            meta.version,
                            meta.payload_len,
                            meta.hash
                        );
                        let _ = writeln!(
                            out,
                            "  warm state: {saved_workload}/{saved_system}, \
                             {saved_requests} measured requests"
                        );
                        let _ = writeln!(
                            out,
                            "  geometry: {}ch x {}chip x {}die x {}pl x {}blk, {} bits/cell",
                            g.channels,
                            g.chips_per_channel,
                            g.dies_per_chip,
                            g.planes_per_die,
                            g.blocks_per_plane,
                            g.bits_per_cell
                        );
                        let _ = writeln!(
                            out,
                            "  clock: {} ns; exported pages: {}",
                            sim.now(),
                            sim.config().ftl.exported_pages()
                        );
                    } else {
                        let preset = find_workload(&saved_workload)?;
                        let requests =
                            requests.unwrap_or(usize::try_from(saved_requests).unwrap_or(0));
                        let footprint = ((sim.config().ftl.exported_pages() as f64
                            * preset.footprint_frac)
                            as u64)
                            .max(1_000);
                        let trace = preset.generate(footprint, requests);
                        sim.set_spans(true);
                        let report = sim.run(to_host_ops(&trace));
                        let _ = writeln!(
                            out,
                            "restored {saved_workload}/{saved_system}, replayed {requests} \
                             requests:"
                        );
                        let _ = writeln!(
                            out,
                            "  mean read response {:9.1} us  (p99 {:9.1} us)",
                            report.reads.mean_us(),
                            report.reads.percentile(99.0) as f64 / 1e3
                        );
                        let _ = writeln!(
                            out,
                            "  events processed {}, flash ops {}",
                            report.events_processed, report.flash_ops
                        );
                    }
                }
                other => return Err(format!("unknown snapshot action: {other}")),
            }
        }
        Command::Soak {
            workload,
            level,
            error_rate,
            epochs,
            jobs,
            journal,
            out: out_path,
            smoke,
            requests,
            progress,
        } => {
            find_workload(&workload)?;
            let scale = scale_for(smoke, requests);
            let cfg = sweep_config(jobs, journal, progress)?;
            // Two cells — Baseline and the IDA system — run through the
            // sweep engine, so parallelism, journaling, and byte-identical
            // aggregation come from the same machinery as `sweep`.
            let spec = SweepSpec::new(
                "soak",
                vec![workload.clone()],
                both_systems(error_rate).map(|s| s.label()).to_vec(),
            )
            .with_axis("aging", vec![level.clone()]);
            let cells = spec.cells();
            let outcomes = ida_sweep::run_cells(&spec.name, &cells, &cfg, |cell| {
                let preset = paper_workload(&cell.workload)
                    .unwrap_or_else(|| panic!("unknown workload {}", cell.workload));
                let system = parse_system(&cell.system).unwrap_or_else(|e| panic!("{e}"));
                let lvl = cell
                    .param("aging")
                    .expect("soak cells carry an aging level");
                let run = run_soak(&preset, system, lvl, epochs, cell.stream_seed, &scale);
                soak_metrics_json(&run)
            })
            .map_err(|e| format!("soak failed: {e}"))?;
            let outcome = SweepOutcome {
                sweep: spec.name.clone(),
                outcomes,
            };
            let mut violations = 0usize;
            let mut failed = 0usize;
            for o in &outcome.outcomes {
                match o.payload() {
                    Some(payload) => {
                        let run = soak_run_from_json(&o.cell.workload, &o.cell.system, payload)?;
                        violations += run.violations.len();
                        out.push_str(&run.render_table());
                        out.push('\n');
                    }
                    None => {
                        failed += 1;
                        let _ = writeln!(out, "FAILED: {}\n", o.cell.id());
                    }
                }
            }
            let _ = writeln!(
                out,
                "soak {workload} level {level}, {epochs} epoch(s) on {} worker(s): {}",
                cfg.jobs,
                outcome.summary()
            );
            if violations > 0 || failed > 0 {
                let _ = writeln!(
                    out,
                    "SOAK UNHEALTHY: {violations} invariant violation(s), {failed} failed cell(s)"
                );
            }
            if let Some(path) = out_path {
                write_file(&path, outcome.aggregate_json() + "\n")?;
                let _ = writeln!(out, "wrote aggregate to {}", path.display());
            }
        }
        Command::Bench {
            smoke,
            out: out_path,
            baseline,
        } => {
            // Read the baseline up front so a bad path fails before the
            // (expensive) suite run.
            let base = baseline
                .map(|path| {
                    std::fs::read_to_string(&path)
                        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))
                })
                .transpose()?;
            let result = run_suite(smoke);
            let json = match base {
                Some(base) => compare_json(&result, &base)?,
                None => result.to_json(),
            };
            match out_path {
                Some(path) => {
                    write_file(&path, json + "\n")?;
                    out.push_str(&result.render_table());
                    let _ = writeln!(out, "wrote benchmark JSON to {}", path.display());
                }
                // No --out: machine-readable document on stdout.
                None => {
                    out.push_str(&json);
                    out.push('\n');
                }
            }
        }
        Command::Load {
            workload,
            error_rate,
            iops,
            arrival,
            tenants,
            admission,
            slo_us,
            requests,
            smoke,
            capacity,
            lo,
            hi,
            out: out_path,
            trace_out,
            trace_filter,
            seed,
        } => {
            let p = find_workload(&workload)?;
            let scale = scale_for(smoke, requests);
            let arrival = ArrivalSpec::parse(&arrival)?;
            let admission = AdmissionPolicy::parse(&admission)?;
            let slo_ns = slo_us * 1_000;
            let nominal = nominal_iops(&p.spec);
            let obs = ObsOptions {
                trace_out,
                trace_filter: trace_filter.or_else(|| std::env::var("IDA_TRACE_FILTER").ok()),
                ..ObsOptions::default()
            };
            let json = if capacity {
                let lo = lo.unwrap_or((nominal / 4).max(1));
                let hi = hi.unwrap_or(nominal * 4).max(lo);
                let _ = writeln!(
                    out,
                    "capacity search on {workload}: bracket [{lo}, {hi}] IOPS, \
                     p99 read SLO {slo_us} us, {} arrivals:",
                    arrival.label()
                );
                let mut doc = JsonObj::new()
                    .str("workload", &workload)
                    .u64("nominal_iops", nominal)
                    .u64("slo_p99_ns", slo_ns)
                    .u64("lo", lo)
                    .u64("hi", hi);
                for system in both_systems(error_rate) {
                    let r = run_capacity(
                        &p,
                        system,
                        arrival,
                        &scale,
                        slo_ns,
                        lo,
                        hi,
                        CAPACITY_MAX_ITERS,
                        seed,
                    )
                    .map_err(|e| e.to_string())?;
                    let _ = writeln!(
                        out,
                        "  {:9} max sustainable {:6} IOPS  ({} probes)",
                        system.label(),
                        r.max_iops,
                        r.probes.len()
                    );
                    doc = doc.raw(&system.label(), &r.to_json());
                }
                doc.finish()
            } else {
                let offered = iops.unwrap_or(nominal).max(1);
                let _ = writeln!(
                    out,
                    "workload {workload} at {offered} offered IOPS (nominal {nominal}), \
                     {} arrivals, {tenants} tenant(s), {} admission:",
                    arrival.label(),
                    admission.label()
                );
                let mut doc = JsonObj::new()
                    .str("workload", &workload)
                    .u64("offered_iops", offered)
                    .u64("nominal_iops", nominal);
                for system in both_systems(error_rate) {
                    let spec = LoadSpec {
                        system,
                        arrival,
                        offered_iops: offered,
                        tenants,
                        admission,
                        slo_p99_ns: slo_ns,
                        seed,
                    };
                    let run_obs = obs.suffixed(&system.label());
                    let run =
                        run_load_obs(&p, &spec, &scale, &run_obs).map_err(|e| e.to_string())?;
                    let _ = writeln!(
                        out,
                        "  {:9} e2e read p99 {:9.1} us  achieved {:8.1} IOPS  \
                         shed {:4}  SLO({} us): {}",
                        system.label(),
                        run.read_p99_ns() as f64 / 1e3,
                        run.achieved_iops,
                        run.shed(),
                        slo_us,
                        if run.slo_met() { "met" } else { "MISSED" }
                    );
                    if let Some(path) = &run_obs.trace_out {
                        let _ =
                            writeln!(out, "wrote {} trace to {}", system.label(), path.display());
                    }
                    doc = doc.raw(&system.label(), &load_metrics_json(&run));
                }
                doc.finish()
            };
            if let Some(path) = out_path {
                write_file(&path, json + "\n")?;
                let _ = writeln!(out, "wrote load JSON to {}", path.display());
            }
        }
        Command::Replay {
            msr,
            error_rate,
            closed,
            smoke,
            trace_out,
            metrics_json,
            progress,
        } => {
            let scale = scale_for(smoke, None);
            let file = std::fs::File::open(&msr)
                .map_err(|e| format!("cannot read {}: {e}", msr.display()))?;
            let trace = ida_workloads::msr::parse_msr(
                std::io::BufReader::new(file),
                scale.geometry.page_size_bytes,
            )
            .map_err(|e| format!("cannot parse {}: {e}", msr.display()))?;
            if trace.records.is_empty() {
                return Err(format!("{} holds no records", msr.display()));
            }
            let mode = match closed {
                None => ReplayMode::OpenLoop,
                Some(depth) => ReplayMode::ClosedLoop(depth),
            };
            let obs = ObsOptions {
                trace_out,
                metrics_json,
                progress,
                ..ObsOptions::default()
            };
            let _ = writeln!(
                out,
                "replaying {} ({} records, {})",
                msr.display(),
                trace.records.len(),
                match mode {
                    ReplayMode::OpenLoop => "open loop".to_string(),
                    ReplayMode::ClosedLoop(d) => format!("closed loop, depth {d}"),
                }
            );
            let mut reports = Vec::new();
            for system in both_systems(error_rate) {
                let run_obs = obs.suffixed(&system.label());
                let report = replay_trace(&trace, system, &scale, mode, &run_obs)
                    .map_err(|e| format!("replay failed: {e}"))?;
                let _ = writeln!(
                    out,
                    "  {:9} mean read response {:9.1} us  (p99 {:9.1} us, {:.1} MB/s)",
                    system.label(),
                    report.reads.mean_us(),
                    report.reads.percentile(99.0) as f64 / 1e3,
                    report.throughput_mbps()
                );
                reports.push(report);
            }
            write_normalized(&mut out, &reports[0], &reports[1]);
        }
        Command::Trace {
            file,
            validate,
            top,
            diff,
        } => {
            let text = match (file, diff) {
                (Some(path), None) => {
                    if validate {
                        ida_bench::analyze::validate(&path)?
                    } else {
                        ida_bench::analyze::report(&path, top)?
                    }
                }
                (None, Some((a, b))) => ida_bench::analyze::diff(&a, &b)?,
                // parse_args guarantees exactly one mode.
                _ => unreachable!("trace mode validated at parse time"),
            };
            out.push_str(&text);
        }
    }
    Ok(out)
}

/// Append the closing line of a Baseline-vs-IDA comparison.
fn write_normalized(out: &mut String, base: &Report, ida: &Report) {
    let norm = normalized_read_response(ida, base);
    let _ = writeln!(
        out,
        "  normalized: {norm:.3}  (read response improved by {:.1}%)",
        (1.0 - norm) * 100.0
    );
}

/// Baseline and the IDA system at `error_rate`, in report order.
fn both_systems(error_rate: f64) -> [SystemUnderTest; 2] {
    [
        SystemUnderTest::Baseline,
        SystemUnderTest::Ida { error_rate },
    ]
}

/// Look up a paper workload by name.
fn find_workload(workload: &str) -> Result<WorkloadPreset, String> {
    paper_workload(workload)
        .ok_or_else(|| format!("unknown workload {workload} (try `idasim list`)"))
}

/// The experiment scale a `--smoke`/`--requests` pair selects: the smoke
/// scale, else the one `IDA_SCALE`/`IDA_REQUESTS` select, with an
/// explicit request count winning.
fn scale_for(smoke: bool, requests: Option<usize>) -> ExperimentScale {
    let mut scale = if smoke {
        ExperimentScale::smoke()
    } else {
        ExperimentScale::from_env()
    };
    if let Some(r) = requests {
        scale.requests = r;
    }
    scale
}

/// The paper experiment names, comma-separated, for error messages.
fn experiment_names() -> String {
    EXPERIMENTS.map(|(name, _)| name).join(", ")
}

/// The built-in sweep grid names, comma-separated, for error messages.
fn grid_names() -> String {
    BUILTIN_GRIDS.join(", ")
}

/// Look up a paper experiment by name.
fn paper_experiment(name: &str) -> Result<fn(&ExperimentScale) -> String, String> {
    experiment(name)
        .ok_or_else(|| format!("unknown experiment {name} (one of: {})", experiment_names()))
}

/// Look up a built-in sweep grid by name.
fn grid_spec(grid: &str) -> Result<SweepSpec, String> {
    builtin_grid(grid)
        .ok_or_else(|| format!("unknown sweep grid {grid} (one of: {})", grid_names()))
}

/// The sweep engine's configuration: the environment supplies the
/// defaults (`IDA_JOBS`, `IDA_JOURNAL`) and explicit flags win.
fn sweep_config(
    jobs: Option<usize>,
    journal: Option<PathBuf>,
    progress: bool,
) -> Result<SweepConfig, String> {
    let mut cfg = SweepConfig::from_env()?;
    cfg.jobs = jobs.unwrap_or(cfg.jobs);
    cfg.journal = journal.or(cfg.journal);
    cfg.progress = progress;
    Ok(cfg)
}

/// Write an output file, naming the path on failure.
fn write_file(path: &Path, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Emit a finished grid's aggregate: with `--out`, write the JSON there
/// and append the rendered table plus `<summary>: <outcome>` to `out`;
/// without it, append the machine-readable JSON itself.
fn write_aggregate(
    out: &mut String,
    outcome: &SweepOutcome,
    out_path: Option<PathBuf>,
    summary: &str,
) -> Result<(), String> {
    let json = outcome.aggregate_json();
    match out_path {
        Some(path) => {
            write_file(&path, json + "\n")?;
            out.push_str(&render(outcome)?);
            let _ = writeln!(
                out,
                "\n{summary}: {}\nwrote aggregate to {}",
                outcome.summary(),
                path.display()
            );
        }
        None => {
            out.push_str(&json);
            out.push('\n');
        }
    }
    Ok(())
}

/// Usage text.
pub const USAGE: &str = "\
idasim — IDA-coding SSD simulator driver

USAGE:
  idasim list
  idasim describe <workload>
  idasim compare <workload> [--error-rate 0.2] [--requests 6000]
                 [--trace-out <path.jsonl>] [--metrics-json <path.json>]
                 [--trace-filter <class,...>] [--progress]
  idasim sweep <grid> [--jobs N] [--journal <path.jsonl>]
               [--out <path.json>] [--smoke] [--requests N] [--progress]
               [--warm-cache]
  idasim paper <experiment>
  idasim serve <grid> [--listen 127.0.0.1:7141] [--journal <path.jsonl>]
               [--out <path.json>] [--smoke] [--requests N]
  idasim worker [--connect 127.0.0.1:7141] [--jobs N]
  idasim snapshot save <file.snap> --workload <name> [--system Baseline]
                  [--smoke] [--requests N]
  idasim snapshot restore|inspect <file.snap> [--requests N]
  idasim soak <workload> [--level off|low|mid|high] [--epochs N]
              [--error-rate 0.2] [--jobs N] [--journal <path.jsonl>]
              [--out <path.json>] [--smoke] [--requests N] [--progress]
  idasim bench [--smoke] [--out <path.json>] [--baseline <path.json>]
  idasim load <workload> [--iops N] [--arrival poisson|constant|onoff]
              [--tenants N] [--admission shed|delay] [--slo-us 2000]
              [--capacity] [--lo N] [--hi N] [--error-rate 0.2]
              [--requests N] [--smoke] [--seed N] [--out <path.json>]
              [--trace-out <path.jsonl>] [--trace-filter <class,...>]
  idasim replay --msr <trace.csv> [--closed <depth>] [--error-rate 0.2]
                [--smoke] [--trace-out <path.jsonl>]
                [--metrics-json <path.json>] [--progress]
  idasim trace <trace.jsonl> [--validate] [--top K]
  idasim trace --diff <baseline.jsonl> <other.jsonl>

Observability (compare): --trace-out writes the run's event stream as
JSONL and --metrics-json writes the full report (latency histograms,
counters, gauges) as JSON; both get a per-system suffix, e.g.
trace.jsonl -> trace.Baseline.jsonl. --trace-filter keeps only the
listed event classes (host, ftl, gc, refresh, fault, span; also the
IDA_TRACE_FILTER variable). --progress reports on stderr.

Trace: analyzes a JSONL trace written by --trace-out. The default
report validates the stream (schema, timestamp monotonicity, span
conservation), then prints the per-phase latency attribution
waterfall, the top-K slowest reads with their phase breakdowns, and
per-die / per-channel utilization rebuilt from flash events.
--validate stops after validation. --diff compares two traces
phase-by-phase (totals, means, deltas) — e.g. a Baseline vs IDA-E20
pair from `idasim compare --trace-out`.

Soak: drives one workload through a whole accelerated device lifetime
(0 → rated P/E cycles across --epochs epochs, epoch 0 fresh) on both
Baseline and IDA-E<pct>, with the device-aging model armed at --level:
P/E-wear/read-disturb/retention RBER, the multi-step read-retry
ladder, background patrol scrub, and hot/cold wear-leveling. Between
epochs the clock jumps one patrol period (retention ages, scrub falls
due) and uniform background wear advances. After every epoch the
harness checks the FTL safety invariants (mapping consistency, no
acked-data loss, victim-index agreement, counter monotonicity, span
conservation) and prints a per-epoch waterfall; all epochs clean
means the soak passed. Output is byte-identical for any --jobs. The
`lifetime` sweep grid runs the full fresh-vs-aged table:
  idasim sweep lifetime --smoke

Sweep: runs a whole experiment grid (fig8, fig9, fig10, fig11,
faults, load, lifetime) on the parallel orchestration engine. --jobs N (or IDA_JOBS)
sets the worker count, default all cores; aggregated output is
byte-identical for any worker count. --journal appends one checkpoint
record per finished cell; re-invoking with the same journal resumes,
re-running only incomplete cells. With --out the aggregate JSON goes
to the file and the figure table to stdout; without it the JSON goes
to stdout. The faults grid injects program/erase failures, transient
read faults and power losses (levels off/low/mid/high) and reports
IDA's read benefit alongside the recovery counters; fig11 compares
the early and late (retry-heavy) lifetime phases. --warm-cache runs
each unique warm-up once and forks every sibling cell from its
snapshot (single-flight across workers, spilled next to --journal for
resume); it is output-invisible — the aggregate stays byte-identical
to a cache-off run — and prints a hit/miss line on stderr.

Serve/worker: the distributed sweep fabric. `serve` coordinates a grid
without executing any cell itself: it owns the queue, the --journal,
and the aggregation, and hands cells to `idasim worker` processes over
TCP (frame-sealed messages, protocol-version handshake). Workers claim
cells one at a time; a worker killed mid-cell has its cell requeued
(bounded by the same retry budget local sweeps use), and workers may
join or leave at any point. The aggregate is byte-identical to
`idasim sweep <grid> --jobs 1` on the same scale, whatever the worker
population did. Warm-up snapshots rendezvous through the coordinator,
so each unique warm-up runs once per fabric, not once per worker.
Resuming a journaled serve re-runs only incomplete cells — a fully
journaled grid returns without waiting for any worker. Two-worker
loopback example:
  idasim serve faults --smoke --journal run/j.jsonl --out run/agg.json &
  idasim worker --jobs 1 & idasim worker --jobs 1 & wait

Snapshot: captures and replays framed warm-state images. `save` warms
one (workload, system) pair exactly as the sweep engine would (same
warm seed, same cache key — printed on save) and writes the framed
snapshot; `inspect` prints the frame header and device state without
running anything; `restore` forks a simulator from the file and
replays the measured trace on it, which must match a live warm-up
byte for byte.

Load: drives one workload through the multi-tenant host frontend at a
target offered rate (default the workload's nominal rate) on both
Baseline and IDA-E<pct>, reporting end-to-end read p99 (host queueing
included), achieved IOPS, and shed/delayed admission counters against
the --slo-us p99 target. --tenants deals the trace across N weighted
streams under deficit-round-robin dispatch; --admission picks what a
full queue does (shed drops, delay back-pressures). --capacity
bisects offered rate over [--lo, --hi] for the max sustainable IOPS
at the SLO instead; same seed gives byte-identical results. The
`load` sweep grid runs the full hockey-stick table:
  idasim sweep load --smoke

Replay: imports an MSR Cambridge CSV (Timestamp,Hostname,DiskNumber,
Type,Offset,Size,ResponseTime; http://iotta.snia.org/traces/388),
folds it onto the simulated device, and replays it on both systems —
open loop with the trace's own arrival times, or closed loop at
--closed queue depth. A malformed or unsorted trace is reported as an
error, never a panic.

Bench: runs the fixed-seed hot-path benchmark suite (event-queue
push/pop, FTL write/GC/refresh loop, one fig8 cell end-to-end) and
emits a JSON document whose per-bench operation counts are
byte-identical across runs (wall-clock and derived rates vary).
--smoke shrinks every bench for CI. --baseline embeds a previously
captured suite (or comparison) JSON and adds per-bench speedups; the
committed BENCH_*.json trajectory files are such comparisons.

Paper: runs one single-configuration experiment of the paper's
evaluation and prints its table next to the paper's numbers:
table3_workloads, fig4_read_distribution, table4_refresh_overhead,
table5_mlc, fig6_qlc, blocks_overhead, ablation_lsb_placement,
ablation_coding_232. Scale comes from IDA_SCALE=smoke|full and
IDA_REQUESTS=N. Figures 8-11 are the fig8..fig11 sweep grids, e.g.:
  IDA_SCALE=smoke idasim paper table5_mlc
  idasim sweep fig8 --smoke --out fig8.json
";

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_help_and_list() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&s(&["--help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&s(&["list"])).unwrap(), Command::List);
    }

    #[test]
    fn parses_compare_options() {
        let cmd = parse_args(&s(&[
            "compare",
            "proj_1",
            "--error-rate",
            "0.5",
            "--requests",
            "1000",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Compare {
                workload: "proj_1".into(),
                error_rate: 0.5,
                requests: 1000,
                trace_out: None,
                metrics_json: None,
                trace_filter: None,
                progress: false,
            }
        );
        // A flag is never taken as the workload.
        assert_eq!(
            parse_args(&s(&["compare", "--requests", "5"])).unwrap_err(),
            "compare needs a workload name (try `idasim list`)"
        );
    }

    #[test]
    fn parses_observability_flags() {
        let cmd = parse_args(&s(&[
            "compare",
            "hm_1",
            "--trace-out",
            "out/trace.jsonl",
            "--metrics-json",
            "out/metrics.json",
            "--progress",
        ]))
        .unwrap();
        match cmd {
            Command::Compare {
                trace_out,
                metrics_json,
                progress,
                ..
            } => {
                assert_eq!(trace_out, Some(PathBuf::from("out/trace.jsonl")));
                assert_eq!(metrics_json, Some(PathBuf::from("out/metrics.json")));
                assert!(progress);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse_args(&s(&["compare", "hm_1", "--trace-out"])).is_err());
    }

    #[test]
    fn parses_trace_filter_and_rejects_unknown_classes() {
        let cmd = parse_args(&s(&["compare", "hm_1", "--trace-filter", "host,span"])).unwrap();
        match cmd {
            Command::Compare { trace_filter, .. } => {
                assert_eq!(trace_filter.as_deref(), Some("host,span"));
            }
            other => panic!("wrong command: {other:?}"),
        }
        let err = parse_args(&s(&["compare", "hm_1", "--trace-filter", "host,bogus"])).unwrap_err();
        assert!(
            err.contains("unknown trace class") && err.contains("bogus"),
            "unhelpful error: {err}"
        );
        assert!(parse_args(&s(&["compare", "hm_1", "--trace-filter"])).is_err());
    }

    #[test]
    fn parses_trace_command_modes() {
        assert_eq!(
            parse_args(&s(&["trace", "t.jsonl", "--validate", "--top", "3"])).unwrap(),
            Command::Trace {
                file: Some(PathBuf::from("t.jsonl")),
                validate: true,
                top: 3,
                diff: None,
            }
        );
        assert_eq!(
            parse_args(&s(&["trace", "--diff", "a.jsonl", "b.jsonl"])).unwrap(),
            Command::Trace {
                file: None,
                validate: false,
                top: 5,
                diff: Some((PathBuf::from("a.jsonl"), PathBuf::from("b.jsonl"))),
            }
        );
        // Exactly one of <file> / --diff.
        assert!(parse_args(&s(&["trace"])).is_err());
        assert!(parse_args(&s(&["trace", "t.jsonl", "--diff", "a", "b"])).is_err());
        assert!(parse_args(&s(&["trace", "--diff", "a.jsonl"])).is_err());
        assert!(parse_args(&s(&["trace", "t.jsonl", "--bogus"])).is_err());
        assert_eq!(
            parse_args(&s(&["trace", "--diff", "a.jsonl", "--validate"])).unwrap_err(),
            "--diff needs two trace paths"
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&s(&["describe"])).is_err());
        assert!(parse_args(&s(&["frobnicate"])).is_err());
        assert!(parse_args(&s(&["compare", "proj_1", "--error-rate", "2.0"])).is_err());
        assert!(parse_args(&s(&["compare", "proj_1", "--bogus"])).is_err());
        assert_eq!(
            parse_args(&s(&["describe", "hm_1", "--bogus"])).unwrap_err(),
            "unexpected argument: --bogus"
        );
        assert_eq!(
            parse_args(&s(&["list", "extra"])).unwrap_err(),
            "unexpected argument: extra"
        );
    }

    #[test]
    fn parses_sweep_options() {
        let cmd = parse_args(&s(&[
            "sweep",
            "fig8",
            "--jobs",
            "4",
            "--journal",
            "results/fig8.journal.jsonl",
            "--out",
            "results/fig8.json",
            "--smoke",
            "--progress",
            "--warm-cache",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Sweep {
                grid: "fig8".into(),
                jobs: Some(4),
                journal: Some(PathBuf::from("results/fig8.journal.jsonl")),
                out: Some(PathBuf::from("results/fig8.json")),
                smoke: true,
                requests: None,
                progress: true,
                warm_cache: true,
            }
        );
        let defaults = parse_args(&s(&["sweep", "fig9"])).unwrap();
        assert_eq!(
            defaults,
            Command::Sweep {
                grid: "fig9".into(),
                jobs: None,
                journal: None,
                out: None,
                smoke: false,
                requests: None,
                progress: false,
                warm_cache: false,
            }
        );
        assert_eq!(
            parse_args(&s(&["sweep", "fig8", "--out", "--smoke"])).unwrap_err(),
            "--out needs a path"
        );
    }

    #[test]
    fn parses_snapshot_options() {
        let cmd = parse_args(&s(&[
            "snapshot",
            "save",
            "warm.snap",
            "--workload",
            "proj_3",
            "--system",
            "IDA-E20",
            "--smoke",
            "--requests",
            "500",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Snapshot {
                action: "save".into(),
                path: PathBuf::from("warm.snap"),
                workload: Some("proj_3".into()),
                system: "IDA-E20".into(),
                smoke: true,
                requests: Some(500),
            }
        );
        let inspect = parse_args(&s(&["snapshot", "inspect", "warm.snap"])).unwrap();
        assert_eq!(
            inspect,
            Command::Snapshot {
                action: "inspect".into(),
                path: PathBuf::from("warm.snap"),
                workload: None,
                system: "Baseline".into(),
                smoke: false,
                requests: None,
            }
        );
        // save without a workload, a bogus action, and a missing path all
        // fail at parse time.
        assert!(parse_args(&s(&["snapshot", "save", "warm.snap"])).is_err());
        assert!(parse_args(&s(&["snapshot", "diff", "warm.snap"])).is_err());
        assert!(parse_args(&s(&["snapshot", "inspect"])).is_err());
        assert!(parse_args(&s(&["snapshot", "inspect", "--smoke"])).is_err());
        assert_eq!(
            parse_args(&s(&["snapshot", "save", "x.snap", "--workload", "--smoke"])).unwrap_err(),
            "--workload needs a name"
        );
    }

    #[test]
    fn snapshot_save_restore_inspect_round_trip() {
        let dir = std::env::temp_dir().join(format!("ida-cli-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("warm.snap");

        let saved = run(Command::Snapshot {
            action: "save".into(),
            path: path.clone(),
            workload: Some("proj_3".into()),
            system: "Baseline".into(),
            smoke: true,
            requests: Some(300),
        })
        .unwrap();
        assert!(saved.contains("cache key"), "no cache key in: {saved}");
        assert!(path.exists());

        let inspected = run(Command::Snapshot {
            action: "inspect".into(),
            path: path.clone(),
            workload: None,
            system: "Baseline".into(),
            smoke: true,
            requests: None,
        })
        .unwrap();
        assert!(inspected.contains("proj_3/Baseline"), "{inspected}");
        assert!(inspected.contains("300 measured requests"), "{inspected}");

        // Restoring runs the measured trace; twice gives identical output
        // (the file is read-only state, so each restore forks fresh).
        let r1 = run(Command::Snapshot {
            action: "restore".into(),
            path: path.clone(),
            workload: None,
            system: "Baseline".into(),
            smoke: true,
            requests: None,
        })
        .unwrap();
        let r2 = run(Command::Snapshot {
            action: "restore".into(),
            path: path.clone(),
            workload: None,
            system: "Baseline".into(),
            smoke: true,
            requests: None,
        })
        .unwrap();
        assert_eq!(r1, r2);
        assert!(r1.contains("replayed 300 requests"), "{r1}");

        // A truncated file is rejected with a real error, not a panic.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = run(Command::Snapshot {
            action: "inspect".into(),
            path,
            workload: None,
            system: "Baseline".into(),
            smoke: true,
            requests: None,
        })
        .unwrap_err();
        assert!(
            err.contains("not a valid snapshot"),
            "unhelpful error: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_jobs_validation_rejects_zero_and_garbage() {
        let zero = parse_args(&s(&["sweep", "fig8", "--jobs", "0"])).unwrap_err();
        assert!(zero.contains("at least 1"), "unhelpful error: {zero}");
        let word = parse_args(&s(&["sweep", "fig8", "--jobs", "four"])).unwrap_err();
        assert!(word.contains("positive integer"), "unhelpful error: {word}");
        assert!(parse_args(&s(&["sweep", "fig8", "--jobs", "-1"])).is_err());
        assert!(parse_args(&s(&["sweep", "fig8", "--jobs", "2.5"])).is_err());
        assert!(parse_args(&s(&["sweep", "fig8", "--jobs"])).is_err());
        // The same validator guards IDA_JOBS (SweepConfig::from_env).
        assert!(ida_sweep::pool::parse_jobs("0").is_err());
        assert!(ida_sweep::pool::parse_jobs("8").is_ok());
    }

    #[test]
    fn sweep_needs_a_grid_name() {
        assert!(parse_args(&s(&["sweep"])).is_err());
        assert!(parse_args(&s(&["sweep", "--jobs", "2"])).is_err());
        assert!(parse_args(&s(&["sweep", "fig8", "--bogus"])).is_err());
        let err = run(Command::Sweep {
            grid: "fig99".into(),
            jobs: Some(1),
            journal: None,
            out: None,
            smoke: true,
            requests: None,
            progress: false,
            warm_cache: false,
        })
        .unwrap_err();
        assert!(err.contains("unknown sweep grid"), "unhelpful error: {err}");
    }

    #[test]
    fn paper_parse_takes_exactly_one_known_experiment() {
        assert_eq!(
            parse_args(&s(&["paper", "table5_mlc"])).unwrap(),
            Command::Paper {
                name: "table5_mlc".into()
            }
        );
        let missing = parse_args(&s(&["paper"])).unwrap_err();
        assert!(missing.contains("needs an experiment name"), "{missing}");
        let unknown = parse_args(&s(&["paper", "fig8_response_time"])).unwrap_err();
        assert!(unknown.contains("unknown experiment"), "{unknown}");
        for (name, _) in EXPERIMENTS {
            assert!(unknown.contains(name), "{unknown} lacks {name}");
            assert!(USAGE.contains(name), "usage lacks {name}");
        }
        assert_eq!(EXPERIMENTS.len(), 8);
        let extra = parse_args(&s(&["paper", "table3_workloads", "--smoke"])).unwrap_err();
        assert!(extra.contains("unexpected argument: --smoke"), "{extra}");
    }

    #[test]
    fn paper_table3_reports_every_workload() {
        let out = run(Command::Paper {
            name: "table3_workloads".into(),
        })
        .unwrap();
        assert!(
            out.starts_with("Table III — workload characteristics"),
            "{out}"
        );
        let rows = paper_workloads()
            .iter()
            .filter(|p| out.lines().any(|l| l.starts_with(&p.spec.name)))
            .count();
        assert_eq!(rows, 11, "{out}");
    }

    #[test]
    fn parses_bench_options() {
        let cmd = parse_args(&s(&[
            "bench",
            "--smoke",
            "--out",
            "BENCH_PR4.json",
            "--baseline",
            "old.json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Bench {
                smoke: true,
                out: Some(PathBuf::from("BENCH_PR4.json")),
                baseline: Some(PathBuf::from("old.json")),
            }
        );
        assert_eq!(
            parse_args(&s(&["bench"])).unwrap(),
            Command::Bench {
                smoke: false,
                out: None,
                baseline: None,
            }
        );
        assert!(parse_args(&s(&["bench", "--out"])).is_err());
        assert!(parse_args(&s(&["bench", "--bogus"])).is_err());
    }

    #[test]
    fn bench_rejects_missing_baseline_file() {
        let err = run(Command::Bench {
            smoke: true,
            out: None,
            baseline: Some(PathBuf::from("/nonexistent/baseline.json")),
        })
        .unwrap_err();
        assert!(err.contains("cannot read baseline"), "unhelpful: {err}");
    }

    #[test]
    fn list_mentions_all_workloads() {
        let out = run(Command::List).unwrap();
        for name in ["proj_1", "usr_2", "stg_1"] {
            assert!(out.contains(name), "missing {name}");
        }
    }

    #[test]
    fn describe_unknown_workload_errors() {
        assert!(run(Command::Describe {
            workload: "nope".into()
        })
        .is_err());
    }

    #[test]
    fn describe_prints_characteristics() {
        let out = run(Command::Describe {
            workload: "hm_1".into(),
        })
        .unwrap();
        assert!(out.contains("read ratio"));
        assert!(out.contains("footprint"));
    }

    #[test]
    fn load_parses_with_defaults_and_flags() {
        let cmd = parse_args(&s(&["load", "proj_3"])).unwrap();
        match cmd {
            Command::Load {
                workload,
                error_rate,
                iops,
                arrival,
                tenants,
                admission,
                slo_us,
                capacity,
                seed,
                ..
            } => {
                assert_eq!(workload, "proj_3");
                assert!((error_rate - 0.2).abs() < 1e-9);
                assert_eq!(iops, None);
                assert_eq!(arrival, "poisson");
                assert_eq!(tenants, 1);
                assert_eq!(admission, "shed");
                assert_eq!(slo_us, 2_000);
                assert!(!capacity);
                assert_eq!(seed, 0);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let cmd = parse_args(&s(&[
            "load",
            "hm_1",
            "--iops",
            "5000",
            "--arrival",
            "onoff",
            "--tenants",
            "3",
            "--admission",
            "delay",
            "--slo-us",
            "1500",
            "--capacity",
            "--lo",
            "100",
            "--hi",
            "9000",
            "--smoke",
            "--seed",
            "7",
            "--out",
            "load.json",
        ]))
        .unwrap();
        match cmd {
            Command::Load {
                iops,
                arrival,
                tenants,
                admission,
                slo_us,
                capacity,
                lo,
                hi,
                smoke,
                seed,
                out,
                ..
            } => {
                assert_eq!(iops, Some(5_000));
                assert_eq!(arrival, "onoff");
                assert_eq!(tenants, 3);
                assert_eq!(admission, "delay");
                assert_eq!(slo_us, 1_500);
                assert!(capacity && smoke);
                assert_eq!((lo, hi), (Some(100), Some(9_000)));
                assert_eq!(seed, 7);
                assert_eq!(out, Some(PathBuf::from("load.json")));
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn load_rejects_bad_values_at_parse_time() {
        assert!(parse_args(&s(&["load"])).is_err());
        assert!(parse_args(&s(&["load", "proj_3", "--arrival", "chaotic"])).is_err());
        assert!(parse_args(&s(&["load", "proj_3", "--admission", "punt"])).is_err());
        assert!(parse_args(&s(&["load", "proj_3", "--tenants", "0"])).is_err());
        assert!(parse_args(&s(&["load", "proj_3", "--slo-us", "0"])).is_err());
        assert!(parse_args(&s(&["load", "proj_3", "--error-rate", "1.5"])).is_err());
        assert!(parse_args(&s(&["load", "proj_3", "--lo", "500", "--hi", "100"])).is_err());
        assert!(parse_args(&s(&["load", "proj_3", "--bogus"])).is_err());
        // A zero bound alone would reach the capacity search's assertion.
        assert_eq!(
            parse_args(&s(&["load", "proj_3", "--capacity", "--lo", "0"])).unwrap_err(),
            "--lo must be positive"
        );
        assert_eq!(
            parse_args(&s(&["load", "proj_3", "--capacity", "--hi", "0"])).unwrap_err(),
            "--hi must be positive"
        );
    }

    #[test]
    fn replay_parses_and_requires_the_msr_path() {
        let cmd = parse_args(&s(&["replay", "--msr", "hm_0.csv", "--closed", "32"])).unwrap();
        assert_eq!(
            cmd,
            Command::Replay {
                msr: PathBuf::from("hm_0.csv"),
                error_rate: 0.2,
                closed: Some(32),
                smoke: false,
                trace_out: None,
                metrics_json: None,
                progress: false,
            }
        );
        assert!(parse_args(&s(&["replay"])).is_err());
        assert!(parse_args(&s(&["replay", "--msr", "t.csv", "--closed", "0"])).is_err());
        assert!(parse_args(&s(&["replay", "--closed", "8"])).is_err());
        assert!(parse_args(&s(&["replay", "--msr", "t.csv", "--bogus"])).is_err());
    }

    #[test]
    fn replay_reports_missing_files_as_errors() {
        let err = run(Command::Replay {
            msr: PathBuf::from("/nonexistent/trace.csv"),
            error_rate: 0.2,
            closed: None,
            smoke: true,
            trace_out: None,
            metrics_json: None,
            progress: false,
        })
        .unwrap_err();
        assert!(err.contains("cannot read"), "unhelpful: {err}");
    }

    #[test]
    fn usage_covers_the_new_subcommands() {
        assert!(USAGE.contains("idasim load"));
        assert!(USAGE.contains("idasim replay --msr"));
        assert!(USAGE.contains("--capacity"));
        assert!(USAGE.contains("sweep load"));
        assert!(USAGE.contains("idasim soak"));
        assert!(USAGE.contains("sweep lifetime"));
        assert!(USAGE.contains("idasim serve"));
        assert!(USAGE.contains("idasim worker"));
        assert!(USAGE.contains("--connect"));
        assert!(USAGE.contains("idasim paper <experiment>"));
    }

    #[test]
    fn usage_synopsis_matches_the_flag_table() {
        // Each subcommand's synopsis lines (continuations included).
        let synopsis = |name: &str| {
            let mut text = String::new();
            let mut inside = false;
            let lines = USAGE.lines().skip_while(|l| *l != "USAGE:").skip(1);
            for line in lines.take_while(|l| !l.is_empty()) {
                if let Some(rest) = line.strip_prefix("  idasim ") {
                    inside = rest.split(' ').next() == Some(name);
                }
                if inside {
                    text.push_str(line);
                    text.push(' ');
                }
            }
            text
        };
        for cmd in args::COMMANDS {
            let text = synopsis(cmd.name);
            assert!(!text.is_empty(), "usage lacks idasim {}", cmd.name);
            let advertised: Vec<&str> = text
                .split([' ', '[', ']'])
                .filter(|w| w.starts_with("--"))
                .collect();
            for flag in cmd.flags {
                assert!(
                    advertised.contains(&flag.name),
                    "usage of {} lacks {}",
                    cmd.name,
                    flag.name
                );
            }
            for word in advertised {
                assert!(
                    cmd.flags.iter().any(|f| f.name == word),
                    "usage of {} advertises {word}, which it does not accept",
                    cmd.name
                );
            }
        }
    }

    #[test]
    fn serve_and_worker_parse_with_defaults_and_flags() {
        assert_eq!(
            parse_args(&s(&["serve", "faults", "--smoke"])).unwrap(),
            Command::Serve {
                grid: "faults".into(),
                listen: DEFAULT_FABRIC_ADDR.into(),
                journal: None,
                out: None,
                smoke: true,
                requests: None,
            }
        );
        assert_eq!(
            parse_args(&s(&[
                "serve",
                "fig10",
                "--listen",
                "0.0.0.0:9000",
                "--journal",
                "j.jsonl",
                "--out",
                "agg.json",
                "--requests",
                "800",
            ]))
            .unwrap(),
            Command::Serve {
                grid: "fig10".into(),
                listen: "0.0.0.0:9000".into(),
                journal: Some(PathBuf::from("j.jsonl")),
                out: Some(PathBuf::from("agg.json")),
                smoke: false,
                requests: Some(800),
            }
        );
        assert_eq!(
            parse_args(&s(&["worker"])).unwrap(),
            Command::Worker {
                connect: DEFAULT_FABRIC_ADDR.into(),
                jobs: None,
            }
        );
        assert_eq!(
            parse_args(&s(&["worker", "--connect", "10.0.0.2:7141", "--jobs", "2"])).unwrap(),
            Command::Worker {
                connect: "10.0.0.2:7141".into(),
                jobs: Some(2),
            }
        );
        // serve needs a grid; neither takes the other's flags.
        assert!(parse_args(&s(&["serve"])).unwrap_err().contains("grid"));
        assert!(parse_args(&s(&["serve", "faults", "--jobs", "2"]))
            .unwrap_err()
            .contains("unknown option"));
        assert!(parse_args(&s(&["worker", "--listen", "x"]))
            .unwrap_err()
            .contains("unknown option"));
        assert!(parse_args(&s(&["worker", "--connect"]))
            .unwrap_err()
            .contains("--connect needs an address"));
    }

    #[test]
    fn soak_parses_with_defaults_and_flags() {
        assert_eq!(
            parse_args(&s(&["soak", "hm_1"])).unwrap(),
            Command::Soak {
                workload: "hm_1".into(),
                level: "mid".into(),
                error_rate: 0.2,
                epochs: ida_bench::soak::SOAK_EPOCHS,
                jobs: None,
                journal: None,
                out: None,
                smoke: false,
                requests: None,
                progress: false,
            }
        );
        let cmd = parse_args(&s(&[
            "soak",
            "proj_3",
            "--level",
            "high",
            "--epochs",
            "4",
            "--error-rate",
            "0.3",
            "--jobs",
            "2",
            "--journal",
            "soak.journal.jsonl",
            "--out",
            "soak.json",
            "--smoke",
            "--requests",
            "800",
            "--progress",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Soak {
                workload: "proj_3".into(),
                level: "high".into(),
                error_rate: 0.3,
                epochs: 4,
                jobs: Some(2),
                journal: Some(PathBuf::from("soak.journal.jsonl")),
                out: Some(PathBuf::from("soak.json")),
                smoke: true,
                requests: Some(800),
                progress: true,
            }
        );
    }

    #[test]
    fn soak_rejects_bad_input_eagerly() {
        assert!(parse_args(&s(&["soak"])).is_err());
        assert!(parse_args(&s(&["soak", "--level", "mid"])).is_err());
        let err = parse_args(&s(&["soak", "hm_1", "--level", "molten"])).unwrap_err();
        assert!(err.contains("unknown aging level"), "unhelpful: {err}");
        assert!(err.contains("off, low, mid, high"), "unhelpful: {err}");
        assert!(parse_args(&s(&["soak", "hm_1", "--epochs", "0"])).is_err());
        assert!(parse_args(&s(&["soak", "hm_1", "--error-rate", "1.5"])).is_err());
        assert!(parse_args(&s(&["soak", "hm_1", "--bogus"])).is_err());
    }

    #[test]
    fn soak_smoke_runs_both_systems_with_clean_invariants() {
        let out = run(Command::Soak {
            workload: "hm_1".into(),
            level: "high".into(),
            error_rate: 0.2,
            epochs: 2,
            jobs: Some(1),
            journal: None,
            out: None,
            smoke: true,
            requests: Some(600),
            progress: false,
        })
        .unwrap();
        assert!(out.contains("Baseline"), "missing Baseline table: {out}");
        assert!(out.contains("IDA-E20"), "missing IDA table: {out}");
        assert!(
            out.contains("invariants: all epochs clean"),
            "invariants not clean: {out}"
        );
        assert!(!out.contains("SOAK UNHEALTHY"), "unhealthy soak: {out}");
        // Unknown workloads fail before any soaking.
        assert!(run(Command::Soak {
            workload: "nope".into(),
            level: "mid".into(),
            error_rate: 0.2,
            epochs: 2,
            jobs: Some(1),
            journal: None,
            out: None,
            smoke: true,
            requests: Some(100),
            progress: false,
        })
        .is_err());
    }
}
