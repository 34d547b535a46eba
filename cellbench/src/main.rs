//! Sweep-cell benchmark: what one cell of the paper's evaluation grid
//! costs on the host, end to end and layer by layer.
//!
//! ```text
//! cellbench --workload <fig8_unique|faults_forked|lifetime_soak>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the benchmark runs rounds of the workload's cells on
//! the sweep pool (`ida_sweep::run_cells` with the warm cache on), each
//! round with a fresh cache, while another round still fits in
//! `--seconds` and until at least [`MIN_CELLS`] cells ran, and prints the
//! end-to-end metrics. With
//! `--trace 1` it alternates untraced rounds with traced ones and prints
//! the per-layer metrics. Either way the last line of standard output is
//! one JSON object, and the process exits non-zero when an output check
//! fails. `README.md` explains the workloads and metrics.

mod grid;
mod rusage;
mod traced;

use grid::{Round, Workload, DEFAULT_SEED};
use ida_obs::json::JsonObj;
use ida_sweep::{jsonv, run_cells, CellOutcome, SweepConfig, SweepOutcome, WarmStats};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use traced::{Span, Tracer, CELL_SPAN};

/// Fewest cells a measurement covers, so that at least ten cell times lie
/// beyond the reported 75th percentile.
const MIN_CELLS: usize = 40;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_TRIALS: usize = 21;

/// The paper's Figure 8 average normalized read response of IDA-E20.
const PAPER_FIG8_E20: f64 = 0.72;

/// Aggregate hashes of one round of each workload at the default seed.
const EXPECTED: &str = include_str!("../expected.json");

/// Where traced runs write their spans.
const SPAN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

const USAGE: &str = "usage: cellbench --workload <fig8_unique|faults_forked|lifetime_soak> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |flag: &str| flags.remove(flag).ok_or(format!("missing {flag}"));
    let workload = take("--workload")?;
    let workload = grid::workload(&workload).ok_or(format!("unknown workload {workload:?}"))?;
    let number = |flag: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} needs a whole number, got {v:?}"))
    };
    let seed = number("--seed", take("--seed")?)?;
    let seconds = number("--seconds", take("--seconds")?)?;
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One round: every cell of the workload once, on a fresh warm cache.
struct RoundRun {
    outcomes: Vec<CellOutcome>,
    wall: Duration,
    /// Host time of each cell, timed by the cell closure, in ms.
    cell_ms: Vec<f64>,
    warm: WarmStats,
}

impl RoundRun {
    fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.payload().is_none())
            .count()
    }
}

fn run_round(
    round: &Round,
    jobs: usize,
    cell: impl Fn(&ida_sweep::Cell, &ida_sweep::WarmCache) -> String + Sync,
) -> RoundRun {
    let cfg = SweepConfig::serial().with_jobs(jobs).with_warm_cache();
    let cache = cfg.warm_cache().expect("warm cache attached");
    let cell_ms = std::sync::Mutex::new(Vec::with_capacity(round.cells.len()));
    let start = Instant::now();
    let outcomes = run_cells(&round.sweep, &round.cells, &cfg, |c| {
        let t = Instant::now();
        let payload = cell(c, cache);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        cell_ms.lock().expect("cell timer poisoned").push(ms);
        payload
    })
    .expect("no journal, so no journal I/O");
    RoundRun {
        outcomes,
        wall: start.elapsed(),
        cell_ms: cell_ms.into_inner().expect("cell timer poisoned"),
        warm: cache.stats(),
    }
}

fn untraced_round(round: &Round, jobs: usize) -> RoundRun {
    run_round(round, jobs, |c, cache| round.run_cell(c, Some(cache)))
}

/// A traced round: its run, its spans and its counts of simulated work.
struct TracedRound {
    run: RoundRun,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
}

fn traced_round(round: &Round, jobs: usize) -> TracedRound {
    let tracer = Tracer::new();
    let run = run_round(round, jobs, |c, cache| tracer.run_cell(round, c, cache));
    let (spans, counts) = tracer.finish();
    TracedRound { run, spans, counts }
}

/// Cells and summed wall seconds of some rounds.
fn cells_and_wall<'a>(runs: impl Iterator<Item = &'a RoundRun>) -> (usize, f64) {
    runs.fold((0, 0.0), |(n, s), r| {
        (n + r.outcomes.len(), s + r.wall.as_secs_f64())
    })
}

/// Set by [`setup_s`] in the child processes it starts.
const SETUP_PROBE_ENV: &str = "CELLBENCH_SETUP_PROBE";

/// Set up a round whose cells do no work and return when its first cell
/// started, in ns since the Unix epoch: the child's side of [`setup_s`].
fn first_cell_start(w: &Workload, seed: u64) -> u128 {
    let round = Round::new(w, seed);
    let cfg = SweepConfig::serial().with_jobs(w.jobs).with_warm_cache();
    let first = OnceLock::new();
    run_cells(&round.sweep, &round.cells, &cfg, |_| {
        first.get_or_init(SystemTime::now);
        String::new()
    })
    .expect("no journal, so no journal I/O");
    first
        .get()
        .expect("a round has cells")
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos()
}

/// Median over [`SETUP_TRIALS`] fresh processes of the time from process
/// start to the first cell start. Each trial is its own process, so the
/// trials do not share one CPU placement or allocator state.
fn setup_s(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut samples = Vec::with_capacity(SETUP_TRIALS);
    for _ in 0..SETUP_TRIALS {
        let spawned = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("clock after 1970")
            .as_nanos();
        let out = std::process::Command::new(&exe)
            .args([
                "--workload",
                args.workload.name,
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--seconds", "0", "--trace", "0"])
            .env(SETUP_PROBE_ENV, "1")
            .output()
            .map_err(|e| format!("set-up probe did not start: {e}"))?;
        let first: u128 = String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse()
            .map_err(|_| {
                format!(
                    "set-up probe failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                )
            })?;
        samples.push(first.saturating_sub(spawned) as f64 / 1e9);
    }
    Ok(quantile(&mut samples, 0.5))
}

/// Whether another round like the last one still ends within `seconds`
/// of `start`.
fn fits(start: Instant, runs: &[RoundRun], seconds: u64) -> bool {
    let last = runs.last().map_or(Duration::ZERO, |r| r.wall);
    start.elapsed() + last <= Duration::from_secs(seconds)
}

/// Nearest-rank quantile.
fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

fn aggregate_hash(round: &Round, run: &RoundRun) -> u64 {
    let outcome = SweepOutcome {
        sweep: round.sweep.clone(),
        outcomes: run.outcomes.clone(),
    };
    ida_snap::fnv1a(outcome.aggregate_json().as_bytes())
}

fn expected_hash(workload: &str) -> Option<u64> {
    let v = jsonv::parse(EXPECTED).ok()?;
    let hex = v.get(workload)?.as_str()?;
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
}

/// Mean read response of IDA-E20 over Baseline, averaged over the
/// round's matched pairs (same workload and parameters). Lifetime cells
/// compare their fresh (epoch 0) means.
fn ida_norm_read_e20(run: &RoundRun) -> f64 {
    let mut pairs: BTreeMap<String, [Option<f64>; 2]> = BTreeMap::new();
    for o in &run.outcomes {
        let side = match o.cell.system.as_str() {
            "Baseline" => 0,
            "IDA-E20" => 1,
            _ => continue,
        };
        let payload = jsonv::parse(o.payload().unwrap_or("{}")).ok();
        let mean = payload.and_then(|v| {
            v.get("mean_read_ns")
                .or(v.get("fresh_mean_read_ns"))
                .and_then(|x| x.as_f64())
        });
        let key = format!("{}/{:?}", o.cell.workload, o.cell.params);
        pairs.entry(key).or_default()[side] = mean;
    }
    let ratios: Vec<f64> = pairs.values().filter_map(|p| Some(p[1]? / p[0]?)).collect();
    ratios.iter().sum::<f64>() / ratios.len() as f64
}

/// Output checks, printed as they are made; any failure fails the run.
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn new() -> Self {
        Checks {
            failures: Vec::new(),
        }
    }

    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        let what = what();
        println!("check {:<58} {}", what, if ok { "ok" } else { "FAILED" });
        if !ok {
            self.failures.push(what);
        }
    }

    /// No failed cells, the same aggregate in every round, IDA-E20 ahead
    /// of Baseline and, at the default seed, the recorded aggregate and
    /// `run_cell`'s payloads.
    fn outputs(&mut self, w: &Workload, seed: u64, round: &Round, runs: &[&RoundRun]) {
        let failed: usize = runs.iter().map(|r| r.failed()).sum();
        self.require(failed == 0, || format!("no failed cells ({failed} failed)"));
        let hash = aggregate_hash(round, runs[0]);
        println!(
            "aggregate hash {hash:#018x} ({} cells a round)",
            round.cells.len()
        );
        let same = runs.iter().all(|r| aggregate_hash(round, r) == hash);
        self.require(same, || {
            format!("same aggregate in all {} rounds", runs.len())
        });
        let norm = ida_norm_read_e20(runs[0]);
        self.require(norm < 1.0, || {
            format!("IDA-E20 beats Baseline on read response ({norm:.4})")
        });
        if seed != DEFAULT_SEED {
            return;
        }
        let expected = expected_hash(w.name);
        self.require(expected == Some(hash), || {
            let expected = expected.map_or("none".into(), |h| format!("{h:#018x}"));
            format!("aggregate matches expected.json ({expected})")
        });
        let cfg = SweepConfig::serial().with_jobs(w.jobs);
        let reference = run_cells(&round.sweep, &round.cells, &cfg, |c| {
            ida_bench::sweep::run_cell(c, &round.scale)
        })
        .expect("no journal, so no journal I/O");
        let same = reference
            .iter()
            .zip(&runs[0].outcomes)
            .all(|(a, b)| a.payload().is_some() && a.payload() == b.payload());
        self.require(same, || "payloads equal ida_bench::sweep::run_cell".into());
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let mut obj = JsonObj::new();
    for m in metrics {
        obj = obj.raw(
            m.name,
            &JsonObj::new()
                .f64("value", m.value)
                .str("unit", m.unit)
                .finish(),
        );
    }
    println!(
        "{}",
        JsonObj::new()
            .bool("correct", correct)
            .u64("attempted", attempted as u64)
            .u64("failed", failed as u64)
            .raw("metrics", &obj.finish())
            .finish()
    );
}

fn untraced(args: &Args, round: &Round, setup_s: f64) -> (Checks, usize, usize, Vec<Metric>) {
    let w = &args.workload;
    let before = rusage::usage();
    let start = Instant::now();
    let mut runs = Vec::new();
    let mut cells = 0;
    // Read after the first round. Later rounds reuse the heap the first
    // one freed, more or less of it depending on which allocator arena
    // their new pool threads land in, which is noise, not the program.
    let mut peak_rss_mb = None;
    while runs.is_empty() || fits(start, &runs, args.seconds) || cells < MIN_CELLS {
        let run = untraced_round(round, w.jobs);
        peak_rss_mb.get_or_insert_with(|| rusage::usage().max_rss_mb);
        cells += run.outcomes.len();
        runs.push(run);
    }
    let after = rusage::usage();
    let wall: f64 = runs.iter().map(|r| r.wall.as_secs_f64()).sum();
    let failed: usize = runs.iter().map(|r| r.failed()).sum();
    let mut cell_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.cell_ms.iter().copied())
        .collect();
    println!(
        "workload {} seed {} jobs {}: {} rounds, {} cells timed",
        w.name,
        args.seed,
        w.jobs,
        runs.len(),
        cell_ms.len()
    );
    let norm = ida_norm_read_e20(&runs[0]);
    println!(
        "cells_failed_frac {} ratio; ida_norm_read_e20 {norm:.4} vs paper Fig 8 E20 {PAPER_FIG8_E20} (error {:+.1}%)",
        failed as f64 / cells as f64,
        (norm / PAPER_FIG8_E20 - 1.0) * 100.0
    );
    let metrics = vec![
        metric("cells_per_s", cells as f64 / wall, "cells/s"),
        metric("cell_ms_p50", quantile(&mut cell_ms, 0.5), "ms"),
        metric("cell_ms_p75", quantile(&mut cell_ms, 0.75), "ms"),
        metric(
            "cpu_s_per_cell",
            (after.cpu_s - before.cpu_s) / cells as f64,
            "s",
        ),
        metric("peak_rss_mb", peak_rss_mb.expect("a round ran"), "MB"),
        metric("setup_s", setup_s, "s"),
        metric("ida_norm_read_e20", norm, "ratio"),
    ];
    let mut checks = Checks::new();
    checks.outputs(w, args.seed, round, &runs.iter().collect::<Vec<_>>());
    (checks, cells, failed, metrics)
}

fn traced(args: &Args, round: &Round) -> (Checks, usize, usize, Vec<Metric>) {
    let w = &args.workload;
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced: Vec<TracedRound> = Vec::new();
    let mut minflt = 0;
    let mut last_pair = Duration::ZERO;
    while plain.is_empty() || start.elapsed() + last_pair <= Duration::from_secs(args.seconds) {
        let pair = Instant::now();
        let before = rusage::usage();
        plain.push(untraced_round(round, w.jobs));
        minflt += rusage::usage().minflt - before.minflt;
        traced.push(traced_round(round, w.jobs));
        last_pair = pair.elapsed();
    }
    let (plain_cells, plain_wall) = cells_and_wall(plain.iter());
    let (t_cells, t_wall) = cells_and_wall(traced.iter().map(|t| &t.run));
    let overhead_pct =
        (1.0 - (t_cells as f64 / t_wall) / (plain_cells as f64 / plain_wall)) * 100.0;

    let mut checks = Checks::new();
    let all: Vec<&RoundRun> = plain.iter().chain(traced.iter().map(|t| &t.run)).collect();
    checks.outputs(w, args.seed, round, &all);

    // Roll spans up into per-layer self time, and check that each traced
    // cell's layers account for its time.
    let mut self_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut worst_glue_pct: f64 = 0.0;
    let mut jsonl = String::new();
    let mut idle_ns = 0.0;
    for (i, t) in traced.iter().enumerate() {
        let mut in_cells_ns = 0;
        for (s, own) in t.spans.iter().zip(traced::self_times(&t.spans)) {
            *self_ns.entry(s.name).or_default() += own;
            if s.name == CELL_SPAN {
                in_cells_ns += s.dur_ns();
                worst_glue_pct = worst_glue_pct.max(own as f64 / s.dur_ns() as f64 * 100.0);
            }
        }
        idle_ns += t.run.wall.as_nanos() as f64 * w.jobs as f64 - in_cells_ns as f64;
        jsonl.push_str(&traced::spans_jsonl(&t.spans, &round.cells, i));
    }
    checks.require(worst_glue_pct <= overhead_pct.max(1.0), || {
        format!("layers account for each traced cell (worst gap {worst_glue_pct:.3}%)")
    });
    // Counts are simulated work, so every traced round must agree.
    let counts = &traced[0].counts;
    let same_counts = traced.iter().all(|t| &t.counts == counts);
    checks.require(same_counts, || {
        "same simulated counts in every traced round".into()
    });
    let same_payloads = traced.iter().zip(&plain).all(|(t, p)| {
        let mut pairs = t.run.outcomes.iter().zip(&p.outcomes);
        pairs.all(|(a, b)| a.payload() == b.payload())
    });
    checks.require(same_payloads, || {
        "traced payloads equal untraced payloads".into()
    });
    let path = format!("{SPAN_DIR}/spans-{}-seed{}.jsonl", w.name, args.seed);
    let written = std::fs::create_dir_all(SPAN_DIR).and_then(|()| std::fs::write(&path, jsonl));
    checks.require(written.is_ok(), || format!("spans written to {path}"));

    let per_cell_ms =
        |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / t_cells as f64;
    let secs = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e9;
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let rounds = traced.len() as f64;
    let mib = |bytes: f64| bytes / (1u64 << 20) as f64;
    let rate = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let warm = traced[0].run.warm;
    let metrics = vec![
        metric("ssd.construct_ms", per_cell_ms("ssd.construct"), "ms/cell"),
        metric("ssd.replay_ms", per_cell_ms("ssd.replay"), "ms/cell"),
        metric("ssd.events", count("ssd.events"), "count"),
        metric(
            "ssd.events_per_s",
            rate(count("ssd.events") * rounds, secs("ssd.replay")),
            "1/s",
        ),
        metric("ssd.flash_ops", count("ssd.flash_ops"), "count"),
        metric("ssd.read_retries", count("ssd.read_retries"), "count"),
        metric("ftl.prefill_ms", per_cell_ms("ftl.prefill"), "ms/cell"),
        metric("ftl.age_ms", per_cell_ms("ftl.age"), "ms/cell"),
        metric("ftl.refresh_ms", per_cell_ms("ftl.refresh"), "ms/cell"),
        metric(
            "ftl.writes_per_s",
            rate(
                count("ftl.warm_writes") * rounds,
                secs("ftl.prefill") + secs("ftl.age"),
            ),
            "1/s",
        ),
        metric("ftl.host_writes", count("ftl.host_writes"), "count"),
        metric("ftl.gc_runs", count("ftl.gc_runs"), "count"),
        metric("ftl.gc_copies", count("ftl.gc_copies"), "count"),
        metric("ftl.erases", count("ftl.erases"), "count"),
        metric("ftl.refreshes", count("ftl.refreshes"), "count"),
        metric("ftl.ida_conversions", count("ftl.ida_conversions"), "count"),
        metric(
            "ftl.write_amp",
            rate(
                count("ftl.host_writes") + count("ftl.gc_copies") + count("ftl.refresh_moves"),
                count("ftl.host_writes"),
            ),
            "ratio",
        ),
        metric("workloads.gen_ms", per_cell_ms("workloads.gen"), "ms/cell"),
        metric("snap.capture_ms", per_cell_ms("snap.capture"), "ms/cell"),
        metric(
            "snap.capture_mb_s",
            rate(
                mib(count("snap.capture_bytes") * rounds),
                secs("snap.capture"),
            ),
            "MB/s",
        ),
        metric("snap.fork_ms", per_cell_ms("snap.fork"), "ms/cell"),
        metric(
            "snap.fork_mb_s",
            rate(mib(count("snap.fork_bytes") * rounds), secs("snap.fork")),
            "MB/s",
        ),
        metric(
            "snap.image_mb",
            rate(mib(count("snap.capture_bytes")), count("snap.captures")),
            "MB",
        ),
        metric("sweep.warm_hits", warm.total_hits() as f64, "count"),
        metric("sweep.warm_misses", warm.misses as f64, "count"),
        metric(
            "sweep.warm_hit_ratio",
            rate(
                warm.total_hits() as f64,
                (warm.total_hits() + warm.misses) as f64,
            ),
            "ratio",
        ),
        metric(
            "sweep.captures_unread",
            round.captures_unread() as f64,
            "count",
        ),
        metric("sweep.cache_mb", mib(count("snap.capture_bytes")), "MB"),
        metric(
            "sweep.warm_wait_ms",
            per_cell_ms("sweep.get_or_build"),
            "ms/cell",
        ),
        metric("sweep.idle_ms", idle_ns / 1e6 / t_cells as f64, "ms/cell"),
        metric("faults.injected", count("faults.injected"), "count"),
        metric("faults.redirects", count("faults.redirects"), "count"),
        metric("faults.recoveries", count("faults.recoveries"), "count"),
        metric("bench.report_ms", per_cell_ms("bench.report"), "ms/cell"),
        metric("bench.trace_overhead_pct", overhead_pct, "%"),
        metric(
            "proc.minflt_per_cell",
            minflt as f64 / plain_cells as f64,
            "faults/cell",
        ),
    ];
    println!(
        "workload {} seed {} jobs {}: {} untraced + {} traced rounds of {} cells; spans in {path}",
        w.name,
        args.seed,
        w.jobs,
        plain.len(),
        traced.len(),
        round.cells.len()
    );
    let failed = all.iter().map(|r| r.failed()).sum();
    (checks, plain_cells + t_cells, failed, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if std::env::var_os(SETUP_PROBE_ENV).is_some() {
        println!("{}", first_cell_start(&args.workload, args.seed));
        return ExitCode::SUCCESS;
    }
    let round = Round::new(&args.workload, args.seed);
    let (checks, attempted, failed, metrics) = if args.trace {
        traced(&args, &round)
    } else {
        match setup_s(&args) {
            Ok(setup) => untraced(&args, &round, setup),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let correct = checks.failures.is_empty();
    print_result(correct, attempted, failed, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("output check failed: {}", checks.failures.join("; "));
        ExitCode::FAILURE
    }
}
