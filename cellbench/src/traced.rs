//! The traced run: the same cells, re-executed with a span around every
//! public call the cell makes into each layer.
//!
//! A span records its name, start, end, parent span, the cell it belongs
//! to and the pool worker that ran it. Spans stay in memory and are
//! written as JSONL when the run ends. A span's *self time* is its
//! duration minus its children's; the per-layer metrics are self times
//! rolled up by span name, so the layers of one cell add up to the cell.
//!
//! The traced cell spells out the calls that `run_config_faulted_cached`
//! and `run_soak_cached` make internally (warm-up, capture, fork, replay,
//! soak epochs). Its payload must equal the untraced payload byte for
//! byte, which proves the trace decomposes the same work.

use crate::grid::Round;
use ida_bench::runner::{to_host_ops, warm_cache_key, ExperimentScale};
use ida_bench::soak::{soak_metrics_json, EpochStats, SoakRun, SOAK_EPOCHS};
use ida_bench::sweep::{metrics_json, parse_system};
use ida_faults::AgingConfig;
use ida_flash::addr::PlaneAddr;
use ida_flash::timing::SimTime;
use ida_ftl::{gc, FtlStats, Lpn};
use ida_obs::json::JsonObj;
use ida_ssd::{HostOp, Report, Simulator, SsdConfig};
use ida_sweep::{derive_stream_seed, Cell, WarmCache};
use ida_workloads::suite::WorkloadPreset;
use ida_workloads::trace::Trace;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The span that wraps a whole cell; its self time is the benchmark's
/// own glue, not any layer's.
pub const CELL_SPAN: &str = "bench.cell";

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the tracer, starting at 1.
    pub id: u64,
    /// The enclosing span on the same thread (0 = none).
    pub parent: u64,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Index of the cell the span belongs to.
    pub cell: usize,
    /// Pool worker that ran it (`std::thread::ThreadId` rendered).
    pub thread: String,
    /// Start and end, in ns since the tracer was created.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans on this thread, innermost last: (id, cell).
    static OPEN: RefCell<Vec<(u64, usize)>> = const { RefCell::new(Vec::new()) };
}

/// Span and count recorder for one traced round.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, under the innermost open span
    /// of this thread. `cell` is only read for a root span; nested spans
    /// inherit their parent's cell.
    fn span_in<T>(&self, name: &'static str, cell: usize, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, cell) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let (parent, cell) = open.last().copied().unwrap_or((0, cell));
            open.push((id, cell));
            (parent, cell)
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans.lock().expect("tracer lock poisoned").push(Span {
            id,
            parent,
            name,
            cell,
            thread: format!("{:?}", std::thread::current().id()),
            start_ns,
            end_ns,
        });
        out
    }

    /// Run `f` inside a span named `name` (nested in the current span).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_in(name, usize::MAX, f)
    }

    /// Add `n` to the count `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        *self
            .counts
            .lock()
            .expect("tracer lock poisoned")
            .entry(name)
            .or_default() += n;
    }

    /// Add the FTL work a cell executed: its final counters minus the
    /// counters it started from (zero after a build, the image's after a
    /// fork).
    fn count_ftl(&self, start: &FtlStats, end: &FtlStats) {
        let d = |e: u64, s: u64| e - s;
        self.count("ftl.host_writes", d(end.host_writes, start.host_writes));
        self.count("ftl.gc_runs", d(end.gc_runs, start.gc_runs));
        self.count("ftl.gc_copies", d(end.gc_copies, start.gc_copies));
        self.count("ftl.erases", d(end.erases, start.erases));
        self.count("ftl.refreshes", d(end.refreshes, start.refreshes));
        self.count(
            "ftl.refresh_moves",
            d(end.refresh_moves, start.refresh_moves),
        );
        self.count(
            "ftl.ida_conversions",
            d(end.ida_conversions, start.ida_conversions),
        );
    }

    /// Close the tracer: its spans (in closing order) and counts.
    pub fn finish(self) -> (Vec<Span>, BTreeMap<&'static str, u64>) {
        (
            self.spans.into_inner().expect("tracer lock poisoned"),
            self.counts.into_inner().expect("tracer lock poisoned"),
        )
    }

    /// Run one cell traced, rooted in a [`CELL_SPAN`] span.
    pub fn run_cell(&self, round: &Round, cell: &Cell, cache: &WarmCache) -> String {
        self.span_in(CELL_SPAN, cell.index, || match cell.param("aging") {
            Some(level) => self.soak_cell(round, cell, level, cache),
            None => self.replay_cell(round, cell, cache),
        })
    }

    /// `run_config_faulted_cached` with open-loop replay.
    fn replay_cell(&self, round: &Round, cell: &Cell, cache: &WarmCache) -> String {
        let (cfg, faults) = round.replay_config(cell);
        let (mut sim, trace, start) = self.warmed(round.preset(cell), cfg, &round.scale, cache);
        if let Some(faults) = faults {
            self.span("ssd.arm", || sim.arm_faults(faults));
        }
        sim.set_spans(true);
        let ops = self.span("workloads.gen", || to_host_ops(&trace));
        let report = self.replay(&mut sim, ops);
        self.count_ftl(&start, sim.ftl().stats());
        self.span("ssd.drop", || drop(sim));
        self.span("bench.report", || metrics_json(&report))
    }

    /// `run_soak_cached`: warm, arm aging, then replay the trace once per
    /// epoch with wear and idle time advancing in between.
    fn soak_cell(&self, round: &Round, cell: &Cell, level: &str, cache: &WarmCache) -> String {
        let preset = round.preset(cell);
        let system = parse_system(&cell.system).unwrap_or_else(|e| panic!("{e}"));
        let aging = AgingConfig::preset(level, derive_stream_seed(cell.stream_seed, "aging"))
            .unwrap_or_else(|| panic!("unknown aging level {level:?}"));
        let cfg = round.soak_config(cell);
        let footprint = footprint(cfg.ftl.exported_pages(), preset);
        let (mut sim, trace, start) = self.warmed(preset, cfg, &round.scale, cache);
        self.span("ssd.arm", || sim.arm_aging(aging.clone()));
        sim.set_spans(true);
        let ops = self.span("workloads.gen", || to_host_ops(&trace));
        let wear_step = aging.rated_pe_cycles / (SOAK_EPOCHS as u32 - 1);
        let mut run = SoakRun {
            workload: preset.spec.name.clone(),
            system: system.label(),
            level: level.to_string(),
            epochs: Vec::with_capacity(SOAK_EPOCHS),
            violations: Vec::new(),
            read_only: None,
        };
        let mut prev = *sim.ftl().stats();
        for epoch in 0..SOAK_EPOCHS {
            if epoch > 0 {
                self.span("ssd.advance", || {
                    sim.advance_time(aging.scrub_period);
                    sim.advance_wear(wear_step);
                });
            }
            let report = self.replay(&mut sim, ops.clone());
            self.span("ftl.check", || {
                check_epoch(&sim, &report, footprint, epoch, &mut run.violations)
            });
            run.epochs
                .push(epoch_stats(epoch, wear_step * epoch as u32, &report, &prev));
            prev = report.ftl;
            if let Some(reason) = sim.ftl().read_only_reason() {
                run.read_only = Some(reason.to_string());
                break;
            }
        }
        self.count_ftl(&start, sim.ftl().stats());
        self.span("ssd.drop", || drop(sim));
        self.span("bench.report", || soak_metrics_json(&run))
    }

    /// One measured replay, with its simulated work counted.
    fn replay(&self, sim: &mut Simulator, ops: Vec<HostOp>) -> Report {
        let before = *sim.ftl().stats();
        let report = self.span("ssd.replay", || sim.run(ops));
        let after = &report.ftl;
        self.count("ssd.events", report.events_processed);
        self.count("ssd.flash_ops", report.flash_ops);
        self.count(
            "ssd.read_retries",
            after.ladder_retries - before.ladder_retries,
        );
        let injected = |s: &FtlStats| {
            s.injected_program_fails + s.injected_erase_fails + s.transient_read_faults
        };
        self.count("faults.injected", injected(after) - injected(&before));
        self.count(
            "faults.redirects",
            after.write_redirects - before.write_redirects,
        );
        self.count("faults.recoveries", after.recoveries - before.recoveries);
        report
    }

    /// `warmed_simulator_cached`: build (and capture) the warm state on a
    /// miss, fork it on a hit, and regenerate the measured trace. Returns
    /// the FTL counters the cell starts from.
    fn warmed(
        &self,
        preset: &WorkloadPreset,
        cfg: SsdConfig,
        scale: &ExperimentScale,
        cache: &WarmCache,
    ) -> (Simulator, Trace, FtlStats) {
        let key = self.span("sweep.key", || {
            warm_cache_key(&preset.spec.name, &cfg, scale)
        });
        let mut live = None;
        // The self time of this span is the time spent inside the cache
        // itself: lock traffic and, above all, waiting on a sibling
        // worker's build of the same key.
        let image = self.span("sweep.get_or_build", || {
            cache.get_or_build(key, || {
                let mut sim = self.span("ssd.construct", || Simulator::new(cfg.clone()));
                self.warm_up(&mut sim, preset, scale);
                let bytes = self.span("snap.capture", || sim.snapshot());
                self.count("snap.capture_bytes", bytes.len() as u64);
                self.count("snap.captures", 1);
                live = Some(sim);
                bytes
            })
        });
        let (sim, start) = match live {
            Some(sim) => (sim, FtlStats::default()),
            None => {
                let sim = self.span("snap.fork", || {
                    Simulator::from_snapshot(&image).unwrap_or_else(|e| {
                        panic!("warm snapshot for key {key:016x} failed to restore: {e}")
                    })
                });
                self.count("snap.fork_bytes", image.len() as u64);
                let start = *sim.ftl().stats();
                (sim, start)
            }
        };
        let trace = self.span("workloads.gen", || {
            preset.generate(footprint(cfg.ftl.exported_pages(), preset), scale.requests)
        });
        (sim, trace, start)
    }

    /// `runner::warm_up`: prefill, age, two steady-state refresh cycles
    /// with re-aging in between, and a final re-age.
    fn warm_up(&self, sim: &mut Simulator, preset: &WorkloadPreset, scale: &ExperimentScale) {
        let footprint = footprint(sim.ftl().exported_pages(), preset);
        self.warm_writes(sim, "ftl.prefill", |sim| sim.prefill(0..footprint));
        let aging = self.span("workloads.gen", || {
            to_host_ops(&preset.aging_trace(footprint))
        });
        self.warm_writes(sim, "ftl.age", |sim| sim.age(&aging));
        let trace = self.span("workloads.gen", || {
            preset.generate(footprint, scale.requests)
        });
        let span = trace.span().max(1);
        let period = (span as f64 * scale.refresh_period_frac) as SimTime;
        sim.set_refresh_period(period.max(1));
        self.span("ftl.refresh", || sim.force_refresh_all(span / 2));
        let reage1 = self.span("workloads.gen", || {
            to_host_ops(&preset.reage_trace(footprint))
        });
        self.warm_writes(sim, "ftl.age", |sim| sim.age(&reage1));
        self.span("ftl.refresh", || sim.force_refresh_all(span / 2));
        let reage2 = self.span("workloads.gen", || {
            to_host_ops(&preset.reage_trace2(footprint))
        });
        self.warm_writes(sim, "ftl.age", |sim| sim.age(&reage2));
    }

    /// A warm-up write pass inside a span, counting the host writes it
    /// issued to the FTL.
    fn warm_writes(&self, sim: &mut Simulator, name: &'static str, f: impl FnOnce(&mut Simulator)) {
        let before = sim.ftl().stats().host_writes;
        self.span(name, || f(sim));
        self.count("ftl.warm_writes", sim.ftl().stats().host_writes - before);
    }
}

/// The workload footprint the warm-up protocol uses, in pages.
fn footprint(exported_pages: u64, preset: &WorkloadPreset) -> u64 {
    ((exported_pages as f64 * preset.footprint_frac) as u64).max(1_000)
}

/// The soak's per-epoch invariant battery (`soak::check_epoch`): mapping
/// consistency, no lost acked data, victim index against the reference
/// scan and span conservation. Counter monotonicity is left out: it is a
/// few integer compares, and a violation it found would change the
/// untraced payload, which the traced payload is compared against.
fn check_epoch(
    sim: &Simulator,
    report: &Report,
    footprint: u64,
    epoch: usize,
    violations: &mut Vec<String>,
) {
    let ftl = sim.ftl();
    if let Err(e) = ftl.check_consistency() {
        violations.push(format!("epoch {epoch}: mapping consistency: {e}"));
    }
    let lost = (0..footprint).filter(|&l| !ftl.is_mapped(Lpn(l))).count();
    if lost > 0 {
        violations.push(format!(
            "epoch {epoch}: {lost} acked LPN(s) lost their mapping"
        ));
    }
    let blocks = ftl.blocks();
    for p in 0..blocks.geometry().total_planes() {
        let plane = PlaneAddr(p);
        let fast = blocks.victim_in_plane(plane, None);
        let slow = gc::select_victim_scan(blocks, plane, None);
        if fast != slow {
            violations.push(format!(
                "epoch {epoch}: victim index disagrees with scan on plane {p}: {fast:?} vs {slow:?}"
            ));
        }
    }
    if report.read_attribution.count() != report.reads.count {
        violations.push(format!(
            "epoch {epoch}: read spans ({}) != read latencies ({})",
            report.read_attribution.count(),
            report.reads.count
        ));
    }
    if report.write_attribution.count() != report.writes.count {
        violations.push(format!(
            "epoch {epoch}: write spans ({}) != write latencies ({})",
            report.write_attribution.count(),
            report.writes.count
        ));
    }
}

/// `soak::epoch_stats`: one epoch's latencies and counter deltas.
fn epoch_stats(epoch: usize, wear_pe: u32, report: &Report, prev: &FtlStats) -> EpochStats {
    let cur = &report.ftl;
    let d = |c: u64, p: u64| c.saturating_sub(p);
    let reads = d(cur.host_reads, prev.host_reads);
    let rber_e9 = d(cur.rber_e9_sum, prev.rber_e9_sum);
    EpochStats {
        epoch,
        wear_pe,
        reads: report.reads.count,
        mean_read_ns: report.reads.mean(),
        p99_read_ns: report.reads.percentile(99.0),
        mean_write_ns: report.writes.mean(),
        ladder_retries: d(cur.ladder_retries, prev.ladder_retries),
        ecc_uncorrectables: d(cur.ecc_uncorrectables, prev.ecc_uncorrectables),
        scrub_passes: d(cur.scrub_passes, prev.scrub_passes),
        scrub_relocations: d(cur.scrub_relocations, prev.scrub_relocations),
        wear_level_moves: d(cur.wear_level_moves, prev.wear_level_moves),
        refresh_moves: d(cur.refresh_moves, prev.refresh_moves),
        gc_copies: d(cur.gc_copies, prev.gc_copies),
        mean_rber: if reads > 0 {
            rber_e9 as f64 / 1e9 / reads as f64
        } else {
            0.0
        },
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns() - c)
        .collect()
}

/// Render spans as JSONL, one span per line, with the cell's ID.
pub fn spans_jsonl(spans: &[Span], cells: &[Cell], round: usize) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(
            &JsonObj::new()
                .u64("round", round as u64)
                .u64("span", s.id)
                .u64("parent", s.parent)
                .str("name", s.name)
                .str("cell", &cells[s.cell].id())
                .str("thread", &s.thread)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns)
                .finish(),
        );
        out.push('\n');
    }
    out
}
