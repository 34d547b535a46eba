//! The warm-cache sweep invariant (ISSUE 9): running a grid with the
//! warm-state cache on must produce byte-identical aggregated output to
//! running it cache-off — at any worker count — while executing strictly
//! fewer warm-ups than cells.

use ida_bench::runner::{system_config, warmed_simulator_cached, ExperimentScale};
use ida_bench::sweep::{run_cell_cached, run_grid, warm_id, warm_seed_for};
use ida_bench::SystemUnderTest;
use ida_sweep::{run_cells, SweepConfig, SweepOutcome, SweepSpec, WarmCache};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};

/// A faults grid small enough for a test: one workload, both systems,
/// every fault level (including `off` and the power-loss-scheduling
/// `high`).
fn mini_faults_grid() -> SweepSpec {
    SweepSpec::new(
        "faults",
        vec!["proj_3".into()],
        vec!["Baseline".into(), "IDA-E20".into()],
    )
    .with_axis(
        "faults",
        vec!["off".into(), "low".into(), "mid".into(), "high".into()],
    )
}

fn tiny_scale() -> ExperimentScale {
    ExperimentScale::smoke().with_requests(400)
}

#[test]
fn warm_cache_is_invisible_in_the_aggregate_and_skips_warmups() {
    let spec = mini_faults_grid();
    let scale = tiny_scale();

    let off = run_grid(&spec, &scale, &SweepConfig::serial()).expect("cache-off run");
    assert_eq!(off.failed_count(), 0, "cache-off cells failed");

    let on_cfg = SweepConfig::serial().with_warm_cache();
    let on = run_grid(&spec, &scale, &on_cfg).expect("cache-on run");
    assert_eq!(on.failed_count(), 0, "cache-on cells failed");

    assert_eq!(
        off.aggregate_json(),
        on.aggregate_json(),
        "warm cache changed sweep output"
    );

    // 8 cells, but only 2 warm identities (workload × system): the fault
    // axis is armed after warm-up and shares the snapshot.
    let stats = on_cfg.warm_cache().unwrap().stats();
    assert_eq!(
        stats.misses, 2,
        "expected one warm-up per (workload, system)"
    );
    assert_eq!(stats.total_hits(), 6, "siblings must fork, not re-warm");

    // Parallel cache-on agrees too: single-flight keeps concurrent
    // builders from racing, and forked state is scheduling-independent.
    let par_cfg = SweepConfig::serial().with_jobs(4).with_warm_cache();
    let par = run_grid(&spec, &scale, &par_cfg).expect("parallel cache-on run");
    assert_eq!(off.aggregate_json(), par.aggregate_json());
    let par_stats = par_cfg.warm_cache().unwrap().stats();
    assert_eq!(
        par_stats.misses, 2,
        "single-flight must not duplicate warm-ups"
    );
}

#[test]
fn warm_cache_spills_into_the_journal_directory_for_resume() {
    let dir = std::env::temp_dir().join(format!("ida-warm-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("journal.jsonl");
    let spec = mini_faults_grid();
    let scale = tiny_scale();

    let cfg = SweepConfig::serial()
        .with_journal(journal.clone())
        .with_warm_cache();
    let first = run_grid(&spec, &scale, &cfg).expect("journaled run");
    assert_eq!(cfg.warm_cache().unwrap().stats().misses, 2);
    let spilled = std::fs::read_dir(dir.join("warm")).unwrap().count();
    assert_eq!(spilled, 2, "each unique warm-up spills one snapshot");

    // A resumed run reloads the journal for cells — and if any cell *did*
    // re-run, it would hit the spilled snapshots instead of re-warming.
    let resumed_cfg = SweepConfig::serial()
        .with_journal(journal)
        .with_warm_cache();
    let resumed = run_grid(&spec, &scale, &resumed_cfg).expect("resumed run");
    assert_eq!(first.aggregate_json(), resumed.aggregate_json());
    assert_eq!(
        resumed.cached_count(),
        8,
        "journal should satisfy every cell"
    );
    assert_eq!(resumed_cfg.warm_cache().unwrap().stats().misses, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_identity_strips_exactly_the_post_warmup_axes() {
    let spec = mini_faults_grid();
    let cells = spec.cells();
    let warm_ids: HashSet<String> = cells.iter().map(warm_id).collect();
    assert_eq!(
        warm_ids.len(),
        2,
        "faults axis must not split warm identity"
    );
    for cell in &cells {
        assert!(!warm_id(cell).contains("faults="));
        // Same warm identity ⇒ same warm seed; the fault level never
        // perturbs the warm-up stream.
        let sibling = cells
            .iter()
            .find(|c| c.system == cell.system && c.id() != cell.id())
            .unwrap();
        assert_eq!(warm_seed_for(cell), warm_seed_for(sibling));
    }
    // Axes that *do* shape the warm-up (dtr_us via timing, phase via
    // retry config) stay in the identity.
    let fig9 = SweepSpec::new("fig9", vec!["proj_3".into()], vec!["Baseline".into()])
        .with_axis("dtr_us", vec!["30".into(), "70".into()]);
    let ids: HashSet<String> = fig9.cells().iter().map(warm_id).collect();
    assert_eq!(ids.len(), 2, "dtr_us must stay in the warm identity");
}

/// A fig8 grid small enough for a test: one workload, three systems.
fn mini_fig8_grid() -> SweepSpec {
    SweepSpec::new(
        "fig8",
        vec!["proj_3".into()],
        vec!["Baseline".into(), "IDA-E0".into(), "IDA-E40".into()],
    )
}

#[test]
fn fig8_round_captures_only_the_shared_stage1_image() {
    let spec = mini_fig8_grid();
    let scale = tiny_scale();
    let off = run_grid(&spec, &scale, &SweepConfig::serial()).expect("cache-off run");
    let cfg = SweepConfig::serial().with_warm_cache();
    let on = run_grid(&spec, &scale, &cfg).expect("cache-on run");
    assert_eq!(off.aggregate_json(), on.aggregate_json());

    let cache = cfg.warm_cache().unwrap();
    let (warm, stage) = (cache.stats(), cache.stage_stats());
    // Every system has its own complete warm state, read once: built,
    // never captured. The three share one prefill and aging pass.
    assert_eq!(warm.misses, 3);
    assert_eq!(warm.total_hits(), 0);
    assert_eq!((stage.stage1_builds, stage.stage1_forks), (1, 2));
    assert_eq!(stage.captured, 1, "only the stage-1 image is captured");
    assert_eq!(stage.dropped, 1);
    assert!(
        cache.images_held() <= 1,
        "{} images held",
        cache.images_held()
    );
}

#[test]
fn faults_round_drops_every_image_after_its_last_reader() {
    let cfg = SweepConfig::serial().with_warm_cache();
    let out = run_grid(&mini_faults_grid(), &tiny_scale(), &cfg).expect("cache-on run");
    assert_eq!(out.failed_count(), 0);
    let cache = cfg.warm_cache().unwrap();
    let stage = cache.stage_stats();
    // Two complete warm states (one per system, four readers each) and
    // the stage-1 image they were both built from.
    assert_eq!(stage.captured, 3);
    assert_eq!(stage.dropped, 3);
    assert_eq!(cache.images_held(), 0);
}

#[test]
fn a_cell_retried_after_its_image_was_dropped_rebuilds_it() {
    let spec = mini_faults_grid();
    let scale = tiny_scale();
    let off = run_grid(&spec, &scale, &SweepConfig::serial()).expect("cache-off run");

    // The last cell of the grid is the last reader of its system's
    // warm state (and of the shared stage-1 image): fail it once after
    // it ran, so its retry finds both dropped.
    let cells = spec.cells();
    let last = cells.last().unwrap().id();
    let cfg = SweepConfig::serial().with_warm_cache();
    let failed_once = AtomicBool::new(false);
    let outcomes = run_cells(&spec.name, &cells, &cfg, |cell| {
        let payload = run_cell_cached(cell, &scale, cfg.warm_cache());
        if cell.id() == last && !failed_once.swap(true, Ordering::SeqCst) {
            panic!("injected failure after the cell ran");
        }
        payload
    })
    .expect("cache-on run");
    assert_eq!(outcomes.last().unwrap().attempts, 2);
    let on = SweepOutcome {
        sweep: spec.name.clone(),
        outcomes,
    };
    assert_eq!(off.aggregate_json(), on.aggregate_json());

    let cache = cfg.warm_cache().unwrap();
    assert_eq!(cache.stats().misses, 3, "the retry rebuilds the warm state");
    assert_eq!(cache.stage_stats().stage1_builds, 2, "and its first stage");
    assert_eq!(cache.images_held(), 0);
}

#[test]
fn a_bare_cache_outside_a_round_captures_every_key() {
    let preset = ida_workloads::suite::paper_workload("proj_3").unwrap();
    let scale = tiny_scale();
    let cache = WarmCache::new(None);
    for system in [
        SystemUnderTest::Baseline,
        SystemUnderTest::Ida { error_rate: 0.2 },
    ] {
        let cfg = system_config(
            system,
            scale.geometry,
            ida_flash::timing::FlashTiming::paper_tlc(),
            ida_ssd::retry::RetryConfig::disabled(),
        );
        warmed_simulator_cached(&preset, cfg, &scale, Some(&cache));
    }
    let stage = cache.stage_stats();
    assert_eq!((stage.stage1_builds, stage.stage1_forks), (1, 1));
    assert_eq!(stage.captured, 3, "both warm states and their first stage");
    assert_eq!(stage.dropped, 0);
    assert_eq!(cache.images_held(), 3);
}
