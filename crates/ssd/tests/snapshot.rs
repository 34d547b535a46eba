//! Differential snapshot invariant (ISSUE 9): a simulator restored from a
//! snapshot must continue *byte-for-bit* identically to the one that kept
//! running — same report JSON, same trace event stream — across randomized
//! configurations, fault plans (including power-loss crash points), aging
//! models and snapshot points (before and after arming).

use ida_faults::{AgingConfig, FaultConfig};
use ida_flash::geometry::Geometry;
use ida_ftl::config::FtlConfig;
use ida_obs::rng::Rng64;
use ida_obs::trace::{SinkHandle, TraceSink, VecSink};
use ida_ssd::config::SsdConfig;
use ida_ssd::request::{HostOp, HostOpKind};
use ida_ssd::sim::Simulator;
use std::cell::RefCell;
use std::rc::Rc;

/// A randomized tiny-geometry configuration.
fn random_cfg(rng: &mut Rng64) -> SsdConfig {
    let mut cfg = SsdConfig::tiny_test();
    cfg.ftl.geometry = Geometry::tiny().with_bits_per_cell(2 + rng.gen_below(2) as u32);
    cfg.ftl.refresh_mode = if rng.gen_bool(0.5) {
        ida_core::refresh::RefreshMode::Ida
    } else {
        ida_core::refresh::RefreshMode::Baseline
    };
    cfg.ftl.adjust_error_rate = rng.gen_range_f64(0.0, 0.4);
    cfg.ftl.seed = rng.next_u64();
    // Spares so injected retirements do not immediately degrade the device.
    cfg.ftl.spare_blocks_per_plane = rng.gen_below(3) as u32;
    if rng.gen_bool(0.3) {
        cfg.retry = ida_ssd::retry::RetryConfig::late_lifetime(0.2, rng.next_u64());
    }
    cfg
}

/// A sorted random host trace over the exported LPN space.
fn random_trace(rng: &mut Rng64, cfg: &FtlConfig, requests: usize, write_frac: f64) -> Vec<HostOp> {
    let exported = cfg.exported_pages();
    let mut at = 0;
    (0..requests)
        .map(|_| {
            at += rng.gen_range_u64(1_000, 400_000);
            let kind = if rng.gen_bool(write_frac) {
                HostOpKind::Write
            } else {
                HostOpKind::Read
            };
            let pages = 1 + rng.gen_below(3) as u32;
            let lpn = rng.gen_below(exported.saturating_sub(pages as u64).max(1));
            HostOp {
                at,
                kind,
                lpn,
                pages,
            }
        })
        .collect()
}

fn attach_vec_sink(sim: &mut Simulator) -> Rc<RefCell<VecSink>> {
    let sink = Rc::new(RefCell::new(VecSink::default()));
    let dynamic: Rc<RefCell<dyn TraceSink>> = sink.clone();
    sim.set_trace(SinkHandle::from_shared(dynamic));
    sink
}

fn trace_lines(sink: &Rc<RefCell<VecSink>>) -> Vec<String> {
    sink.borrow()
        .events
        .iter()
        .map(|e| e.to_json_line())
        .collect()
}

/// Warm a simulator the way the bench runner does: prefill, age, refresh.
fn warm(sim: &mut Simulator, rng: &mut Rng64) {
    let cfg = sim.config().ftl.clone();
    let exported = cfg.exported_pages();
    sim.prefill(0..exported / 2);
    let aging = random_trace(rng, &cfg, 300, 0.8);
    sim.age(&aging);
    let span = aging.last().map(|op| op.at).unwrap_or(1).max(1);
    sim.set_refresh_period(span * 4);
    sim.force_refresh_all(span / 2);
}

/// Continue both simulators identically past the snapshot point and demand
/// byte-equal reports and traces.
fn assert_identical_continuation(
    mut cold: Simulator,
    mut restored: Simulator,
    measured: Vec<HostOp>,
    spans: bool,
) {
    cold.set_spans(spans);
    restored.set_spans(spans);
    let cold_sink = attach_vec_sink(&mut cold);
    let restored_sink = attach_vec_sink(&mut restored);
    let cold_report = cold.run(measured.clone());
    let restored_report = restored.run(measured);
    assert_eq!(
        cold_report.to_json(),
        restored_report.to_json(),
        "restored run diverged from cold run (report)"
    );
    assert_eq!(
        trace_lines(&cold_sink),
        trace_lines(&restored_sink),
        "restored run diverged from cold run (trace)"
    );
    // And the post-run states are still interchangeable.
    assert_eq!(cold.snapshot(), restored.snapshot());
}

#[test]
fn restore_then_run_byte_equals_cold_run() {
    let mut rng = Rng64::seed_from_u64(0x5AAF_0001);
    for iter in 0..6 {
        let cfg = random_cfg(&mut rng);
        let mut cold = Simulator::new(cfg.clone());
        warm(&mut cold, &mut rng);

        let snap = cold.snapshot();
        let restored = Simulator::from_snapshot(&snap)
            .unwrap_or_else(|e| panic!("iteration {iter}: restore failed: {e}"));
        // Canonical form: re-encoding the restored state reproduces the
        // exact snapshot bytes.
        assert_eq!(restored.snapshot(), snap, "iteration {iter}: not canonical");

        let measured = random_trace(&mut rng, &cfg.ftl, 400, 0.5);
        assert_identical_continuation(cold, restored, measured, iter % 2 == 0);
    }
}

#[test]
fn restore_under_armed_faults_and_aging_is_identical() {
    let mut rng = Rng64::seed_from_u64(0x5AAF_0002);
    let levels = ["low", "mid", "high"];
    for (iter, level) in levels.iter().enumerate() {
        let cfg = random_cfg(&mut rng);
        let mut cold = Simulator::new(cfg.clone());
        warm(&mut cold, &mut rng);

        // Arm faults (the "high" level schedules power-loss crash points
        // mid-run) and aging *before* the snapshot: the injector's armed
        // RNG/counter state must survive the round-trip.
        let fault_seed = rng.next_u64();
        let aging_seed = rng.next_u64();
        cold.arm_faults(FaultConfig::preset(level, fault_seed).unwrap());
        cold.arm_aging(AgingConfig::preset(level, aging_seed).unwrap());

        let snap = cold.snapshot();
        let restored = Simulator::from_snapshot(&snap)
            .unwrap_or_else(|e| panic!("level {level}: restore failed: {e}"));
        assert_eq!(restored.snapshot(), snap, "level {level}: not canonical");

        let measured = random_trace(&mut rng, &cfg.ftl, 500, 0.5);
        assert_identical_continuation(cold, restored, measured, iter % 2 == 1);
    }
}

#[test]
fn snapshot_mid_crash_schedule_resumes_pending_losses() {
    // Snapshot *between* two power-loss events: the restored injector must
    // fire the remaining crash point at the same operation index.
    let mut rng = Rng64::seed_from_u64(0x5AAF_0003);
    let cfg = random_cfg(&mut rng);
    let mut cold = Simulator::new(cfg.clone());
    warm(&mut cold, &mut rng);

    let mut faults = FaultConfig::preset("mid", rng.next_u64()).unwrap();
    faults.power_loss_ops = vec![200, 900];
    cold.arm_faults(faults);
    // Drive past the first crash point only.
    let first = random_trace(&mut rng, &cfg.ftl, 150, 0.8);
    cold.run(first);

    let snap = cold.snapshot();
    let restored = Simulator::from_snapshot(&snap).expect("restore");
    assert_eq!(restored.snapshot(), snap);

    let measured = random_trace(&mut rng, &cfg.ftl, 600, 0.6);
    assert_identical_continuation(cold, restored, measured, true);
}

#[test]
fn corrupt_snapshots_are_rejected() {
    let mut rng = Rng64::seed_from_u64(0x5AAF_0004);
    let cfg = random_cfg(&mut rng);
    let mut sim = Simulator::new(cfg);
    warm(&mut sim, &mut rng);
    let snap = sim.snapshot();

    assert!(Simulator::from_snapshot(&snap[..snap.len() - 1]).is_err());
    let mut flipped = snap.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    assert!(Simulator::from_snapshot(&flipped).is_err());
    let mut nomagic = snap;
    nomagic[0] = b'Z';
    assert!(Simulator::from_snapshot(&nomagic).is_err());
}

/// The payload of a warm image is frozen: frame changes (version,
/// checksum) must not move a single payload byte, or spill files and
/// peers of the same version would disagree about what a key holds.
/// The pinned value is FNV-1a over the payload of a warmed hm_1 Baseline
/// simulator at the smoke scale with 800 requests, warmed under the seed
/// the sweep derives for that (workload, system) pair.
#[test]
fn warm_image_payload_is_byte_stable() {
    use ida_bench::runner::{system_config, warmed_simulator, WARM_SEED_BASE};
    use ida_bench::{ExperimentScale, SystemUnderTest};

    let preset = ida_workloads::suite::paper_workload("hm_1").expect("hm_1 preset");
    let scale = ExperimentScale::smoke().with_requests(800);
    let mut cfg = system_config(
        SystemUnderTest::Baseline,
        scale.geometry,
        ida_flash::timing::FlashTiming::paper_tlc(),
        ida_ssd::retry::RetryConfig::disabled(),
    );
    cfg.ftl.seed = ida_sweep::derive_stream_seed(WARM_SEED_BASE, "hm_1/Baseline/r0");
    let (sim, _) = warmed_simulator(&preset, cfg, &scale);
    let image = sim.snapshot();
    let (meta, payload) = ida_snap::frame::open(&image).expect("fresh image opens");
    assert_eq!(meta.version, ida_snap::frame::VERSION);
    assert_eq!(payload.len(), 9_952_716);
    assert_eq!(ida_snap::fnv1a(payload), 0xf488_dac5_f3ee_e580);
}

/// `retarget` accepts only the late-bound fields: any other change is
/// a typed error that leaves the simulator untouched.
#[test]
fn retarget_rejects_changes_outside_the_late_bound_fields() {
    use ida_ssd::RetargetError;
    let mut rng = Rng64::seed_from_u64(0x5AAF_0005);
    let cfg = SsdConfig::tiny_test();
    let mut sim = Simulator::new(cfg.clone());
    let exported = cfg.ftl.exported_pages();
    sim.prefill(0..exported / 2);
    sim.age(&random_trace(&mut rng, &cfg.ftl, 200, 0.8));
    let before = sim.snapshot();

    let mut geometry = cfg.clone();
    geometry.ftl.geometry = Geometry::tiny().with_bits_per_cell(2);
    let mut spares = cfg.clone();
    spares.ftl.spare_blocks_per_plane = 1;
    let mut aging = cfg.clone();
    aging.ftl.aging = AgingConfig::preset("mid", 3).unwrap();
    for (what, other) in [("geometry", geometry), ("spares", spares), ("aging", aging)] {
        assert_eq!(
            sim.retarget(&other),
            Err(RetargetError::ConfigMismatch),
            "{what} change accepted"
        );
        assert_eq!(sim.snapshot(), before, "{what}: refused retarget mutated");
    }

    // The late-bound fields themselves are accepted, and back again.
    let mut ida = cfg.clone();
    ida.ftl.refresh_mode = ida_core::refresh::RefreshMode::Ida;
    ida.ftl.adjust_error_rate = 0.3;
    ida.ftl.seed = 77;
    ida.timing = ida.timing.with_delta_tr_us(70);
    ida.retry = ida_ssd::retry::RetryConfig::late_lifetime(0.4, 9);
    assert_eq!(sim.retarget(&ida), Ok(()));
    assert_eq!(sim.config(), &ida);
    assert_eq!(sim.retarget(&cfg), Ok(()));
    assert_eq!(sim.snapshot(), before);
}

/// Once a refresh has drawn from the interference model, or a timed read
/// from the retry model, reseeding it would rewrite history: `retarget`
/// refuses.
#[test]
fn retarget_refuses_once_a_seeded_model_has_drawn() {
    use ida_ssd::RetargetError;
    let mut rng = Rng64::seed_from_u64(0x5AAF_0006);
    let mut cfg = SsdConfig::tiny_test();
    cfg.ftl.refresh_mode = ida_core::refresh::RefreshMode::Ida;
    cfg.ftl.adjust_error_rate = 0.5;
    let mut sim = Simulator::new(cfg.clone());
    warm(&mut sim, &mut rng);
    assert!(
        sim.ftl().stats().ida_conversions > 0,
        "the refresh must have converted (and drawn)"
    );
    let mut reseeded = sim.config().clone();
    reseeded.ftl.seed ^= 1;
    let before = sim.snapshot();
    assert_eq!(
        sim.retarget(&reseeded),
        Err(RetargetError::InterferenceDrawn)
    );
    assert_eq!(sim.snapshot(), before);

    // Likewise for the retry model once a timed read has drawn from it.
    let mut cfg = SsdConfig::tiny_test();
    cfg.retry = ida_ssd::retry::RetryConfig::late_lifetime(0.4, 5);
    let mut sim = Simulator::new(cfg.clone());
    sim.prefill(0..cfg.ftl.exported_pages());
    sim.run(random_trace(&mut rng, &cfg.ftl, 50, 0.0));
    let mut reseeded = cfg.clone();
    reseeded.retry.seed ^= 1;
    let before = sim.snapshot();
    assert_eq!(sim.retarget(&reseeded), Err(RetargetError::RetryDrawn));
    assert_eq!(sim.snapshot(), before);
}

/// The staged warm-up's soundness on `workload`: stage 1 (prefill +
/// aging) built under one fig8 system, fig9 ΔtR or fig11 retry phase and
/// retargeted to another is byte-identical to stage 1 built under the
/// target directly, and stage 2 plus the measured replay then report
/// what the unstaged warm-up reports. Configurations carry the seeds the
/// sweep derives per cell.
///
/// Every pair is covered through two hubs: each configuration's build is
/// retargeted to both and must match their direct builds byte for byte.
/// `retarget` rewrites only the late-bound fields, the planner and the
/// retry model, so A → B is A → hub → B, and matching at two hubs that
/// differ in system and ΔtR shows every build agrees outside those
/// fields.
fn assert_retarget_matches_direct_builds(workload: &str) {
    use ida_bench::runner::{to_host_ops, warm_stage1, warm_stage2, warmed_simulator};
    use ida_bench::sweep::{builtin_grid, metrics_json, replay_setup, stage1_id};
    use ida_bench::ExperimentScale;

    let scale = ExperimentScale::smoke().with_requests(300);
    let preset = ida_workloads::suite::paper_workload(workload).expect("preset");
    let cells: Vec<_> = ["fig8", "fig9", "fig11"]
        .into_iter()
        .flat_map(|grid| builtin_grid(grid).unwrap().cells())
        .filter(|c| c.workload == workload)
        .collect();
    assert_eq!(cells.len(), 24, "10 fig8 systems, 2 × 5 ΔtR, 2 × 2 phases");
    assert!(cells
        .windows(2)
        .all(|w| stage1_id(&w[0]) == stage1_id(&w[1])));
    let cfgs: Vec<SsdConfig> = cells.iter().map(|c| replay_setup(c, &scale).0).collect();
    let stage1 = |cfg: &SsdConfig| {
        let mut sim = Simulator::new(cfg.clone());
        warm_stage1(&mut sim, &preset);
        sim
    };
    // fig8's Baseline at the default ΔtR and fig9's IDA-E20 at 70 µs.
    let hub_at = [0, 19];
    let hubs = hub_at.map(|i| &cfgs[i]);
    assert_ne!(hubs[0].ftl.refresh_mode, hubs[1].ftl.refresh_mode);
    assert_ne!(hubs[0].timing, hubs[1].timing);
    let hub_images = hubs.map(|cfg| stage1(cfg).snapshot());
    for (i, cfg) in cfgs.iter().enumerate() {
        if hub_at.contains(&i) {
            continue;
        }
        let mut sim = stage1(cfg);
        for (hub, image) in hubs.iter().zip(&hub_images) {
            sim.retarget(hub).unwrap();
            assert!(
                sim.snapshot() == *image,
                "{workload}: stage 1 of {} retargeted to a hub differs from its direct build",
                cells[i].id()
            );
        }
    }
    // Stage 2 and replay on a fork of a hub retargeted to another
    // configuration (the other hub, and fig11's late-lifetime IDA-E20,
    // whose replay draws retries), against the unstaged warm-up.
    let late = cfgs.last().unwrap();
    assert!(late.retry.failure_prob > 0.0);
    for (from, to) in [(0, hubs[1]), (1, hubs[0]), (0, late)] {
        let (mut want, trace) = warmed_simulator(&preset, to.clone(), &scale);
        let mut got = Simulator::from_snapshot(&hub_images[from]).unwrap();
        got.retarget(to).unwrap();
        let got_trace = warm_stage2(&mut got, &preset, &scale);
        let reports: Vec<String> = [(&mut want, trace), (&mut got, got_trace)]
            .into_iter()
            .map(|(sim, trace)| {
                sim.set_spans(true);
                metrics_json(&sim.run(to_host_ops(&trace)))
            })
            .collect();
        assert_eq!(
            reports[0], reports[1],
            "{workload}: replay from hub {from} differs"
        );
    }
}

#[test]
fn retargeted_stage1_equals_a_direct_build_on_proj_3() {
    assert_retarget_matches_direct_builds("proj_3");
}

#[test]
fn retargeted_stage1_equals_a_direct_build_on_proj_1() {
    assert_retarget_matches_direct_builds("proj_1");
}
