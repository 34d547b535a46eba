//! The benchmark's workloads: which grid cells a round runs, the seeded
//! workload presets they replay, and the untraced cell closure.
//!
//! The closure makes the calls `ida_bench::sweep::run_cell_cached` makes
//! for the fig8, faults and lifetime grids, with one difference: the
//! workload preset comes from the benchmark's seed instead of the
//! built-in table. At the default seed the presets are the built-in ones,
//! so the payloads must equal `run_cell`'s byte for byte.

use ida_bench::runner::{
    run_config_faulted_cached, system_config, warm_cache_key, ExperimentScale, ReplayMode,
};
use ida_bench::soak::{run_soak_cached, soak_metrics_json, SOAK_EPOCHS, SOAK_SPARES_PER_PLANE};
use ida_bench::sweep::{
    builtin_grid, metrics_json, parse_system, warm_seed_for, FAULT_SPARES_PER_PLANE,
};
use ida_faults::FaultConfig;
use ida_flash::timing::FlashTiming;
use ida_ssd::retry::RetryConfig;
use ida_ssd::SsdConfig;
use ida_sweep::{derive_stream_seed, Cell, SweepSpec, WarmCache};
use ida_workloads::suite::{paper_workloads, WorkloadPreset};
use std::collections::BTreeMap;

/// The seed that leaves every preset and the grid's base seed untouched.
pub const DEFAULT_SEED: u64 = 0;

/// Host requests in each cell's measured trace (smoke geometry).
pub const REQUESTS: usize = 3_000;

/// One benchmark workload: a built-in grid restricted to some paper
/// workloads, run on a fixed number of pool workers.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Benchmark workload name.
    pub name: &'static str,
    /// The built-in grid whose cells it runs.
    pub grid: &'static str,
    /// The paper workloads (trace presets) the grid is restricted to.
    pub presets: &'static [&'static str],
    /// Pool workers.
    pub jobs: usize,
}

/// Every benchmark workload; see `README.md` for why each exists.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fig8_unique",
        grid: "fig8",
        presets: &["proj_3", "hm_1", "proj_4", "proj_1"],
        jobs: 1,
    },
    Workload {
        name: "faults_forked",
        grid: "faults",
        presets: &[
            "proj_1", "proj_2", "proj_3", "proj_4", "hm_1", "src1_0", "src1_1", "src2_0", "stg_1",
            "usr_1", "usr_2",
        ],
        jobs: 2,
    },
    Workload {
        name: "lifetime_soak",
        grid: "lifetime",
        presets: &["proj_3", "hm_1", "proj_4"],
        jobs: 1,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Everything one round of a workload needs: the cells, the seeded
/// presets they replay and the experiment scale.
pub struct Round {
    /// The grid name, which tags the sweep.
    pub sweep: String,
    /// The cells, in grid order.
    pub cells: Vec<Cell>,
    /// Seeded presets by workload name.
    pub presets: BTreeMap<String, WorkloadPreset>,
    /// Geometry and trace length of every cell.
    pub scale: ExperimentScale,
}

/// Mix `seed` into a base value; the default seed leaves it unchanged.
fn perturb(base: u64, seed: u64, salt: &str) -> u64 {
    if seed == DEFAULT_SEED {
        base
    } else {
        base ^ derive_stream_seed(seed, salt)
    }
}

impl Round {
    /// Set up a round of `w` at `seed`: the grid's cells restricted to
    /// `w.presets`, with the seed mixed into every preset's generator
    /// seed and into the grid's base seed.
    pub fn new(w: &Workload, seed: u64) -> Round {
        let grid = builtin_grid(w.grid).expect("workload names a built-in grid");
        let spec = SweepSpec {
            workloads: w.presets.iter().map(|p| p.to_string()).collect(),
            base_seed: perturb(grid.base_seed, seed, "base"),
            ..grid
        };
        let presets = paper_workloads()
            .into_iter()
            .filter(|p| w.presets.contains(&p.spec.name.as_str()))
            .map(|mut p| {
                p.spec.seed = perturb(p.spec.seed, seed, &p.spec.name);
                (p.spec.name.clone(), p)
            })
            .collect::<BTreeMap<_, _>>();
        assert_eq!(
            presets.len(),
            w.presets.len(),
            "every preset is a paper workload"
        );
        Round {
            sweep: spec.name.clone(),
            cells: spec.cells(),
            presets,
            scale: ExperimentScale::smoke().with_requests(REQUESTS),
        }
    }

    /// The preset a cell replays.
    pub fn preset(&self, cell: &Cell) -> &WorkloadPreset {
        &self.presets[&cell.workload]
    }

    /// A fig8/faults cell's device configuration and armed fault plan,
    /// built as `run_cell_cached` builds them.
    pub fn replay_config(&self, cell: &Cell) -> (SsdConfig, Option<FaultConfig>) {
        let system = parse_system(&cell.system).unwrap_or_else(|e| panic!("{e}"));
        let faults = cell.param("faults").map(|level| {
            FaultConfig::preset(level, derive_stream_seed(cell.stream_seed, "faults"))
                .unwrap_or_else(|| panic!("unknown fault level {level:?}"))
        });
        let mut cfg = system_config(
            system,
            self.scale.geometry,
            FlashTiming::paper_tlc(),
            RetryConfig::disabled(),
        );
        cfg.ftl.seed = warm_seed_for(cell);
        if faults.is_some() {
            cfg.ftl.spare_blocks_per_plane = FAULT_SPARES_PER_PLANE;
        }
        (cfg, faults)
    }

    /// A lifetime cell's device configuration, built as `run_soak_cached`
    /// builds it.
    pub fn soak_config(&self, cell: &Cell) -> SsdConfig {
        let system = parse_system(&cell.system).unwrap_or_else(|e| panic!("{e}"));
        let mut cfg = system_config(
            system,
            self.scale.geometry,
            FlashTiming::paper_tlc(),
            RetryConfig::disabled(),
        );
        cfg.ftl.seed = warm_seed_for(cell);
        cfg.ftl.spare_blocks_per_plane = SOAK_SPARES_PER_PLANE;
        cfg
    }

    /// The warm-cache key a cell's warm-up is stored under.
    pub fn warm_key(&self, cell: &Cell) -> u64 {
        let cfg = match cell.param("aging") {
            Some(_) => self.soak_config(cell),
            None => self.replay_config(cell).0,
        };
        warm_cache_key(&cell.workload, &cfg, &self.scale)
    }

    /// Warm keys that exactly one cell of the round reads: their image is
    /// captured and never forked.
    pub fn captures_unread(&self) -> usize {
        let mut per_key = BTreeMap::<u64, usize>::new();
        for cell in &self.cells {
            *per_key.entry(self.warm_key(cell)).or_default() += 1;
        }
        per_key.values().filter(|&&n| n == 1).count()
    }

    /// Run one cell untraced: the program's own cell path.
    pub fn run_cell(&self, cell: &Cell, warm: Option<&WarmCache>) -> String {
        let preset = self.preset(cell);
        if let Some(level) = cell.param("aging") {
            let system = parse_system(&cell.system).unwrap_or_else(|e| panic!("{e}"));
            let run = run_soak_cached(
                preset,
                system,
                level,
                SOAK_EPOCHS,
                cell.stream_seed,
                warm_seed_for(cell),
                &self.scale,
                warm,
            );
            return soak_metrics_json(&run);
        }
        let (cfg, faults) = self.replay_config(cell);
        let report =
            run_config_faulted_cached(preset, cfg, &self.scale, ReplayMode::OpenLoop, faults, warm);
        metrics_json(&report)
    }
}
