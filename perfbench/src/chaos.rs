//! `chaos-explore`: batches of pool-width explorer runs at the paper
//! bounds, λ ∈ [0.5, 4], shrinking on — the full stack (energy → core
//! ladders → faults → sensing → campaign → chaos invariants).
//!
//! In the end-to-end run an operation is one `comimo_chaos::explore` call.
//! In the traced run (both halves) it replays the same runs through
//! `run_params` → `build_schedule` → `ChaosWorld::new` → `ChaosWorld::run`,
//! whose check and fault totals must equal the explorer's for the same runs.

use crate::report::{median, Metrics, Tally};
use crate::trace::Tracer;
use crate::Workload;
use comimo_channel::pathloss::SquareLawLongHaul;
use comimo_chaos::{
    explore, run_params, ChaosConfig, ChaosWorld, ExploreConfig, InvariantRegistry,
};
use comimo_core::overlay::{Overlay, OverlayConfig};
use comimo_core::underlay::{Underlay, UnderlayConfig};
use comimo_energy::{EbarSolver, EnergyModel};
use comimo_faults::{build_schedule, FaultConfig, ReporterState};
use comimo_math::rng::derive;
use comimo_sensing::{run_round, SensingRound};
use rand::Rng;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Runs whose inputs set-up generates; `verify` derives any later run's.
const INPUT_RUNS: u64 = 64;
/// The count metrics and the self-test cover the first this many runs.
const COUNT_RUNS: u64 = 2;
/// The chaos world's sensing operating point (primary SNR, linear, and
/// report long-haul SNR in dB).
const SENSE_SNR_LIN: f64 = 100.0;
const REPORT_SNR_DB: f64 = 25.0;

/// One replayed run's counts.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Replay {
    checks: u64,
    faults: u64,
    violations: usize,
}

struct Chaos {
    cfg: ExploreConfig,
    pool: u64,
    /// Per run: the schedule length its derived inputs give.
    schedule_lens: Vec<u64>,
    /// Faults the explorer injected per batch start: `(runs, faults)`.
    explored: BTreeMap<u64, (u64, u64)>,
    replayed: BTreeMap<u64, Replay>,
    /// Operations replay call by call instead of calling `explore`.
    replay_ops: bool,
}

pub fn setup(seed: u64, pool: usize) -> Box<dyn Workload> {
    let cfg = ExploreConfig::new(seed);
    // the inputs: every run's (seed, λ) and the fault schedule it yields
    let schedule_lens = (0..INPUT_RUNS).map(|run| schedule_len(&cfg, run)).collect();
    Box::new(Chaos {
        cfg,
        pool: pool as u64,
        schedule_lens,
        explored: BTreeMap::new(),
        replayed: BTreeMap::new(),
        replay_ops: false,
    })
}

/// The length of the fault schedule run `run`'s derived inputs give.
fn schedule_len(cfg: &ExploreConfig, run: u64) -> u64 {
    let (run_seed, lambda) = run_params(cfg.seed, run, cfg.lambda_min, cfg.lambda_max);
    let wcfg = world_cfg(cfg, run_seed);
    let faults = FaultConfig::nominal(cfg.horizon_s).scaled(lambda);
    build_schedule(&faults, &wcfg.topology(), run_seed).len() as u64
}

fn world_cfg(cfg: &ExploreConfig, run_seed: u64) -> ChaosConfig {
    ChaosConfig {
        mt: cfg.mt,
        ..ChaosConfig::paper(run_seed, cfg.horizon_s)
    }
}

impl Chaos {
    /// One run, call by call, as the explorer makes it.
    fn replay(&self, run: u64, tr: &Tracer) -> Replay {
        let cfg = &self.cfg;
        tr.span("chaos.replay", run, || {
            let (run_seed, lambda) = tr.span("chaos.run_params", run, || {
                run_params(cfg.seed, run, cfg.lambda_min, cfg.lambda_max)
            });
            let wcfg = world_cfg(cfg, run_seed);
            let schedule = tr.span("faults.build_schedule", run, || {
                let faults = FaultConfig::nominal(cfg.horizon_s).scaled(lambda);
                build_schedule(&faults, &wcfg.topology(), run_seed)
            });
            let reg = InvariantRegistry::with_bounds(cfg.bounds);
            let world = tr.span("chaos.world_new", run, || ChaosWorld::new(&wcfg));
            let out = tr.span("chaos.world_run", run, || world.run(&schedule, &reg, true));
            Replay {
                checks: out.checks,
                faults: schedule.len() as u64,
                violations: out.violations.len(),
            }
        })
    }

    fn replay_batch(&self, start: u64, runs: u64, tr: &Tracer) -> Vec<(u64, Replay)> {
        let parent = tr.current();
        (start..start + runs)
            .collect::<Vec<u64>>()
            .into_par_iter()
            .map(|run| (run, tr.adopt(parent, || self.replay(run, tr))))
            .collect()
    }
}

impl Workload for Chaos {
    fn op(&mut self, k: u64, tr: &Tracer, tally: &mut Tally) -> f64 {
        let start = k * self.pool;
        if self.replay_ops {
            let done = tr.span("chaos.batch", k, || self.replay_batch(start, self.pool, tr));
            for (run, r) in done {
                tally.check(if r.violations == 0 {
                    Ok(())
                } else {
                    Err(format!(
                        "run {run}: {} invariant violations at the paper bounds",
                        r.violations
                    ))
                });
                self.replayed.insert(run, r);
            }
        } else {
            let report = explore(&ExploreConfig {
                runs: self.pool,
                start_run: start,
                ..self.cfg
            });
            for run in start..start + self.pool {
                let finding = report.findings.iter().find(|f| f.run == run);
                tally.check(match finding {
                    None => Ok(()),
                    Some(f) => Err(format!(
                        "run {run}: {} violated ({})",
                        f.invariant, f.detail
                    )),
                });
            }
            self.explored
                .insert(start, (report.runs, report.total_faults));
        }
        self.pool as f64
    }

    fn verify(&mut self, tally: &mut Tally) {
        // the explorer must inject exactly the faults its inputs hold
        for (&start, &(runs, faults)) in &self.explored {
            let want: u64 = (start..start + runs)
                .map(|run| match self.schedule_lens.get(run as usize) {
                    Some(&len) => len,
                    None => schedule_len(&self.cfg, run),
                })
                .sum();
            tally.check(if faults == want {
                Ok(())
            } else {
                Err(format!(
                    "runs {start}..{}: explorer injected {faults} faults, inputs hold {want}",
                    start + runs
                ))
            });
        }
    }

    fn call_by_call(&mut self) {
        self.replay_ops = true;
    }

    fn layers(&mut self, tr: &Tracer, tally: &mut Tally, m: &mut Metrics) {
        let ms = |name: &str| median(&tr.durations_ns(name)) / 1e6;
        m.put("faults.schedule_ms", ms("faults.build_schedule"), "ms");
        m.put("chaos.world_new_ms", ms("chaos.world_new"), "ms");
        m.put("chaos.world_run_ms", ms("chaos.world_run"), "ms");
        let first: Vec<Replay> = (0..COUNT_RUNS)
            .map(|r| match self.replayed.get(&r) {
                Some(x) => *x,
                None => self.replay(r, &Tracer::new(false)),
            })
            .collect();
        // the replay must reproduce the explorer's totals for the same runs
        let report = explore(&ExploreConfig {
            runs: COUNT_RUNS,
            ..self.cfg
        });
        let (c, f) = first
            .iter()
            .fold((0, 0), |(c, f), r| (c + r.checks, f + r.faults));
        tally.check(if (c, f) == (report.total_checks, report.total_faults) {
            Ok(())
        } else {
            Err(format!(
                "runs 0..{COUNT_RUNS}: replay checks/faults {c}/{f}, explorer {}/{}",
                report.total_checks, report.total_faults
            ))
        });
        let n = COUNT_RUNS as f64;
        m.put(
            "faults.events_per_run",
            first.iter().map(|r| r.faults).sum::<u64>() as f64 / n,
            "count",
        );
        m.put(
            "chaos.checks_per_run",
            first.iter().map(|r| r.checks).sum::<u64>() as f64 / n,
            "count",
        );
        let violations: usize = self.replayed.values().map(|r| r.violations).sum();
        m.put("chaos.violations", violations as f64, "count");

        let mut rng = derive(self.cfg.seed, 0x4542_4152); // "EBAR"
        ebar_cells(&mut rng, tr, tally);
        m.put("energy.ebar_solve_ms", ms("energy.ebar_solve"), "ms");

        // the run config's degradation ladders, on a cold and a warm model
        let wcfg = world_cfg(&self.cfg, self.cfg.seed);
        let mut model = EnergyModel::paper();
        for rep in 0..2 {
            model = tr.span("core.ladder_cold", rep, || {
                let model = EnergyModel::paper();
                black_box(ladders(&model, &wcfg));
                model
            });
        }
        for rep in 0..5 {
            tr.span("core.ladder_warm", rep, || {
                black_box(ladders(&model, &wcfg))
            });
        }
        m.put("core.ladder_cold_ms", ms("core.ladder_cold"), "ms");
        m.put("core.ladder_warm_ms", ms("core.ladder_warm"), "ms");

        // one sensing round per slot of the run's horizon
        let round = SensingRound::paper_noisy(SENSE_SNR_LIN, REPORT_SNR_DB);
        let states = vec![ReporterState::Healthy; wcfg.topology().n_nodes];
        for slot in 0..wcfg.n_slots() as u64 {
            let busy = rng.gen::<f64>() < 0.3;
            let out = tr.span("sensing.round", slot, || {
                run_round(&round, busy, &states, busy, self.cfg.seed, slot)
            });
            tally.check(
                out.map(|_| ())
                    .map_err(|e| format!("sensing round {slot}: {e}")),
            );
        }
        m.put(
            "sensing.round_us",
            median(&tr.durations_ns("sensing.round")) / 1e3,
            "us",
        );
    }

    fn counts(&mut self) -> Vec<(String, u64)> {
        let off = Tracer::new(false);
        let mut out = Vec::new();
        for run in 0..COUNT_RUNS {
            let r = self.replay(run, &off);
            out.push((format!("faults.events.run{run}"), r.faults));
            out.push((format!("chaos.checks.run{run}"), r.checks));
        }
        let report = explore(&ExploreConfig {
            runs: COUNT_RUNS,
            ..self.cfg
        });
        out.push(("explore.total_checks".into(), report.total_checks));
        out.push(("explore.total_faults".into(), report.total_faults));
        out
    }
}

/// The paper's degradation ladders for `wcfg`: overlay per dead-relay
/// count, underlay per alive-transmitter count.
fn ladders(model: &EnergyModel, wcfg: &ChaosConfig) -> usize {
    let ov = Overlay::new(
        model,
        OverlayConfig::paper(wcfg.m_overlay, wcfg.bandwidth_hz),
    );
    let un = Underlay::new(
        model,
        UnderlayConfig::paper(wcfg.mt.min(4), wcfg.mr, wcfg.bandwidth_hz),
    );
    let pl = SquareLawLongHaul::paper_defaults();
    let ov_rungs = (0..=wcfg.m_overlay)
        .filter_map(|k| ov.degrade(wcfg.d1_m, k))
        .count();
    let un_rungs = (0..=wcfg.mt)
        .filter_map(|alive| un.degrade(wcfg.d_long_m, &pl, wcfg.pu_distance_m, alive))
        .count();
    ov_rungs + un_rungs
}

/// One cold `ē_b` solve per `mt × mr ≤ 4 × 4` cell, at a target BER and
/// constellation drawn from the paper's ranges; each solve is checked
/// against the forward map.
fn ebar_cells(rng: &mut impl Rng, tr: &Tracer, tally: &mut Tally) {
    let solver = EbarSolver::paper();
    let targets = [5e-3, 1e-3, 5e-4];
    for mt in 1..=4 {
        for mr in 1..=4 {
            let p = targets[rng.gen_range(0..targets.len())];
            let b = rng.gen_range(1..=16u32);
            let cell = (mt * 4 + mr) as u64;
            let ebar = tr.span("energy.ebar_solve", cell, || solver.solve(p, b, mt, mr));
            let back = solver.forward(ebar, b, mt, mr);
            tally.check(if ((back - p) / p).abs() < 1e-6 {
                Ok(())
            } else {
                Err(format!(
                    "ebar({p}, {b}, {mt}x{mr}) = {ebar} maps back to BER {back}"
                ))
            });
        }
    }
}
