//! `ber-grid`: the common-random-number BER grid engine over
//! b ∈ {1,2,4,6,8} × seven symbol SNRs, on Alamouti 2×3 and H3 3×3 — the
//! math/stbc kernel and the vendored rayon pool, with no energy, core or
//! net code (the control workload for those layers).

use crate::report::{median, Metrics, Tally};
use crate::trace::Tracer;
use crate::Workload;
use comimo_math::batch::complex_gaussian_fill;
use comimo_math::rng::derive;
use comimo_math::simd::Dispatch;
use comimo_stbc::grid::{simulate_ber_grid, simulate_ber_grid_par, GridPoint, GridWorkspace};
use comimo_stbc::sim::BerResult;
use comimo_stbc::{Ostbc, StbcKind};
use rand::RngCore;
use std::hint::black_box;

const CONSTELLATIONS: [u32; 5] = [1, 2, 4, 6, 8];
/// The bergrid artifact's symbol-SNR axis (dB, `Es/N0`).
const SNRS_DB: [f64; 7] = [0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0];
/// The Figure-7 cooperative hops as orthogonal designs.
const CODES: [(StbcKind, usize); 2] = [(StbcKind::Alamouti, 3), (StbcKind::H3, 3)];
/// Monte-Carlo blocks per grid per operation (sixteen 1024-block shards).
const OP_BLOCKS: usize = 16_384;
/// Blocks per dispatch-tier probe (one thread, one stream).
const TIER_BLOCKS: usize = 8192;
/// Stream label of the set-up warm-up chunk.
const WARM_LABEL: u64 = 0x5741_524d; // "WARM"

struct Grid {
    seed: u64,
    pool: usize,
    codes: Vec<(Ostbc, usize)>,
    points: Vec<GridPoint>,
    /// One serial workspace per code, built at set-up.
    workspaces: Vec<GridWorkspace>,
    /// `(op, its stream seed, counts per code)` of the first and latest op.
    kept: Vec<(u64, u64, Vec<Vec<BerResult>>)>,
}

pub fn setup(seed: u64, pool: usize) -> Box<dyn Workload> {
    let points: Vec<GridPoint> = CONSTELLATIONS
        .iter()
        .flat_map(|&b| {
            SNRS_DB.iter().map(move |&snr| GridPoint {
                bits_per_symbol: b,
                es: 1.0,
                n0: 10f64.powf(-snr / 10.0),
            })
        })
        .collect();
    let codes: Vec<(Ostbc, usize)> = CODES.iter().map(|&(k, mr)| (Ostbc::new(k), mr)).collect();
    let mut workspaces: Vec<GridWorkspace> = codes
        .iter()
        .map(|(code, mr)| GridWorkspace::new(code, &points, *mr))
        .collect();
    // declared warm-up: one shard-sized chunk through each workspace
    let mut warm = vec![BerResult { bits: 0, errors: 0 }; points.len()];
    for ws in &mut workspaces {
        ws.simulate_into(&mut derive(seed, WARM_LABEL), 1024, &mut warm);
    }
    Box::new(Grid {
        seed,
        pool,
        codes,
        points,
        workspaces,
        kept: Vec::new(),
    })
}

impl Grid {
    fn op_seed(&self, k: u64) -> u64 {
        derive(self.seed, k).next_u64()
    }

    fn point_blocks(&self, blocks: usize) -> f64 {
        (blocks * self.points.len() * self.codes.len()) as f64
    }

    /// BER must not rise with SNR along any constellation's curve.
    fn check_monotone(&self, k: u64, counts: &[Vec<BerResult>], tally: &mut Tally) {
        for (c, res) in counts.iter().enumerate() {
            for (bi, curve) in res.chunks(SNRS_DB.len()).enumerate() {
                let ber: Vec<f64> = curve
                    .iter()
                    .map(|r| r.errors as f64 / r.bits as f64)
                    .collect();
                tally.check(if ber.windows(2).all(|w| w[1] <= w[0]) {
                    Ok(())
                } else {
                    Err(format!(
                        "op {k}: code {c} b={} BER rises with SNR: {ber:?}",
                        CONSTELLATIONS[bi]
                    ))
                });
            }
        }
    }
}

impl Workload for Grid {
    fn op(&mut self, k: u64, tr: &Tracer, tally: &mut Tally) -> f64 {
        let seed = self.op_seed(k);
        let counts: Vec<Vec<BerResult>> = self
            .codes
            .iter()
            .map(|(code, mr)| {
                tr.span("stbc.grid_par", k, || {
                    simulate_ber_grid_par(seed, code, &self.points, *mr, OP_BLOCKS)
                })
            })
            .collect();
        self.check_monotone(k, &counts, tally);
        if self.kept.len() == 2 {
            self.kept.pop();
        }
        self.kept.push((k, seed, counts));
        self.point_blocks(OP_BLOCKS)
    }

    fn verify(&mut self, tally: &mut Tally) {
        // the parallel engine must match the serial reference exactly
        for (k, seed, counts) in &self.kept {
            for ((code, mr), par) in self.codes.iter().zip(counts) {
                let serial = simulate_ber_grid(*seed, code, &self.points, *mr, OP_BLOCKS);
                tally.check(if &serial == par {
                    Ok(())
                } else {
                    Err(format!("op {k}: serial and parallel grid counts differ"))
                });
            }
        }
    }

    fn layers(&mut self, tr: &Tracer, tally: &mut Tally, m: &mut Metrics) {
        for rep in 0..5 {
            for (code, mr) in &self.codes {
                tr.span("stbc.grid_setup", rep, || {
                    black_box(GridWorkspace::new(code, &self.points, *mr))
                });
            }
        }
        m.put(
            "stbc.grid_setup_ms",
            median(&tr.durations_ns("stbc.grid_setup")) / 1e6,
            "ms",
        );

        let seed = self.op_seed(0);
        for (code, mr) in &self.codes {
            tr.span("stbc.grid_serial", 0, || {
                black_box(simulate_ber_grid(seed, code, &self.points, *mr, OP_BLOCKS))
            });
        }
        let rate = |name: &str, blocks: usize| {
            let d = tr.durations_ns(name);
            // each span covers one code's grid
            (blocks * self.points.len() * d.len()) as f64 / (d.iter().sum::<f64>() / 1e9)
        };
        let serial = rate("stbc.grid_serial", OP_BLOCKS);
        let par = rate("stbc.grid_par", OP_BLOCKS);
        m.put("stbc.grid_serial_blocks_per_s", serial, "1/s");
        m.put("stbc.grid_par_blocks_per_s", par, "1/s");
        m.put(
            "stbc.par_efficiency",
            par / (serial * self.pool as f64),
            "ratio",
        );

        // every dispatch tier the CPU runs, one thread, one stream
        let mut tier_counts: Vec<(&str, Vec<BerResult>)> = Vec::new();
        for (tier, span, metric) in tiers() {
            if !tier.supported() {
                println!(
                    "ber-grid: {metric} absent: this CPU cannot run the {} tier",
                    tier.name()
                );
                continue;
            }
            let mut all = Vec::new();
            for (code, mr) in &self.codes {
                let mut ws = GridWorkspace::with_dispatch(code, &self.points, *mr, Some(tier));
                let mut out = vec![BerResult { bits: 0, errors: 0 }; self.points.len()];
                let mut rng = derive(seed, 0);
                tr.span(span, 0, || {
                    ws.simulate_into(&mut rng, TIER_BLOCKS, &mut out)
                });
                all.extend(out);
            }
            m.put(metric, rate(span, TIER_BLOCKS), "1/s");
            tier_counts.push((tier.name(), all));
        }
        for (name, counts) in &tier_counts[1..] {
            tally.check(if counts == &tier_counts[0].1 {
                Ok(())
            } else {
                Err(format!(
                    "tier {name} counts differ from tier {}",
                    tier_counts[0].0
                ))
            });
        }

        let (mut re, mut im) = (vec![0.0; 4096], vec![0.0; 4096]);
        let mut rng = derive(seed, 1);
        for rep in 0..9 {
            tr.span("math.complex_gaussian_fill", rep, || {
                for _ in 0..64 {
                    complex_gaussian_fill(&mut rng, 1.0, &mut re, &mut im);
                    black_box((&re, &im));
                }
            });
        }
        let per_sample = median(&tr.durations_ns("math.complex_gaussian_fill")) / (64.0 * 4096.0);
        m.put("math.complex_gaussian_fill_ns", per_sample, "ns");
    }

    fn counts(&mut self) -> Vec<(String, u64)> {
        let seed = self.op_seed(0);
        let mut out = Vec::new();
        for (c, (code, mr)) in self.codes.iter().enumerate() {
            for (i, r) in simulate_ber_grid_par(seed, code, &self.points, *mr, OP_BLOCKS)
                .iter()
                .enumerate()
            {
                out.push((format!("stbc.errors.code{c}.point{i}"), r.errors));
            }
        }
        // the set-up workspaces, driven directly
        for (c, ws) in self.workspaces.iter_mut().enumerate() {
            let mut res = vec![BerResult { bits: 0, errors: 0 }; self.points.len()];
            ws.simulate_into(&mut derive(seed, WARM_LABEL), TIER_BLOCKS, &mut res);
            out.push((
                format!("stbc.workspace_errors.code{c}"),
                res.iter().map(|r| r.errors).sum(),
            ));
        }
        out
    }
}

fn tiers() -> Vec<(Dispatch, &'static str, &'static str)> {
    let mut t = vec![
        (
            Dispatch::Scalar,
            "stbc.grid_tier.scalar",
            "stbc.grid_blocks_per_s.scalar",
        ),
        (
            Dispatch::Lanes,
            "stbc.grid_tier.lanes",
            "stbc.grid_blocks_per_s.lanes",
        ),
    ];
    #[cfg(target_arch = "x86_64")]
    t.push((
        Dispatch::Avx2,
        "stbc.grid_tier.avx2",
        "stbc.grid_blocks_per_s.avx2",
    ));
    t
}
