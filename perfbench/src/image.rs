//! `underlay-image`: the Table-4 image transfer at amplitudes 800/600/400
//! with the paper's 1500-byte GMSK packets — the per-sample
//! dsp/channel/math-rng chain, with no energy and no stbc grid.

use crate::report::{median, Metrics, Tally};
use crate::trace::Tracer;
use crate::Workload;
use comimo_dsp::frame::FrameCodec;
use comimo_dsp::gmsk::GmskModem;
use comimo_math::rng::{complex_gaussian, derive};
use comimo_testbed::experiments::underlay_image::{run, UnderlayImageConfig};
use comimo_testbed::image::{TestImage, PACKET_BYTES};
use rand::RngCore;
use std::hint::black_box;

const AMPLITUDES: [u32; 3] = [800, 600, 400];
/// Packets per amplitude per operation.
const OP_PACKETS: usize = 8;
/// Packets per single-amplitude probe.
const PROBE_PACKETS: usize = 4;

struct Image {
    seed: u64,
    cfg: UnderlayImageConfig,
    /// Failed packets per amplitude: `(cooperative, solo, sent)`.
    failures: [(u64, u64, u64); 3],
    image: TestImage,
    modem: GmskModem,
    codec: FrameCodec,
}

pub fn setup(seed: u64, _pool: usize) -> Box<dyn Workload> {
    let cfg = UnderlayImageConfig {
        n_packets: OP_PACKETS,
        ..UnderlayImageConfig::paper()
    };
    // declared warm-up: one packet per amplitude through the whole chain
    black_box(run(
        &UnderlayImageConfig {
            n_packets: 1,
            ..cfg
        },
        &AMPLITUDES,
        derive(seed, u64::MAX).next_u64(),
    ));
    Box::new(Image {
        seed,
        cfg,
        failures: [(0, 0, 0); 3],
        image: TestImage::standard(),
        modem: GmskModem::gnuradio_default(),
        codec: FrameCodec::new(),
    })
}

impl Image {
    fn op_seed(&self, k: u64) -> u64 {
        derive(self.seed, k).next_u64()
    }
}

impl Workload for Image {
    fn op(&mut self, k: u64, tr: &Tracer, tally: &mut Tally) -> f64 {
        let seed = self.op_seed(k);
        let res = tr.span("testbed.underlay_image", k, || {
            run(&self.cfg, &AMPLITUDES, seed)
        });
        let n = self.cfg.n_packets as u64;
        for (acc, row) in self.failures.iter_mut().zip(&res.rows) {
            // PERs are failure counts over n; recover the counts exactly
            acc.0 += (row.per_coop * n as f64).round() as u64;
            acc.1 += (row.per_solo * n as f64).round() as u64;
            acc.2 += n;
        }
        tally.attempted += n * AMPLITUDES.len() as u64;
        (n * AMPLITUDES.len() as u64) as f64
    }

    fn verify(&mut self, tally: &mut Tally) {
        for (amp, (coop, solo, sent)) in AMPLITUDES.iter().zip(self.failures) {
            println!("underlay-image: amplitude {amp}: {coop} cooperative and {solo} solo packet errors of {sent}");
            tally.check(if coop <= solo {
                Ok(())
            } else {
                Err(format!(
                    "amplitude {amp}: cooperative PER {coop}/{sent} above solo {solo}/{sent}"
                ))
            });
        }
    }

    fn layers(&mut self, tr: &Tracer, tally: &mut Tally, m: &mut Metrics) {
        let mut rng = derive(self.seed, 0x4453_5030); // "DSP0"
        for p in 0..9u64 {
            let start = (p as usize * PACKET_BYTES) % self.image.pixels.len();
            let payload = &self.image.pixels[start..start + PACKET_BYTES];
            let bits = tr.span("dsp.frame_codec", p, || {
                let bits = self.codec.encode(payload);
                let back = self.codec.decode(&bits);
                (bits, back)
            });
            let samples = tr.span("dsp.gmsk_mod", p, || self.modem.modulate(&bits.0));
            let noise = tr.span("math.complex_gaussian", p, || {
                samples
                    .iter()
                    .map(|_| complex_gaussian(&mut rng, 1e-3))
                    .collect::<Vec<_>>()
            });
            let rx: Vec<_> = samples.iter().zip(&noise).map(|(&s, &w)| s + w).collect();
            let decided = tr.span("dsp.gmsk_demod", p, || {
                self.modem.demodulate(&rx, bits.0.len())
            });
            let ok = bits.1.as_ref().is_some_and(|f| f.payload == payload)
                && self
                    .codec
                    .decode(&decided)
                    .is_some_and(|f| f.payload == payload);
            tally.check(if ok {
                Ok(())
            } else {
                Err(format!(
                    "packet {p}: frame did not survive a 30 dB GMSK round trip"
                ))
            });
        }
        let us = |name: &str| median(&tr.durations_ns(name)) / 1e3;
        m.put("dsp.frame_codec_us", us("dsp.frame_codec"), "us");
        m.put("dsp.gmsk_mod_us", us("dsp.gmsk_mod"), "us");
        m.put("dsp.gmsk_demod_us", us("dsp.gmsk_demod"), "us");
        let per_packet_samples = self
            .modem
            .samples_for_bits(self.codec.encoded_bits(PACKET_BYTES));
        m.put(
            "math.complex_gaussian_ns",
            median(&tr.durations_ns("math.complex_gaussian")) / per_packet_samples as f64,
            "ns",
        );

        let cfg = UnderlayImageConfig {
            n_packets: PROBE_PACKETS,
            ..self.cfg
        };
        for (amp, span, metric) in [
            (800, "testbed.packets.a800", "testbed.packet_ms.a800"),
            (600, "testbed.packets.a600", "testbed.packet_ms.a600"),
            (400, "testbed.packets.a400", "testbed.packet_ms.a400"),
        ] {
            for rep in 0..3 {
                let seed = self.op_seed(u64::MAX - rep);
                tr.span(span, rep, || black_box(run(&cfg, &[amp], seed)));
            }
            m.put(
                metric,
                median(&tr.durations_ns(span)) / 1e6 / PROBE_PACKETS as f64,
                "ms",
            );
        }
    }

    fn counts(&mut self) -> Vec<(String, u64)> {
        let res = run(&self.cfg, &AMPLITUDES, self.op_seed(0));
        let n = self.cfg.n_packets as f64;
        res.rows
            .iter()
            .flat_map(|r| {
                [
                    (
                        format!("testbed.coop_errors.a{}", r.amplitude),
                        (r.per_coop * n).round() as u64,
                    ),
                    (
                        format!("testbed.solo_errors.a{}", r.amplitude),
                        (r.per_solo * n).round() as u64,
                    ),
                ]
            })
            .collect()
    }
}
