//! `snapshot_codec`: the Fig. 15 path. Footprint-weighted activation
//! snapshots of each network go through the stream codec in both
//! directions and through the two cache-compression baselines.

use zcomp::experiments::fig15::{Fig15Result, Fig15Snapshot};
use zcomp_cachecomp::{limitcc_ratio, twotag_ratio};
use zcomp_dnn::models::ModelId;
use zcomp_dnn::sparsity::{generate_activations, SparsityModel};
use zcomp_isa::ccf::CompareCond;
use zcomp_isa::compress::{compress_f32, expand_f32_into};
use zcomp_isa::StreamRegion;

use crate::harness::{
    guarded, mix, paper_rel_err, Digest, Inject, Pass, Size, UnitTimer, Verification, Workload,
};
use crate::trace::{Tracer, CELL};

/// Training epoch whose sparsity profile the snapshots are drawn from
/// (as in Fig. 15).
const EPOCH: usize = 50;
/// Mean zero-run length of the generated activations (as in Fig. 15).
const MEAN_RUN: f64 = 6.0;
const GIB: f64 = (1u64 << 30) as f64;

/// The Fig. 15 snapshot path.
pub struct Codec {
    seed: u64,
    per_network: usize,
    elements: usize,
    inject: Inject,
}

/// One activation snapshot.
pub struct Snapshot {
    model: ModelId,
    layer: String,
    sparsity: f64,
    data: Vec<f32>,
}

/// Snapshots plus the reader's destination buffer, reused across cells.
pub struct Inputs {
    snapshots: Vec<Snapshot>,
    expanded: Vec<f32>,
}

impl Codec {
    /// The workload at `size`. The full size takes five snapshots per
    /// network of 1M elements (4 MiB) each.
    pub fn new(seed: u64, size: Size, inject: Inject) -> Codec {
        let (per_network, elements) = match size {
            Size::Full => (5, 1 << 20),
            Size::Tiny => (1, 16 << 10),
        };
        Codec {
            seed,
            per_network,
            elements,
            inject,
        }
    }
}

impl Workload for Codec {
    type Inputs = Inputs;

    fn name(&self) -> &'static str {
        "snapshot_codec"
    }

    fn size(&self) -> String {
        format!(
            "{} networks x {} snapshots = {} cells of {} f32 elements, CompareCond::Eqz, interleaved headers",
            ModelId::ALL.len(),
            self.per_network,
            ModelId::ALL.len() * self.per_network,
            self.elements
        )
    }

    /// Draws snapshots as Fig. 15 does: ReLU layers weighted by their
    /// output footprint, so most land in the large, less sparse early
    /// layers.
    fn setup(&self, tracer: &Tracer) -> Inputs {
        let model = SparsityModel::default();
        let mut pick_state = mix(self.seed, 0x0F15);
        let mut snapshots = Vec::new();
        for id in ModelId::ALL {
            let net = id.build(id.training_batch());
            let profile = model.profile(&net, EPOCH);
            let candidates: Vec<usize> = (0..net.layers.len())
                .filter(|&i| net.layers[i].has_relu())
                .collect();
            let weights: Vec<u64> = candidates
                .iter()
                .map(|&i| net.layers[i].output.bytes() as u64)
                .collect();
            let total: u64 = weights.iter().sum::<u64>().max(1);
            for k in 0..self.per_network {
                pick_state = mix(pick_state, k as u64);
                let mut pick = pick_state % total;
                let mut chosen = 0;
                for (ci, &w) in weights.iter().enumerate() {
                    if pick < w {
                        chosen = ci;
                        break;
                    }
                    pick -= w;
                }
                let idx = candidates[chosen];
                let sparsity = profile.per_layer[idx];
                let data = tracer.time("dnn.activation_gen", || {
                    generate_activations(
                        self.elements,
                        sparsity,
                        MEAN_RUN,
                        mix(pick_state, idx as u64),
                    )
                });
                snapshots.push(Snapshot {
                    model: id,
                    layer: net.layers[idx].name.clone(),
                    sparsity,
                    data,
                });
            }
        }
        Inputs {
            snapshots,
            expanded: vec![0.0; self.elements],
        }
    }

    fn setup_layers(&self, tracer: &Tracer) -> Vec<(&'static str, f64)> {
        let totals = tracer.layer_totals();
        vec![(
            "dnn.activation_gen_s",
            totals.get("dnn.activation_gen").copied().unwrap_or(0.0),
        )]
    }

    fn pass(&self, inputs: &mut Inputs, tracer: &Tracer, timer: &mut UnitTimer) -> Pass {
        let mut pass = Pass::default();
        let mut rows = Vec::with_capacity(inputs.snapshots.len());
        let mut raw_bytes = 0usize;
        let expanded = &mut inputs.expanded;
        for (k, snap) in inputs.snapshots.iter().enumerate() {
            let label = || format!("{}/{} snapshot {k}", snap.model, snap.layer);
            let outcome = timer.time(|| {
                guarded(label, || {
                    let _cell = tracer.span(CELL);
                    let mut stream = tracer
                        .time("isa.compress", || {
                            compress_f32(&snap.data, CompareCond::Eqz)
                        })
                        .expect("snapshots hold whole vectors");
                    if self.inject == Inject::CorruptStream && k == 0 {
                        let last = stream.data().len() - 1;
                        stream.flip_bit(StreamRegion::Data, last, 0);
                    }
                    let (compressed_bytes, ratio) =
                        (stream.compressed_bytes(), stream.compression_ratio());
                    // The reader consumes the stream: freeing it is part
                    // of the expand side.
                    let written = tracer.time("isa.expand", || {
                        let written = expand_f32_into(&stream, &mut expanded[..]);
                        drop(stream);
                        written
                    });
                    let limitcc = tracer.time("cachecomp.limitcc", || limitcc_ratio(&snap.data));
                    let twotag = tracer.time("cachecomp.twotag", || twotag_ratio(&snap.data));
                    (compressed_bytes, ratio, written, limitcc, twotag)
                })
            });
            let (compressed_bytes, ratio, written, limitcc, twotag) = match outcome {
                Ok(out) => out,
                Err(failure) => {
                    pass.failures.cell(k, failure);
                    pass.cell_digests.push(u64::MAX);
                    continue;
                }
            };
            let n = snap.data.len();
            // A branch-free fold, so the check vectorizes and stays a
            // small share of the pass.
            let differing_bits = expanded[..n]
                .iter()
                .zip(&snap.data)
                .fold(0u32, |acc, (a, b)| acc | (a.to_bits() ^ b.to_bits()));
            let identical = matches!(written, Ok(w) if w == n) && differing_bits == 0;
            if !identical {
                pass.failures.cell(
                    k,
                    format!(
                        "{}: expanded snapshot differs from its input ({written:?})",
                        label()
                    ),
                );
            }
            raw_bytes += n * 4;
            let mut digest = Digest::default();
            digest.u64(compressed_bytes as u64);
            digest.f64(ratio);
            digest.f64(limitcc);
            digest.f64(twotag);
            pass.cell_digests.push(digest.finish());
            rows.push(Fig15Snapshot {
                model: snap.model,
                layer: snap.layer.clone(),
                sparsity: snap.sparsity,
                zcomp: ratio,
                limitcc,
                twotag,
            });
        }
        let (zcomp, limitcc, twotag) = Fig15Result { snapshots: rows }.geomeans();
        if pass.failures.is_empty() {
            // Paper geometric means, Fig. 15.
            pass.paper_rel_err = Some(paper_rel_err(&[
                (zcomp, 1.8),
                (limitcc, 1.54),
                (twotag, 1.1),
            ]));
        }
        if tracer.enabled() {
            let t = tracer.layer_totals();
            let time = |name: &str| t.get(name).copied().unwrap_or(0.0);
            let gib = raw_bytes as f64 / GIB;
            pass.layers = vec![
                ("isa.compress_s", time("isa.compress")),
                ("isa.expand_s", time("isa.expand")),
                ("isa.compress_gib_s", gib / time("isa.compress")),
                ("isa.expand_gib_s", gib / time("isa.expand")),
                ("isa.ratio", zcomp),
                ("cachecomp.limitcc_s", time("cachecomp.limitcc")),
                ("cachecomp.twotag_s", time("cachecomp.twotag")),
            ];
        }
        pass
    }

    /// Every pass already checks each expansion bit for bit.
    fn verify(&self, _inputs: &Inputs, _reference: &Pass) -> Verification {
        Verification::default()
    }
}
