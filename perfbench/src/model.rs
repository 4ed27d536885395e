//! The benchmark's own copy of `DeviceVgg::forward`, assembled from the
//! library's public calls with a span around each layer boundary.
//!
//! Engines are programmed in `DeviceVgg::deploy`'s RNG order and upsets
//! are drawn exactly as `DeviceVgg::inject_faults` draws them, so from
//! the same RNG state the copy produces the same logits, event counts and
//! RNG consumption as the library, bit for bit. The traced runs check
//! that before they report anything: otherwise the per-layer numbers
//! would describe another program.

use membit_core::{DeviceEvalConfig, Result};
use membit_encoding::pla::PlaThermometer;
use membit_encoding::BitEncoder;
use membit_nn::{Params, Vgg};
use membit_tensor::{im2col_into, Conv2dGeometry, Rng, Tensor, TensorError};
use membit_xbar::{CellSide, CrossbarLinear, EnergyModel, ExecutionStats};

use crate::trace::Tracer;

enum Kernel {
    Digital(Tensor),
    Crossbar {
        engine: Box<CrossbarLinear>,
        pulses: usize,
    },
}

struct ConvLayer {
    kernel: Kernel,
    geom: Conv2dGeometry,
    out_channels: usize,
    scale: Tensor,
    shift: Tensor,
    pool: bool,
}

/// Per-crossbar-layer event counts and pulse-train volume accumulated by
/// the traced forward.
#[derive(Debug, Clone, Default)]
pub struct LayerCounters {
    /// Execution stats per crossbar layer (index 0 = layer L1).
    pub stats: Vec<ExecutionStats>,
    /// Computed bytes of the pulse trains produced, per crossbar layer.
    pub train_bytes: Vec<u64>,
    /// Modelled crossbar time, summed over every layer call (each call
    /// pipelines its vectors, see `EnergyModel::latency_ns`), ns.
    pub sim_latency_ns: f64,
    /// Modelled crossbar energy, pJ.
    pub sim_energy_pj: f64,
    /// Images forwarded.
    pub images: u64,
}

impl LayerCounters {
    fn record(&mut self, layer: usize, s: &ExecutionStats) {
        let energy = EnergyModel::representative();
        self.stats[layer - 1].merge(s);
        self.sim_latency_ns += energy.latency_ns(s);
        self.sim_energy_pj += energy.energy_pj(s);
    }
}

/// A traced deployment equivalent to `membit_core::DeviceVgg`.
pub struct TracedVgg {
    convs: Vec<ConvLayer>,
    fc_engine: CrossbarLinear,
    fc_scale: Tensor,
    fc_shift: Tensor,
    fc_pulses: usize,
    classifier_w: Tensor,
    classifier_b: Tensor,
    feature_dim: usize,
    act_levels: usize,
    num_classes: usize,
    input_shape: [usize; 3],
    /// Spans recorded by [`Self::forward`].
    pub tracer: Tracer,
    /// Event counts recorded by [`Self::forward`].
    pub counters: LayerCounters,
    batches: u64,
}

impl TracedVgg {
    /// Programs `vgg` exactly as `DeviceVgg::deploy` does with the same
    /// `rng` state.
    ///
    /// # Errors
    ///
    /// Propagates programming errors.
    pub fn deploy(
        vgg: &Vgg,
        params: &Params,
        cfg: &DeviceEvalConfig,
        rng: &mut Rng,
    ) -> Result<Self> {
        let config = vgg.config();
        let (mut h, mut w) = (config.in_h, config.in_w);
        let mut in_ch = config.in_channels;
        let mut convs = Vec::new();
        for (i, conv) in vgg.convs().iter().enumerate() {
            let oc = conv.out_channels();
            let geom = Conv2dGeometry::new(in_ch, h, w, 3, 3, 1, 1)?;
            let wmat = conv
                .deployed_weight(params)
                .reshape(&[oc, geom.patch_len()])?;
            let (scale, shift) = vgg.conv_bns()[i].fold_eval(params);
            let pool = config.pool_after.contains(&i);
            let kernel = if i == 0 {
                Kernel::Digital(wmat)
            } else {
                let mut engine = CrossbarLinear::program(&wmat, &cfg.xbar, rng)?;
                if let Some(policy) = &cfg.policy.recovery {
                    engine.remap(policy, rng)?;
                }
                Kernel::Crossbar {
                    engine: Box::new(engine),
                    pulses: cfg.pulses[i - 1],
                }
            };
            convs.push(ConvLayer {
                kernel,
                geom,
                out_channels: oc,
                scale,
                shift,
                pool,
            });
            in_ch = oc;
            if pool {
                h /= 2;
                w /= 2;
            }
        }
        let mut fc_engine =
            CrossbarLinear::program(&vgg.fc_hidden().deployed_weight(params), &cfg.xbar, rng)?;
        if let Some(policy) = &cfg.policy.recovery {
            fc_engine.remap(policy, rng)?;
        }
        let (fc_scale, fc_shift) = vgg.fc_bn().fold_eval(params);
        let classifier_b = vgg
            .classifier()
            .bias()
            .map(|id| params.get(id).clone())
            .unwrap_or_else(|| Tensor::zeros(&[config.num_classes]));
        let layers = config.crossbar_layers();
        Ok(Self {
            convs,
            fc_engine,
            fc_scale,
            fc_shift,
            fc_pulses: *cfg.pulses.last().expect("deploy config has pulse counts"),
            classifier_w: vgg.classifier().deployed_weight(params),
            classifier_b,
            feature_dim: config.feature_dim(),
            act_levels: cfg.act_levels,
            num_classes: config.num_classes,
            input_shape: config.input_shape(),
            tracer: Tracer::default(),
            counters: LayerCounters {
                stats: vec![ExecutionStats::default(); layers],
                train_bytes: vec![0; layers],
                ..LayerCounters::default()
            },
            batches: 0,
        })
    }

    fn engines_mut(&mut self) -> impl Iterator<Item = &mut CrossbarLinear> {
        self.convs
            .iter_mut()
            .filter_map(|l| match &mut l.kernel {
                Kernel::Crossbar { engine, .. } => Some(engine.as_mut()),
                Kernel::Digital(_) => None,
            })
            .chain(std::iter::once(&mut self.fc_engine))
    }

    /// Caps every engine's host thread fan-out.
    ///
    /// # Errors
    ///
    /// Rejects zero.
    pub fn set_max_threads(&mut self, threads: usize) -> Result<()> {
        for e in self.engines_mut() {
            e.set_max_threads(threads)?;
        }
        Ok(())
    }

    /// Transient upsets with `DeviceVgg::inject_faults`' draw sequence.
    ///
    /// # Errors
    ///
    /// Propagates injection errors.
    pub fn inject_faults(&mut self, rate: f32, rng: &mut Rng) -> Result<u64> {
        let mut injected = 0u64;
        for engine in self.engines_mut() {
            let (out, inp) = engine.dims();
            let count = ((out * inp) as f32 * rate).round() as usize;
            for _ in 0..count {
                let row = rng.below(inp);
                let col = rng.below(out);
                let side = if rng.coin(0.5) {
                    CellSide::Pos
                } else {
                    CellSide::Neg
                };
                let high = rng.coin(0.5);
                engine.upset_cell(row, col, side, high)?;
                injected += 1;
            }
        }
        Ok(injected)
    }

    /// Crossbar layers demoted to the digital fallback.
    pub fn degraded_layers(&self) -> u64 {
        let convs = self.convs.iter().filter(|l| match &l.kernel {
            Kernel::Crossbar { engine, .. } => engine.is_degraded(),
            Kernel::Digital(_) => false,
        });
        (convs.count() + usize::from(self.fc_engine.is_degraded())) as u64
    }

    /// One traced batch: im2col, pulse encoding, guarded crossbar
    /// execution and digital periphery per layer, then the classifier.
    ///
    /// # Errors
    ///
    /// Propagates shape and engine errors.
    pub fn forward(&mut self, images: &Tensor, rng: &mut Rng) -> Result<(Tensor, ExecutionStats)> {
        let t = &mut self.tracer;
        let counters = &mut self.counters;
        t.set_batch(self.batches);
        self.batches += 1;
        t.begin("forward", 0);
        let mut stats = ExecutionStats::default();
        let n = images.shape()[0];
        let mut act = images.clone();
        let mut col_buf: Vec<f32> = Vec::new();
        let levels = self.act_levels;
        let mut xl = 0usize; // crossbar layer index of the next engine
        for layer in &mut self.convs {
            let (oh, ow) = (layer.geom.out_h(), layer.geom.out_w());
            let digital = matches!(layer.kernel, Kernel::Digital(_));
            if digital {
                t.begin("digital_conv", 0);
            } else {
                xl += 1;
            }
            let cols = t.span("im2col", xl, || -> Result<Tensor> {
                im2col_into(&act, &layer.geom, &mut col_buf)?;
                let rows = col_buf.len() / layer.geom.patch_len();
                Ok(Tensor::from_vec(
                    std::mem::take(&mut col_buf),
                    &[rows, layer.geom.patch_len()],
                )?)
            })?;
            let out_rows = match &mut layer.kernel {
                Kernel::Digital(wmat) => cols.matmul(&wmat.transpose()?)?,
                Kernel::Crossbar { engine, pulses } => {
                    let train = t.span("encode", xl, || {
                        PlaThermometer::new(levels, *pulses)?.encode_tensor(&cols)
                    })?;
                    counters.train_bytes[xl - 1] += train_bytes(&train);
                    let (y, s) = t.span("execute", xl, || engine.execute_guarded(&train, rng))?;
                    counters.record(xl, &s);
                    stats.merge(&s);
                    y
                }
            };
            col_buf = cols.into_vec();
            let out = t.span("periphery", xl, || -> Result<Tensor> {
                let mut out = out_rows
                    .into_reshaped(&[n, oh, ow, layer.out_channels])?
                    .nhwc_to_nchw()?;
                out = out.channel_map(&layer.scale, |v, s| v * s)?;
                out = out.channel_map(&layer.shift, |v, t| v + t)?;
                out = quantize_tensor(&out.tanh(), levels);
                if layer.pool {
                    out = max_pool2(&out)?;
                }
                Ok(out)
            })?;
            if digital {
                t.end();
            }
            act = out;
        }
        xl += 1;
        let flat = act.into_reshaped(&[n, self.feature_dim])?;
        let train = t.span("encode", xl, || {
            PlaThermometer::new(levels, self.fc_pulses)?.encode_tensor(&flat)
        })?;
        counters.train_bytes[xl - 1] += train_bytes(&train);
        let fc_engine = &mut self.fc_engine;
        let (f, s) = t.span("execute", xl, || fc_engine.execute_guarded(&train, rng))?;
        counters.record(xl, &s);
        stats.merge(&s);
        let f = t.span("periphery", xl, || -> Result<Tensor> {
            let f = f.mul(&self.fc_scale)?.add(&self.fc_shift)?;
            Ok(quantize_tensor(&f.tanh(), levels))
        })?;
        let logits = t.span("head", 0, || -> Result<Tensor> {
            Ok(f.matmul(&self.classifier_w.transpose()?)?
                .add(&self.classifier_b)?)
        })?;
        t.end();
        counters.images += n as u64;
        Ok((logits, stats))
    }
}

/// Computed size of a pulse train: every pulse tensor's `f32` payload
/// plus the per-pulse weights.
fn train_bytes(train: &membit_encoding::PulseTrain) -> u64 {
    let values: usize =
        train.pulses().iter().map(Tensor::len).sum::<usize>() + train.weights().len();
    (values * std::mem::size_of::<f32>()) as u64
}

/// The deployment's activation re-quantizer (`DeviceVgg`'s periphery).
fn quantize_tensor(t: &Tensor, levels: usize) -> Tensor {
    let l = (levels - 1) as f32;
    t.map(|v| ((v.clamp(-1.0, 1.0) + 1.0) / 2.0 * l).round() / l * 2.0 - 1.0)
}

/// Digital 2×2 max pool (stride 2) over NCHW.
fn max_pool2(x: &Tensor) -> Result<Tensor> {
    let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
    if h % 2 != 0 || w % 2 != 0 {
        return Err(TensorError::InvalidArgument(format!("cannot 2×2-pool {h}×{w}")).into());
    }
    let (oh, ow) = (h / 2, w / 2);
    let src = x.as_slice();
    let mut out = vec![f32::NEG_INFINITY; n * c * oh * ow];
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    for ky in 0..2 {
                        for kx in 0..2 {
                            best = best.max(src[base + (oy * 2 + ky) * w + ox * 2 + kx]);
                        }
                    }
                    out[((ni * c + ci) * oh + oy) * ow + ox] = best;
                }
            }
        }
    }
    Ok(Tensor::from_vec(out, &[n, c, oh, ow])?)
}

impl membit_serve::ServeModel for TracedVgg {
    fn input_shape(&self) -> Vec<usize> {
        self.input_shape.to_vec()
    }

    fn output_dim(&self) -> usize {
        self.num_classes
    }

    fn forward_batch(
        &mut self,
        batch: &Tensor,
        rng: &mut Rng,
    ) -> membit_serve::Result<(Tensor, ExecutionStats)> {
        Ok(self.forward(batch, rng)?)
    }

    fn inject_upsets(&mut self, rate: f32, rng: &mut Rng) -> membit_serve::Result<u64> {
        Ok(self.inject_faults(rate, rng)?)
    }

    fn degraded_layers(&self) -> u64 {
        TracedVgg::degraded_layers(self)
    }

    fn set_max_threads(&mut self, max_threads: usize) -> membit_serve::Result<()> {
        Ok(TracedVgg::set_max_threads(self, max_threads)?)
    }
}
