//! Single-core training-pipeline throughput gate: conv2d
//! forward+backward, one MLP and one CNN training epoch, and the Vlasov
//! data-generator step, plus the shared `matmul_naive` calibration anchor.
//!
//! The companion of `step_throughput`: that bench gates the *simulate*
//! half of the paper's workflow, this one gates the *train* half — the
//! layers, the mini-batch loop, and the Vlasov solver that generates the
//! noise-free training data (§VII).
//!
//! CLI and gates: see `dlpic_bench::gate` (`gate::TRAIN`). `--check`
//! works like the step gate (25% tolerance, anchor rescaling); the
//! measurement records its kernel path (`simd`), and the kernel-bound
//! metrics are derated 3× when the committed numbers come from AVX-512
//! and this machine only has the portable path.

use dlpic_bench::gate::{self, calibration_gflops, fill, median};
use dlpic_core::presets::Scale;
use dlpic_nn::data::Dataset;
use dlpic_nn::init::Init;
use dlpic_nn::layer::Layer;
use dlpic_nn::layers::Conv2d;
use dlpic_nn::loss::Mse;
use dlpic_nn::optimizer::Adam;
use dlpic_nn::tensor::Tensor;
use dlpic_nn::trainer::{train, TrainConfig};
use dlpic_pic::grid::Grid1D;
use dlpic_repro::engine::json::{obj, Json};
use dlpic_vlasov::solver::{VlasovConfig, VlasovSolver};
use std::time::Instant;

/// One throughput measurement: `units` work units in the median of the
/// timed repetitions, recorded with its rate under `rate_key`.
fn throughput(units: usize, times: Vec<f64>, rate_key: &str) -> Json {
    let seconds = median(times);
    obj(vec![
        ("units", Json::Num(units as f64)),
        ("seconds", Json::Num(seconds)),
        (rate_key, Json::Num(units as f64 / seconds)),
    ])
}

/// Forward(training)+backward throughput of the four conv layers of the
/// `Scale::Scaled` CNN (1→8 and 8→8 on 32×32, 8→16 and 16→16 on 16×16) at
/// batch 64. One work unit = one batch sample through all four layers.
fn bench_conv(iters: usize, reps: usize) -> Json {
    let batch = 64;
    // (in_ch, out_ch, h, w) of the Scaled CNN's conv layers.
    let shapes = [
        (1usize, 8usize, 32usize, 32usize),
        (8, 8, 32, 32),
        (8, 16, 16, 16),
        (16, 16, 16, 16),
    ];
    let mut layers: Vec<Conv2d> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(ic, oc, _, _))| Conv2d::new(ic, oc, 3, Init::HeNormal, i as u64 + 1))
        .collect();
    let inputs: Vec<Tensor> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(ic, _, h, w))| {
            let mut data = vec![0.0f32; batch * ic * h * w];
            fill(&mut data, 17 + i as u64);
            Tensor::new(data, &[batch, ic, h, w])
        })
        .collect();
    let grads: Vec<Tensor> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(_, oc, h, w))| {
            let mut data = vec![0.0f32; batch * oc * h * w];
            fill(&mut data, 29 + i as u64);
            Tensor::new(data, &[batch, oc, h, w])
        })
        .collect();
    // Reusable output/gradient buffers — the same train_forward_into /
    // backward_into path the trainer drives per batch. (The committed
    // baseline predates these entry points; it ran the then-only
    // allocating forward/backward, so the speedup ratio includes the
    // allocation elimination — which is the point.)
    let mut out = Tensor::zeros(&[0]);
    let mut gx = Tensor::zeros(&[0]);
    // Warm-up.
    for (layer, (x, g)) in layers.iter_mut().zip(inputs.iter().zip(&grads)) {
        layer.train_forward_into(x, &mut out);
        layer.backward_into(g, &mut gx);
    }
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                for (layer, (x, g)) in layers.iter_mut().zip(inputs.iter().zip(&grads)) {
                    layer.zero_grads();
                    layer.train_forward_into(x, &mut out);
                    std::hint::black_box(out.data()[0]);
                    layer.backward_into(g, &mut gx);
                    std::hint::black_box(gx.data()[0]);
                }
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    throughput(batch * iters, times, "fwd_bwd_samples_per_sec")
}

/// A synthetic regression dataset with the given input shape.
fn synth_dataset(n: usize, in_shape: &[usize], out_w: usize, seed: u64) -> Dataset {
    let in_w: usize = in_shape.iter().product();
    let mut xs = vec![0.0f32; n * in_w];
    let mut ys = vec![0.0f32; n * out_w];
    fill(&mut xs, seed);
    fill(&mut ys, seed + 1);
    let mut x_shape = vec![n];
    x_shape.extend_from_slice(in_shape);
    Dataset::new(Tensor::new(xs, &x_shape), Tensor::new(ys, &[n, out_w]))
}

/// Samples/second of full training epochs (shuffle + batching + forward +
/// loss + backward + Adam) on the `Scale::Scaled` MLP (1024-256³-64).
fn bench_mlp_epoch(samples: usize, epochs: usize, reps: usize) -> Json {
    let data = synth_dataset(samples, &[1024], 64, 41);
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let mut net = Scale::Scaled.mlp_arch().build(7);
            let mut opt = Adam::new(1e-3);
            let cfg = TrainConfig {
                epochs,
                batch_size: 64,
                shuffle_seed: 3,
                log_every: 0,
            };
            let t0 = Instant::now();
            let hist = train(&mut net, &Mse, &mut opt, &data, None, &cfg);
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(hist.final_loss());
            dt
        })
        .collect();
    throughput(samples * epochs, times, "samples_per_sec")
}

/// Samples/second of full training epochs on the `Scale::Scaled` CNN
/// (1→8→8 pool 8→16→16 pool, 128³ dense head) over 32×32 images.
fn bench_cnn_epoch(samples: usize, epochs: usize, reps: usize) -> Json {
    let data = synth_dataset(samples, &[1, 32, 32], 64, 53);
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let mut net = Scale::Scaled.cnn_arch().build(7);
            let mut opt = Adam::new(1e-3);
            let cfg = TrainConfig {
                epochs,
                batch_size: 64,
                shuffle_seed: 3,
                log_every: 0,
            };
            let t0 = Instant::now();
            let hist = train(&mut net, &Mse, &mut opt, &data, None, &cfg);
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(hist.final_loss());
            dt
        })
        .collect();
    throughput(samples * epochs, times, "samples_per_sec")
}

/// Steps/second of the Vlasov solver at the dataset-bridge resolution
/// (128×256 phase-space grid — `lcm(32, 64)·2` x-cells, 32·8 v-cells).
fn bench_vlasov(steps: usize, reps: usize) -> Json {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let cfg = VlasovConfig {
                grid: Grid1D::new(128, dlpic_pic::constants::paper_box_length()),
                nv: 256,
                vmax: 0.8,
                dt: 0.05,
                v0: 0.2,
                vth: 0.02,
                perturbation: 1e-3,
            };
            let mut solver = VlasovSolver::new(cfg);
            let t0 = Instant::now();
            solver.run(steps);
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(solver.field_mode(1));
            dt
        })
        .collect();
    throughput(steps, times, "steps_per_sec")
}

fn measure(quick: bool) -> Json {
    let reps = if quick { 3 } else { 5 };
    eprintln!("measuring calibration anchor...");
    let calibration = calibration_gflops(reps);
    let conv_iters = if quick { 4 } else { 16 };
    eprintln!("measuring conv2d forward+backward ({conv_iters} iters x {reps} reps)...");
    let conv = bench_conv(conv_iters, reps);
    let (mlp_samples, mlp_epochs) = if quick { (512, 1) } else { (2048, 2) };
    eprintln!("measuring MLP training epoch ({mlp_samples} samples x {mlp_epochs} epochs)...");
    let mlp = bench_mlp_epoch(mlp_samples, mlp_epochs, reps);
    let (cnn_samples, cnn_epochs) = if quick { (128, 1) } else { (256, 2) };
    eprintln!("measuring CNN training epoch ({cnn_samples} samples x {cnn_epochs} epochs)...");
    let cnn = bench_cnn_epoch(cnn_samples, cnn_epochs, reps);
    let vlasov_steps = if quick { 20 } else { 60 };
    eprintln!("measuring Vlasov step ({vlasov_steps} steps x {reps} reps)...");
    let vlasov = bench_vlasov(vlasov_steps, reps);
    obj(vec![
        ("calibration_gflops", Json::Num(calibration)),
        // The kernel path the `nn::linalg` dispatcher picked: kernel-bound
        // metrics are only comparable between machines on the same path.
        ("simd", Json::Str(dlpic_nn::linalg::simd_level().into())),
        ("conv2d", conv),
        ("mlp_epoch", mlp),
        ("cnn_epoch", cnn),
        ("vlasov", vlasov),
    ])
}

fn main() {
    gate::main(&gate::TRAIN, measure)
}
