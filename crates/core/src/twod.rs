//! The two-dimensional DL field solver — the "two-dimensional systems"
//! extension named as future work in the paper's §VII.
//!
//! ## Input representation
//!
//! In 1-D the paper feeds the network the `(x, v)` phase-space histogram.
//! The direct 2-D analogue is the four-dimensional `(x, y, vx, vy)` grid,
//! which is intractable as a dense network input (a 32⁴ grid has one
//! million bins). The electrostatic field, however, depends on the
//! particle state *only through the charge density* — in 1-D the
//! phase-space histogram strictly contains ρ(x) as its column sums, which
//! is the part the network needs. The 2-D extension therefore feeds the
//! configuration-space histogram ρ(x, y) (the 2-D column-sum analogue) and
//! predicts both field components stacked as `[Ex | Ey]`. This is recorded
//! as a substitution in DESIGN.md.
//!
//! The rest of the method is unchanged: histograms are min–max normalized
//! with the training-set statistics (paper Eq. 5), the network is an MLP
//! with ReLU hidden layers and a linear output trained with Adam on MSE,
//! and the solver drops into the shared 2-D simulation loop behind
//! [`FieldSolver2D`].

use crate::builder::ArchSpec;
use crate::normalize::NormStats;
use crate::phase_space::BinningShape;
use dlpic_nn::data::Dataset;
use dlpic_nn::frozen::{FrozenModel, Precision, PredictWorkspace};
use dlpic_nn::loss::Mse;
use dlpic_nn::network::Sequential;
use dlpic_nn::optimizer::adam::Adam;
use dlpic_nn::tensor::Tensor;
use dlpic_nn::trainer::{train, TrainConfig, TrainHistory};
use dlpic_pic2d::grid2d::Grid2D;
use dlpic_pic2d::particles2d::Particles2D;
use dlpic_pic2d::simulation2d::{Pic2DConfig, Simulation2D};
use dlpic_pic2d::solver2d::{FieldSolver2D, PhasedFieldSolver2D, TraditionalSolver2D};
use std::sync::Arc;

/// Bins particle positions into a row-major `nx×ny` count histogram
/// (`out[iy * nx + ix]`, `x` fastest). Weights sum to the particle count.
/// `out` is overwritten.
///
/// # Panics
/// Panics if `out` length differs from the grid node count.
pub fn bin_density(particles: &Particles2D, grid: &Grid2D, shape: BinningShape, out: &mut [f32]) {
    assert_eq!(out.len(), grid.nodes(), "density buffer size mismatch");
    out.fill(0.0);
    let (nx, ny) = (grid.nx(), grid.ny());
    let inv_dx = 1.0 / grid.dx();
    let inv_dy = 1.0 / grid.dy();

    match shape {
        BinningShape::Ngp => {
            for (&x, &y) in particles.x.iter().zip(&particles.y) {
                let ix = ((x * inv_dx + 0.5) as usize) % nx;
                let iy = ((y * inv_dy + 0.5) as usize) % ny;
                out[iy * nx + ix] += 1.0;
            }
        }
        BinningShape::Cic => {
            for (&x, &y) in particles.x.iter().zip(&particles.y) {
                let fx = x * inv_dx;
                let ix0 = fx.floor();
                let wx1 = fx - ix0;
                let ix0 = (ix0 as i64).rem_euclid(nx as i64) as usize;
                let ix1 = if ix0 + 1 == nx { 0 } else { ix0 + 1 };
                let fy = y * inv_dy;
                let iy0 = fy.floor();
                let wy1 = fy - iy0;
                let iy0 = (iy0 as i64).rem_euclid(ny as i64) as usize;
                let iy1 = if iy0 + 1 == ny { 0 } else { iy0 + 1 };
                let (wx0, wy0) = (1.0 - wx1, 1.0 - wy1);
                out[iy0 * nx + ix0] += (wy0 * wx0) as f32;
                out[iy0 * nx + ix1] += (wy0 * wx1) as f32;
                out[iy1 * nx + ix0] += (wy1 * wx0) as f32;
                out[iy1 * nx + ix1] += (wy1 * wx1) as f32;
            }
        }
    }
}

/// One training sample of the 2-D extension: a density histogram and the
/// associated field components.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample2D {
    /// Raw (unnormalized) density histogram, `nx·ny` counts.
    pub hist: Vec<f32>,
    /// `Ex` on the nodes.
    pub ex: Vec<f32>,
    /// `Ey` on the nodes.
    pub ey: Vec<f32>,
}

/// Runs a traditional 2-D PIC simulation and harvests one sample every
/// `stride` steps (stride 1 = every step), mirroring the paper's 1-D
/// harvesting procedure.
pub fn harvest_2d(cfg: Pic2DConfig, binning: BinningShape, stride: usize) -> Vec<Sample2D> {
    assert!(stride > 0, "stride must be positive");
    let n_steps = cfg.n_steps;
    let grid = cfg.grid.clone();
    let mut sim = Simulation2D::new(cfg, Box::new(TraditionalSolver2D::default_config()));
    let mut samples = Vec::with_capacity(n_steps / stride + 1);
    let mut hist = vec![0.0f32; grid.nodes()];
    for step in 0..n_steps {
        sim.step();
        if step % stride != 0 {
            continue;
        }
        bin_density(sim.particles(), &grid, binning, &mut hist);
        samples.push(Sample2D {
            hist: hist.clone(),
            ex: sim.ex().iter().map(|&v| v as f32).collect(),
            ey: sim.ey().iter().map(|&v| v as f32).collect(),
        });
    }
    samples
}

/// Assembles an [`Dataset`] from samples: inputs are min–max normalized
/// histograms (statistics returned for inference-time reuse), targets are
/// `[Ex | Ey]` stacked per sample.
///
/// # Panics
/// Panics on an empty sample list.
pub fn build_dataset_2d(samples: &[Sample2D]) -> (Dataset, NormStats) {
    assert!(!samples.is_empty(), "no samples");
    let in_len = samples[0].hist.len();
    let out_len = samples[0].ex.len() + samples[0].ey.len();
    let mut all_inputs: Vec<f32> = Vec::with_capacity(samples.len() * in_len);
    for s in samples {
        all_inputs.extend_from_slice(&s.hist);
    }
    let norm = NormStats::from_data(&all_inputs);
    norm.apply(&mut all_inputs);
    let mut targets: Vec<f32> = Vec::with_capacity(samples.len() * out_len);
    for s in samples {
        targets.extend_from_slice(&s.ex);
        targets.extend_from_slice(&s.ey);
    }
    let x = Tensor::new(all_inputs, &[samples.len(), in_len]);
    let y = Tensor::new(targets, &[samples.len(), out_len]);
    (Dataset::new(x, y), norm)
}

/// The default 2-D architecture: an MLP from `nodes` density bins to
/// `2·nodes` field values, with the same ReLU-hidden / linear-output
/// structure as the paper's 1-D MLP.
pub fn arch_2d(nodes: usize, hidden: Vec<usize>) -> ArchSpec {
    ArchSpec::Mlp {
        input: nodes,
        hidden,
        output: 2 * nodes,
    }
}

/// Configuration for [`train_2d_model`].
#[derive(Debug, Clone)]
pub struct Train2DConfig {
    /// Hidden-layer widths.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Weight-init / shuffle seed.
    pub seed: u64,
}

impl Default for Train2DConfig {
    fn default() -> Self {
        Self {
            hidden: vec![256, 256],
            learning_rate: 1e-3,
            epochs: 40,
            batch_size: 32,
            seed: 0,
        }
    }
}

/// Trains the 2-D MLP on harvested samples and freezes it with the
/// training-input normalization and the first sample's mass (the
/// solver's `"dl-2d-mlp"` name, f32 weights).
///
/// # Panics
/// Panics on an empty sample list.
pub fn train_2d_model(
    grid: &Grid2D,
    samples: &[Sample2D],
    binning: BinningShape,
    cfg: &Train2DConfig,
) -> (Frozen2DModel, TrainHistory) {
    let (dataset, norm) = build_dataset_2d(samples);
    let mut net = arch_2d(grid.nodes(), cfg.hidden.clone()).build(cfg.seed);
    let mut opt = Adam::new(cfg.learning_rate);
    let tc = TrainConfig {
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        shuffle_seed: cfg.seed,
        log_every: 0,
    };
    let history = train(&mut net, &Mse, &mut opt, &dataset, None, &tc);
    let reference_mass: f32 = samples[0].hist.iter().sum();
    let model = Frozen2DModel::from_network(
        &net,
        binning,
        norm,
        reference_mass,
        "dl-2d-mlp",
        Precision::F32,
    );
    (model, history)
}

/// A frozen, `Arc`-shareable snapshot of a trained 2-D solver: the
/// immutable model plus the inference-time metadata needed to mint
/// fleet members that all read **one** weight allocation (the 2-D
/// analogue of the 1-D `FrozenBundle`).
#[derive(Debug, Clone)]
pub struct Frozen2DModel {
    model: Arc<FrozenModel>,
    binning: BinningShape,
    norm: NormStats,
    reference_mass: f32,
    name: &'static str,
}

impl Frozen2DModel {
    /// Freezes a trained network into a shareable 2-D model.
    pub fn from_network(
        net: &Sequential,
        binning: BinningShape,
        norm: NormStats,
        reference_mass: f32,
        name: &'static str,
        precision: Precision,
    ) -> Self {
        Self {
            model: Arc::new(net.freeze(precision)),
            binning,
            norm,
            reference_mass,
            name,
        }
    }

    /// Mints one fleet member over the shared weight allocation. At
    /// [`Precision::F32`] the member is bit-identical to the solver the
    /// model was frozen from.
    pub fn solver(&self) -> Dl2DFieldSolver {
        Dl2DFieldSolver::new(Arc::clone(&self.model), self.binning, self.norm, self.name)
            .with_reference_mass(self.reference_mass)
    }

    /// Bytes of the one shared weight allocation.
    pub fn weight_bytes(&self) -> usize {
        self.model.weight_bytes()
    }
}

/// A neural-network-backed 2-D field solver (density histogram in,
/// `[Ex | Ey]` out), pluggable into [`Simulation2D`].
pub struct Dl2DFieldSolver {
    model: Arc<FrozenModel>,
    binning: BinningShape,
    norm: NormStats,
    name: &'static str,
    reference_mass: f32,
    scratch: Vec<f32>,
    out_scratch: Vec<f32>,
    input: Tensor,
    workspace: PredictWorkspace,
    /// Input/output widths, learned at the first solve (0 = unknown; the
    /// initial field solve during simulation construction fills them).
    in_nodes: usize,
    out_len: usize,
}

impl Dl2DFieldSolver {
    /// Wraps an `Arc`-shared frozen model (see [`Frozen2DModel`]).
    /// `norm` must be the training-input statistics.
    pub fn new(
        model: Arc<FrozenModel>,
        binning: BinningShape,
        norm: NormStats,
        name: &'static str,
    ) -> Self {
        Self {
            model,
            binning,
            norm,
            name,
            reference_mass: 0.0,
            scratch: Vec::new(),
            out_scratch: Vec::new(),
            input: Tensor::zeros(&[0]),
            workspace: PredictWorkspace::new(),
            in_nodes: 0,
            out_len: 0,
        }
    }

    /// Sets the training histograms' total mass; inference histograms are
    /// rescaled to it (same extensivity argument as the 1-D solver).
    pub fn with_reference_mass(mut self, mass: f32) -> Self {
        self.reference_mass = mass;
        self
    }

    /// Inference + field write from the prepared `self.scratch` — phases
    /// 2–3 on the solver's own buffers (the in-process solo path).
    fn infer_scratch_into(&mut self, ex: &mut [f64], ey: &mut [f64]) {
        let scratch = std::mem::take(&mut self.scratch);
        let mut out = std::mem::take(&mut self.out_scratch);
        out.resize(2 * ex.len(), 0.0);
        self.infer_batch(&scratch, 1, &mut out);
        self.apply_output(&out, ex, ey);
        self.scratch = scratch;
        self.out_scratch = out;
    }
}

impl FieldSolver2D for Dl2DFieldSolver {
    fn solve(&mut self, particles: &Particles2D, grid: &Grid2D, ex: &mut [f64], ey: &mut [f64]) {
        // The same three phases the ensemble scheduler drives externally:
        // prepare (bin + mass-rescale + normalize), one m = 1 inference,
        // apply — bit-identical to a batched solve of the same state.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.resize(grid.nodes(), 0.0);
        self.prepare_input(particles, grid, &mut scratch);
        self.scratch = scratch;
        self.infer_scratch_into(ex, ey);
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn phased(&mut self) -> Option<&mut dyn PhasedFieldSolver2D> {
        Some(self)
    }

    fn weight_storage(&self) -> Option<(usize, usize)> {
        // Every sharer of one `Arc` reports the same id.
        Some((Arc::as_ptr(&self.model) as usize, self.model.weight_bytes()))
    }
}

impl PhasedFieldSolver2D for Dl2DFieldSolver {
    fn input_len(&self) -> usize {
        assert!(
            self.in_nodes > 0,
            "input width is unknown before the first solve"
        );
        self.in_nodes
    }

    fn output_len(&self) -> usize {
        assert!(
            self.out_len > 0,
            "output width is unknown before the first inference"
        );
        self.out_len
    }

    fn prepare_input(&mut self, particles: &Particles2D, grid: &Grid2D, dst: &mut [f32]) {
        bin_density(particles, grid, self.binning, dst);
        self.norm
            .apply_at_mass(dst, particles.len() as f32, self.reference_mass);
        self.in_nodes = grid.nodes();
    }

    fn infer_batch(&mut self, input: &[f32], rows: usize, output: &mut [f32]) {
        assert_eq!(input.len() % rows, 0, "batch input size");
        self.input.resize_in_place(&[rows, input.len() / rows]);
        self.input.data_mut().copy_from_slice(input);
        let pred = self.model.predict_into(&self.input, &mut self.workspace);
        assert_eq!(
            pred.len(),
            output.len(),
            "network output width {} does not match the requested {} values ({rows} rows)",
            pred.len(),
            output.len(),
        );
        output.copy_from_slice(pred.data());
        self.out_len = pred.len() / rows;
    }

    fn apply_output(&mut self, row: &[f32], ex: &mut [f64], ey: &mut [f64]) {
        let nodes = ex.len();
        assert_eq!(
            row.len(),
            2 * nodes,
            "network output width {} does not match 2·nodes = {}",
            row.len(),
            2 * nodes
        );
        for (dst, &src) in ex.iter_mut().zip(&row[..nodes]) {
            *dst = src as f64;
        }
        for (dst, &src) in ey.iter_mut().zip(&row[nodes..]) {
            *dst = src as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlpic_pic::shape::Shape;
    use dlpic_pic2d::init2d::TwoStream2DInit;

    fn tiny_grid() -> Grid2D {
        Grid2D::new(8, 8, 2.0532, 2.0532)
    }

    fn untrained_solver(grid: &Grid2D, seed: u64) -> Dl2DFieldSolver {
        let net = arch_2d(grid.nodes(), vec![16]).build(seed);
        Dl2DFieldSolver::new(
            Arc::new(net.freeze(Precision::F32)),
            BinningShape::Ngp,
            NormStats::identity(),
            "dl-2d",
        )
    }

    #[test]
    fn density_binning_conserves_counts() {
        let grid = tiny_grid();
        let p = TwoStream2DInit::random(0.2, 0.01, 500, 3).build(&grid);
        for shape in [BinningShape::Ngp, BinningShape::Cic] {
            let mut hist = vec![0.0f32; grid.nodes()];
            bin_density(&p, &grid, shape, &mut hist);
            let total: f32 = hist.iter().sum();
            assert!((total - 500.0).abs() < 1e-3, "{shape:?}: {total}");
        }
    }

    #[test]
    fn cic_density_of_node_centred_particle() {
        let grid = tiny_grid();
        let p = Particles2D::new(
            vec![2.0 * grid.dx()],
            vec![3.0 * grid.dy()],
            vec![0.0],
            vec![0.0],
            -1.0,
            1.0,
        );
        let mut hist = vec![0.0f32; grid.nodes()];
        bin_density(&p, &grid, BinningShape::Cic, &mut hist);
        assert!((hist[grid.index(2, 3)] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn harvest_produces_expected_sample_count() {
        let cfg = Pic2DConfig {
            grid: tiny_grid(),
            init: TwoStream2DInit::quiet(0.2, 0.0, 1024, 1e-3, 0),
            dt: 0.2,
            n_steps: 10,
            gather_shape: Shape::Cic,
            tracked_modes: vec![],
        };
        let samples = harvest_2d(cfg, BinningShape::Ngp, 2);
        assert_eq!(samples.len(), 5);
        assert!(samples.iter().all(|s| s.hist.len() == 64));
        assert!(samples.iter().all(|s| s.ex.len() == 64 && s.ey.len() == 64));
        assert!(samples
            .iter()
            .all(|s| s.ex.iter().chain(&s.ey).all(|v| v.is_finite())));
    }

    #[test]
    fn dataset_shapes_and_normalization() {
        let samples = vec![
            Sample2D {
                hist: vec![0.0, 4.0],
                ex: vec![1.0, -1.0],
                ey: vec![0.5, 0.0],
            },
            Sample2D {
                hist: vec![2.0, 2.0],
                ex: vec![0.0, 0.0],
                ey: vec![0.0, 0.5],
            },
        ];
        let (ds, norm) = build_dataset_2d(&samples);
        assert_eq!(ds.len(), 2);
        // Min 0, max 4 → normalized inputs within [0, 1].
        assert!((norm.span() - 4.0).abs() < 1e-6);
        let (x, y) = ds.batch(0, 2);
        assert_eq!(x.shape(), &[2, 2]);
        assert_eq!(y.shape(), &[2, 4]);
        assert!(x.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn untrained_solver_writes_finite_fields() {
        let grid = tiny_grid();
        let mut solver = untrained_solver(&grid, 0);
        let p = TwoStream2DInit::random(0.2, 0.0, 512, 1).build(&grid);
        let mut ex = grid.zeros();
        let mut ey = grid.zeros();
        solver.solve(&p, &grid, &mut ex, &mut ey);
        assert!(ex.iter().chain(ey.iter()).all(|v| v.is_finite()));
    }

    #[test]
    fn trained_solver_beats_untrained_on_training_data() {
        // A minimal learning sanity check: after a few epochs the MSE on
        // the training samples must drop well below the untrained level.
        let grid = tiny_grid();
        let cfg = Pic2DConfig {
            grid: grid.clone(),
            init: TwoStream2DInit::quiet(0.2, 0.0, 2048, 1e-2, 0),
            dt: 0.2,
            n_steps: 30,
            gather_shape: Shape::Cic,
            tracked_modes: vec![],
        };
        let samples = harvest_2d(cfg, BinningShape::Ngp, 1);
        let tc = Train2DConfig {
            hidden: vec![32],
            learning_rate: 3e-3,
            epochs: 30,
            batch_size: 8,
            seed: 1,
        };
        let (_, history) = train_2d_model(&grid, &samples, BinningShape::Ngp, &tc);
        let first = history.train_loss.first().copied().unwrap();
        let last = history.final_loss().unwrap();
        assert!(
            last < 0.5 * first,
            "training did not reduce loss: {first} → {last}"
        );
    }

    #[test]
    fn frozen_2d_members_are_bit_identical_to_sequential_predict() {
        let grid = tiny_grid();
        let mut net = arch_2d(grid.nodes(), vec![16]).build(3);
        let norm = NormStats::identity();
        let frozen = Frozen2DModel::from_network(
            &net,
            BinningShape::Cic,
            norm,
            512.0,
            "dl-2d",
            Precision::F32,
        );
        let mut m1 = frozen.solver();
        let mut m2 = frozen.solver();
        // 500 particles against a 512 reference mass: the rescale runs.
        let p = TwoStream2DInit::random(0.2, 0.01, 500, 5).build(&grid);

        let solve = |s: &mut Dl2DFieldSolver, grid: &Grid2D| {
            let mut ex = grid.zeros();
            let mut ey = grid.zeros();
            s.solve(&p, grid, &mut ex, &mut ey);
            (ex, ey)
        };
        let (ex1, ey1) = solve(&mut m1, &grid);
        let (ex2, ey2) = solve(&mut m2, &grid);
        // The reference: bin, rescale, normalize, then the trained
        // network's own forward.
        let mut hist = vec![0.0f32; grid.nodes()];
        bin_density(&p, &grid, BinningShape::Cic, &mut hist);
        let factor = 512.0 / 500.0f32;
        hist.iter_mut().for_each(|v| *v *= factor);
        norm.apply(&mut hist);
        let pred = net.predict(&Tensor::new(hist, &[1, grid.nodes()]));
        let nodes = grid.nodes();
        let widen = |r: &[f32]| r.iter().map(|&v| v as f64).collect::<Vec<_>>();
        assert_eq!(ex1, widen(&pred.data()[..nodes]));
        assert_eq!(ey1, widen(&pred.data()[nodes..]));
        assert_eq!(ex1, ex2);
        assert_eq!(ey1, ey2);

        // One allocation across sharers, of the model's size.
        let (id1, bytes1) = m1.weight_storage().unwrap();
        let (id2, _) = m2.weight_storage().unwrap();
        assert_eq!(id1, id2);
        assert_eq!(bytes1, frozen.weight_bytes());
        assert_eq!(m1.name(), "dl-2d");
    }

    #[test]
    fn solver_plugs_into_simulation_2d() {
        let grid = tiny_grid();
        let solver = untrained_solver(&grid, 0);
        let cfg = Pic2DConfig {
            grid,
            init: TwoStream2DInit::quiet(0.2, 0.0, 1024, 1e-3, 0),
            dt: 0.2,
            n_steps: 5,
            gather_shape: Shape::Cic,
            tracked_modes: vec![(1, 0)],
        };
        let mut sim = Simulation2D::new(cfg, Box::new(solver));
        sim.run();
        assert_eq!(sim.history().len(), 6);
        assert!(sim.history().total.iter().all(|e| e.is_finite()));
    }
}
