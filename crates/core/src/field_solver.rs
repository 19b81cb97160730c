//! The DL electric-field solver — the second grey box of the paper's
//! Fig. 2.
//!
//! Implements [`dlpic_pic::solver::FieldSolver`], so it drops into the same
//! [`dlpic_pic::simulation::Simulation`] as the traditional solver: the
//! interpolation step and particle mover are untouched, exactly as the
//! paper describes. Each PIC cycle it
//!
//! 1. bins the electron phase space into a 2-D histogram,
//! 2. normalizes it with the *training-set* min/max (paper Eq. 5),
//! 3. runs one network inference,
//! 4. writes the predicted electric field onto the grid nodes.
//!
//! The network runs as an `Arc`-shared [`FrozenModel`] — the one
//! inference path for both of the paper's architectures (MLP and CNN) —
//! so every solver minted from one model reads the same weights, and at
//! f32 the result is bit-identical to the trained `Sequential`'s own
//! forward pass.

use crate::builder::InputKind;
use crate::normalize::NormStats;
use crate::phase_space::{bin_phase_space, BinningShape, PhaseGridSpec};
use dlpic_nn::frozen::{FrozenModel, PredictWorkspace};
use dlpic_nn::tensor::Tensor;
use dlpic_pic::grid::Grid1D;
use dlpic_pic::particles::Particles;
use dlpic_pic::solver::{FieldSolver, PhasedFieldSolver};
use std::sync::Arc;

/// A neural-network-backed electric-field solver.
pub struct DlFieldSolver {
    model: Arc<FrozenModel>,
    spec: PhaseGridSpec,
    binning: BinningShape,
    norm: NormStats,
    input_kind: InputKind,
    name: &'static str,
    reference_mass: f32,
    scratch: Vec<f32>,
    out_scratch: Vec<f32>,
    input: Tensor,
    workspace: PredictWorkspace,
    /// Output width of the wrapped network, learned at the first
    /// inference (0 = not inferred yet). Every simulation performs its
    /// initial field solve during construction, so the value is known by
    /// the time an external scheduler asks.
    out_cells: usize,
}

impl DlFieldSolver {
    /// Wraps an `Arc`-shared frozen model (see
    /// [`dlpic_nn::Sequential::freeze`]): N solvers over one `Arc` read
    /// **one** weight allocation, so a fleet pays for the weights once.
    ///
    /// `norm` must be the statistics of the network's *training* inputs;
    /// `input_kind` must match the architecture (flat for MLP, image for
    /// CNN).
    pub fn new(
        model: Arc<FrozenModel>,
        spec: PhaseGridSpec,
        binning: BinningShape,
        norm: NormStats,
        input_kind: InputKind,
        name: &'static str,
    ) -> Self {
        Self {
            model,
            spec,
            binning,
            norm,
            input_kind,
            name,
            reference_mass: 0.0,
            scratch: vec![0.0f32; spec.cells()],
            out_scratch: Vec::new(),
            input: Tensor::zeros(&[0]),
            workspace: PredictWorkspace::new(),
            out_cells: 0,
        }
    }

    /// Sets the total histogram mass (= particle count) of the *training*
    /// histograms. When set (> 0), inference histograms are rescaled to
    /// this mass before normalization, so a model trained at one
    /// macro-particle count stays calibrated at any other — a count
    /// histogram is an extensive quantity, and Eq. 5's min–max statistics
    /// only transfer between runs of equal mass.
    pub fn with_reference_mass(mut self, mass: f32) -> Self {
        self.reference_mass = mass;
        self
    }

    /// The phase-grid geometry this solver bins into.
    pub fn spec(&self) -> &PhaseGridSpec {
        &self.spec
    }

    /// The binning order used for the phase-space histogram.
    pub fn binning(&self) -> BinningShape {
        self.binning
    }

    /// Completes a solve from a *raw* (unnormalized) histogram binned
    /// elsewhere: rescales it to the training mass, applies the
    /// training-set normalization (paper Eq. 5), runs inference and
    /// writes the field. `total_mass` is the histogram's total count.
    ///
    /// This is the distributed-memory path (crate `dlpic-ddecomp`): each
    /// rank bins its local particles, the summed global histogram arrives
    /// via an all-reduce, and every rank finishes the solve locally with
    /// its replicated network.
    ///
    /// # Panics
    /// Panics if the histogram size mismatches the phase grid or the
    /// network output width mismatches `e`.
    pub fn solve_from_raw_histogram(&mut self, histogram: &[f32], total_mass: f32, e: &mut [f64]) {
        assert_eq!(
            histogram.len(),
            self.spec.cells(),
            "histogram size mismatch"
        );
        self.scratch.clear();
        self.scratch.extend_from_slice(histogram);
        self.norm
            .apply_at_mass(&mut self.scratch, total_mass, self.reference_mass);
        self.infer_scratch_into(e);
    }

    /// Runs one inference from an already-binned, already-normalized
    /// histogram (the inner step of [`FieldSolver::solve`], exposed for
    /// benchmarking the pure inference cost).
    pub fn predict_from_histogram(&mut self, histogram: &[f32]) -> Vec<f32> {
        assert_eq!(
            histogram.len(),
            self.spec.cells(),
            "histogram size mismatch"
        );
        self.stage_input(histogram, 1);
        self.model
            .predict_into(&self.input, &mut self.workspace)
            .data()
            .to_vec()
    }

    /// Copies `rows` prepared histograms into the reusable input tensor
    /// with the architecture's batch shape.
    fn stage_input(&mut self, data: &[f32], rows: usize) {
        assert_eq!(data.len(), rows * self.spec.cells(), "batch input size");
        match self.input_kind {
            InputKind::Flat => self.input.resize_in_place(&[rows, self.spec.cells()]),
            InputKind::Image => self
                .input
                .resize_in_place(&[rows, 1, self.spec.nv, self.spec.nx]),
        }
        self.input.data_mut().copy_from_slice(data);
    }

    /// Inference + field write from the prepared `self.scratch` — phases
    /// 2–3 on the solver's own buffers (the in-process solo path of
    /// [`FieldSolver::solve`] and the distributed raw-histogram entry).
    fn infer_scratch_into(&mut self, e: &mut [f64]) {
        // `take` sidesteps the scratch-vs-self borrows without copying.
        let scratch = std::mem::take(&mut self.scratch);
        let mut out = std::mem::take(&mut self.out_scratch);
        out.resize(e.len(), 0.0);
        self.infer_batch(&scratch, 1, &mut out);
        self.apply_output(&out, e);
        self.scratch = scratch;
        self.out_scratch = out;
    }
}

impl FieldSolver for DlFieldSolver {
    fn solve(&mut self, particles: &Particles, grid: &Grid1D, e: &mut [f64]) {
        // The same three phases the ensemble scheduler drives externally:
        // prepare (bin + mass-rescale + normalize), one m = 1 inference,
        // apply. Allocation-free once the reusable buffers are warm, and
        // bit-identical to a batched solve of the same state (row-stable
        // GEMM kernels).
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.resize(self.spec.cells(), 0.0);
        self.prepare_input(particles, grid, &mut scratch);
        self.scratch = scratch;
        self.infer_scratch_into(e);
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn phased(&mut self) -> Option<&mut dyn PhasedFieldSolver> {
        Some(self)
    }

    fn weight_storage(&self) -> Option<(usize, usize)> {
        // Every sharer of one `Arc` reports the same id.
        Some((Arc::as_ptr(&self.model) as usize, self.model.weight_bytes()))
    }
}

impl PhasedFieldSolver for DlFieldSolver {
    fn input_len(&self) -> usize {
        self.spec.cells()
    }

    fn output_len(&self) -> usize {
        assert!(
            self.out_cells > 0,
            "output width is unknown before the first inference"
        );
        self.out_cells
    }

    fn prepare_input(&mut self, particles: &Particles, grid: &Grid1D, dst: &mut [f32]) {
        // 1-2. Bin, rescale to the training mass, and normalize (paper
        // Eq. 5) — everything `solve` does before the network.
        bin_phase_space(particles, grid, &self.spec, self.binning, dst);
        self.norm
            .apply_at_mass(dst, particles.len() as f32, self.reference_mass);
    }

    fn infer_batch(&mut self, input: &[f32], rows: usize, output: &mut [f32]) {
        // 3. One batched inference through the reusable input/activation
        // buffers (ping-pong workspace; allocation-free once warm).
        self.stage_input(input, rows);
        let pred = self.model.predict_into(&self.input, &mut self.workspace);
        assert_eq!(
            pred.len(),
            output.len(),
            "network output width {} does not match the requested {} values ({rows} rows)",
            pred.len(),
            output.len(),
        );
        output.copy_from_slice(pred.data());
        self.out_cells = pred.len() / rows;
    }

    fn apply_output(&mut self, row: &[f32], e: &mut [f64]) {
        // 4. Write the predicted electric field onto the grid nodes.
        assert_eq!(
            row.len(),
            e.len(),
            "network output width {} does not match grid cells {}",
            row.len(),
            e.len()
        );
        for (dst, &src) in e.iter_mut().zip(row) {
            *dst = src as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ArchSpec;
    use dlpic_nn::frozen::Precision;
    use dlpic_pic::init::TwoStreamInit;
    use dlpic_pic::simulation::{two_stream_config, Simulation};

    fn solver_for(
        arch: &ArchSpec,
        seed: u64,
        spec: PhaseGridSpec,
        name: &'static str,
    ) -> DlFieldSolver {
        DlFieldSolver::new(
            Arc::new(arch.build(seed).freeze(Precision::F32)),
            spec,
            BinningShape::Ngp,
            NormStats::identity(),
            arch.input_kind(),
            name,
        )
    }

    fn tiny_solver() -> DlFieldSolver {
        let spec = PhaseGridSpec::smoke();
        let arch = ArchSpec::Mlp {
            input: spec.cells(),
            hidden: vec![8],
            output: 64,
        };
        solver_for(&arch, 0, spec, "dl-mlp")
    }

    #[test]
    fn solver_writes_finite_field_of_grid_size() {
        let grid = Grid1D::paper();
        let p = TwoStreamInit::random(0.2, 0.0, 2_000, 1).build(&grid);
        let mut solver = tiny_solver();
        let mut e = grid.zeros();
        FieldSolver::solve(&mut solver, &p, &grid, &mut e);
        assert_eq!(e.len(), 64);
        assert!(e.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn plugs_into_the_shared_simulation_loop() {
        let init = TwoStreamInit::random(0.2, 0.0, 2_000, 2);
        let cfg = two_stream_config(init, 5);
        let mut sim = Simulation::new(cfg, Box::new(tiny_solver()));
        sim.run();
        assert_eq!(sim.history().len(), 6);
        assert_eq!(sim.solver_name(), "dl-mlp");
        assert!(sim.efield().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cnn_input_kind_reshapes_to_image() {
        let spec = PhaseGridSpec::new(16, 16, -0.8, 0.8);
        let arch = ArchSpec::Cnn {
            nv: 16,
            nx: 16,
            channels: (2, 2),
            kernel: 3,
            hidden: vec![16],
            output: 64,
        };
        let mut net = arch.build(1);
        let mut solver = solver_for(&arch, 1, spec, "dl-cnn");
        let hist: Vec<f32> = (0..spec.cells()).map(|i| (i as f32 * 0.37).sin()).collect();
        let out = solver.predict_from_histogram(&hist);
        let expect = net.predict(&Tensor::new(hist, &[1, 1, 16, 16]));
        assert_eq!(out.len(), 64);
        for (a, b) in out.iter().zip(expect.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn shared_solvers_are_bit_identical_to_sequential_predict() {
        let grid = Grid1D::paper();
        let spec = PhaseGridSpec::smoke();
        let p = TwoStreamInit::random(0.2, 0.01, 2_000, 9).build(&grid);
        let arch = ArchSpec::Mlp {
            input: spec.cells(),
            hidden: vec![8],
            output: 64,
        };
        let mut net = arch.build(4);
        let model = Arc::new(net.freeze(Precision::F32));
        let mk = |m: Arc<FrozenModel>| {
            DlFieldSolver::new(
                m,
                spec,
                BinningShape::Cic,
                NormStats::identity(),
                arch.input_kind(),
                "dl-mlp",
            )
        };
        let mut s1 = mk(Arc::clone(&model));
        let mut s2 = mk(model);

        let mut e1 = grid.zeros();
        let mut e2 = grid.zeros();
        FieldSolver::solve(&mut s1, &p, &grid, &mut e1);
        FieldSolver::solve(&mut s2, &p, &grid, &mut e2);
        // The reference: bin, then the trained network's own forward.
        let mut hist = vec![0.0f32; spec.cells()];
        bin_phase_space(&p, &grid, &spec, BinningShape::Cic, &mut hist);
        NormStats::identity().apply(&mut hist);
        let expect: Vec<f64> = net
            .predict(&Tensor::new(hist, &[1, spec.cells()]))
            .data()
            .iter()
            .map(|&v| v as f64)
            .collect();
        assert_eq!(e1, expect);
        assert_eq!(e1, e2);

        // Sharers report one weight allocation of the model's size.
        let (id1, b1) = FieldSolver::weight_storage(&s1).unwrap();
        let (id2, b2) = FieldSolver::weight_storage(&s2).unwrap();
        assert_eq!(id1, id2);
        assert_eq!(b1, b2);
        assert_eq!(b1, net.param_count() * 4);
    }

    #[test]
    #[should_panic(expected = "network output width")]
    fn output_width_mismatch_detected() {
        let spec = PhaseGridSpec::smoke();
        let arch = ArchSpec::Mlp {
            input: spec.cells(),
            hidden: vec![4],
            output: 32,
        };
        let mut solver = solver_for(&arch, 0, spec, "dl-mlp");
        let grid = Grid1D::paper(); // 64 cells ≠ 32 outputs
        let p = TwoStreamInit::random(0.2, 0.0, 100, 0).build(&grid);
        let mut e = grid.zeros();
        FieldSolver::solve(&mut solver, &p, &grid, &mut e);
    }
}
