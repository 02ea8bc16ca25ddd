//! Farneback dense optical flow via polynomial expansion.
//!
//! The algorithm follows Farneback's two-frame method (cited by the ASV paper
//! as the motion-estimation component of ISM): every local neighbourhood of
//! each frame is approximated by a quadratic polynomial using a
//! Gaussian-weighted least-squares fit; the displacement field is the one that
//! best explains how the polynomial coefficients move between the two frames.
//!
//! The implementation is deliberately structured as the three stages the paper
//! maps onto the accelerator (Sec. 3.3 and Fig. 8):
//!
//! 1. **Gaussian blur** — the polynomial expansion moments and the
//!    equation-system accumulation are separable Gaussian convolutions
//!    (`asv_image::gaussian`), which the hardware runs on the systolic array.
//! 2. **Matrix update** — a point-wise stage that assembles the 2×2 linear
//!    system `G d = h` from the two expansions and the current flow estimate.
//! 3. **Compute flow** — a point-wise stage that solves the 2×2 system per
//!    pixel.
//!
//! [`FlowOpBreakdown`] reports the arithmetic-operation split between those
//! stages so the performance model can reproduce the paper's "99 % of
//! Farneback is blur + two point-wise stages" claim.

use crate::field::{FlowError, FlowField};
use crate::Result;
use asv_image::gaussian::{blur_in_place, gaussian_kernel, separable_filter_into};
use asv_image::pyramid::Pyramid;
use asv_image::{Bilinear, Image};
use asv_trace::{KernelTimings, Stage};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Tuning parameters of the Farneback flow estimator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FarnebackParams {
    /// Number of pyramid levels for coarse-to-fine estimation.
    pub pyramid_levels: usize,
    /// Finest pyramid level the coarse-to-fine loop estimates on (0 is full
    /// resolution).  Above 0, the field of that level is resampled to frame
    /// size.  A level the pyramid did not build is clamped to the coarsest
    /// one it did, so a frame too small for level 1 runs at full size.
    pub finest_level: usize,
    /// Standard deviation of the Gaussian applicability window used by the
    /// polynomial expansion.
    pub poly_sigma: f32,
    /// Standard deviation of the Gaussian used to aggregate the per-pixel
    /// linear systems (the "Gaussian blur" stage).
    pub blur_sigma: f32,
    /// Number of fixed-point iterations per pyramid level.
    pub iterations: usize,
    /// Minimum pyramid level size in pixels.
    pub min_level_size: usize,
}

impl Default for FarnebackParams {
    fn default() -> Self {
        Self {
            pyramid_levels: 3,
            finest_level: 0,
            poly_sigma: 1.2,
            blur_sigma: 2.0,
            iterations: 3,
            min_level_size: 12,
        }
    }
}

impl FarnebackParams {
    /// The flow ISM propagates correspondences with, and the one the
    /// accelerator cost model prices (`asv_accel::ism::NonKeyFrameConfig`):
    /// two iterations on pyramid levels 2 and 1 (quarter and half
    /// resolution), resampled to frame size.  Propagated correspondences
    /// only seed a narrow block-matching refinement, which absorbs the
    /// residual motion error, so coarse motion suffices (Sec. 3.2, step 4).
    pub fn ism() -> Self {
        Self {
            pyramid_levels: 3,
            finest_level: 1,
            iterations: 2,
            ..Self::default()
        }
    }
}

/// Quadratic polynomial expansion of an image: per pixel the local signal is
/// modelled as `f(δ) ≈ δᵀ A δ + bᵀ δ + c` with `A = [[a11, a12], [a12, a22]]`
/// and `b = [b1, b2]`.
#[derive(Debug, Clone)]
pub struct PolyExpansion {
    a11: Image,
    a12: Image,
    a22: Image,
    b1: Image,
    b2: Image,
}

impl PolyExpansion {
    /// Width of the expanded image.
    pub fn width(&self) -> usize {
        self.a11.width()
    }

    /// Height of the expanded image.
    pub fn height(&self) -> usize {
        self.a11.height()
    }

    /// The five coefficient planes, in the order `a11, a12, a22, b1, b2`.
    fn planes(&self) -> [&Image; 5] {
        [&self.a11, &self.a12, &self.a22, &self.b1, &self.b2]
    }

    /// An empty expansion (0×0 planes, no allocation); populated by
    /// [`polynomial_expansion_into`].
    fn empty() -> Self {
        Self {
            a11: Image::default(),
            a12: Image::default(),
            a22: Image::default(),
            b1: Image::default(),
            b2: Image::default(),
        }
    }
}

/// Kernels and matrices derived purely from the flow parameters, cached so
/// the steady state of a stream never recomputes (or re-allocates) them.
#[derive(Debug)]
struct KernelCache {
    /// Sigma the moment kernels and `ginv` were built for.
    poly_for: Option<f32>,
    /// 1-D moment filters `w(x) · x^p` for p = 0, 1, 2.
    k0: Vec<f32>,
    k1: Vec<f32>,
    k2: Vec<f32>,
    ginv: [[f64; 6]; 6],
    /// Sigma the aggregation-blur kernel was built for.
    blur_for: Option<f32>,
    blur: Vec<f32>,
    /// Sigma-1.0 kernel of the pyramid's level-to-level smoothing.
    pyramid: Vec<f32>,
}

impl KernelCache {
    fn empty() -> Self {
        Self {
            poly_for: None,
            k0: Vec::new(),
            k1: Vec::new(),
            k2: Vec::new(),
            ginv: [[0.0; 6]; 6],
            blur_for: None,
            blur: Vec::new(),
            pyramid: Vec::new(),
        }
    }

    /// Rebuilds the moment kernels and the normal-matrix inverse when
    /// `sigma` differs from the cached one.
    fn ensure_poly(&mut self, sigma: f32) {
        if self.poly_for == Some(sigma) {
            return;
        }
        let kernel = gaussian_kernel(sigma);
        let radius = (kernel.len() / 2) as isize;
        self.k1 = kernel
            .iter()
            .enumerate()
            .map(|(i, &w)| w * (i as isize - radius) as f32)
            .collect(); // lint: alloc-ok(kernel-cache fill, amortized)
        self.k2 = kernel
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let d = (i as isize - radius) as f32;
                w * d * d
            })
            .collect(); // lint: alloc-ok(kernel-cache fill, amortized)

        // The zeroth moment filter is the kernel itself; it is moved, not
        // cloned.
        self.k0 = kernel;
        self.ginv = normal_matrix_inverse(sigma);
        self.poly_for = Some(sigma);
    }

    /// Rebuilds the aggregation-blur kernel when `sigma` differs from the
    /// cached one.
    fn ensure_blur(&mut self, sigma: f32) {
        if self.blur_for == Some(sigma) {
            return;
        }
        self.blur = gaussian_kernel(sigma);
        self.blur_for = Some(sigma);
    }

    /// Bytes held by the cached 1-D kernels.
    fn retained_bytes(&self) -> usize {
        [&self.k0, &self.k1, &self.k2, &self.blur, &self.pyramid]
            .iter()
            .map(|k| k.capacity() * std::mem::size_of::<f32>())
            .sum()
    }

    /// Builds the pyramid smoothing kernel once.
    fn ensure_pyramid(&mut self) {
        if self.pyramid.is_empty() {
            self.pyramid = gaussian_kernel(1.0);
        }
    }
}

/// Reusable scratch for one Farneback flow estimation: pyramids, polynomial
/// expansions, the per-iteration matrix/blur planes and the flow double
/// buffer.
///
/// A fresh workspace performs no allocation; the first
/// [`farneback_flow_with`] call sizes every buffer and subsequent calls on
/// same-sized frames reuse them, making steady-state flow estimation
/// allocation-free.  Hold one workspace per camera view (the ISM pipeline
/// holds two, one for the left and one for the right stream).
#[derive(Debug)]
pub struct FlowWorkspace {
    kernels: KernelCache,
    pyr0: Pyramid,
    pyr1: Pyramid,
    exp0: PolyExpansion,
    exp1: PolyExpansion,
    /// The six weighted moment projections of the expansion.
    moments: [Image; 6],
    /// Interleaved per-pixel solve buffer of the expansion's row-parallel
    /// solve.
    solve: Vec<[f32; 5]>,
    tmp: Image,
    tmp2: Image,
    /// The per-pixel system `G d = h` of the matrix update, as the planes
    /// `g11, g12, g22, h1, h2`.
    system: [Image; 5],
    /// Flow double buffer; after a successful [`farneback_flow_with`] call
    /// `flow_a` holds the final estimate.
    flow_a: FlowField,
    flow_b: FlowField,
    /// Per-call kernel timings, staged here so they survive execution on a
    /// pool worker thread (the ISM pipeline runs the two flow directions
    /// under `rayon::join`) and can be harvested by the calling thread's
    /// tracer.  Cleared at the start of every [`farneback_flow_with`] call.
    pub timings: KernelTimings,
}

impl FlowWorkspace {
    /// Creates an empty workspace (no allocation until first use).
    pub fn new() -> Self {
        Self {
            kernels: KernelCache::empty(),
            pyr0: Pyramid::empty(),
            pyr1: Pyramid::empty(),
            exp0: PolyExpansion::empty(),
            exp1: PolyExpansion::empty(),
            moments: std::array::from_fn(|_| Image::default()),
            solve: Vec::new(),
            tmp: Image::default(),
            tmp2: Image::default(),
            system: std::array::from_fn(|_| Image::default()),
            flow_a: FlowField::zeros(0, 0),
            flow_b: FlowField::zeros(0, 0),
            timings: KernelTimings::new(),
        }
    }

    /// The flow estimated by the most recent [`farneback_flow_with`] call.
    pub fn flow(&self) -> &FlowField {
        &self.flow_a
    }

    /// Moves the most recent flow out of the workspace (leaving an empty
    /// field behind; the next call re-warms the buffer).
    pub fn take_flow(&mut self) -> FlowField {
        std::mem::replace(&mut self.flow_a, FlowField::zeros(0, 0))
    }

    /// Bytes currently retained by the workspace: both pyramids, both
    /// expansions, the moment, system and temporary planes, the solve
    /// buffer, the flow double buffer and the cached kernels.
    pub fn retained_bytes(&self) -> usize {
        let planes = [&self.pyr0, &self.pyr1]
            .into_iter()
            .flat_map(Pyramid::iter_coarse_to_fine)
            .chain(self.exp0.planes())
            .chain(self.exp1.planes())
            .chain(&self.moments)
            .chain(&self.system)
            .chain([&self.tmp, &self.tmp2])
            .chain(
                [&self.flow_a, &self.flow_b]
                    .into_iter()
                    .flat_map(|f| [f.u(), f.v()]),
            );
        planes.map(Image::retained_bytes).sum::<usize>()
            + self.solve.capacity() * std::mem::size_of::<[f32; 5]>()
            + self.kernels.retained_bytes()
    }
}

impl Default for FlowWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

/// Inverts the symmetric 6×6 normal-equation matrix of the Gaussian-weighted
/// quadratic basis.  Because the Gaussian window is separable and symmetric,
/// the matrix is sparse and can be inverted in closed form through small
/// blocks; for clarity we instead build it explicitly and invert numerically
/// with Gauss-Jordan elimination (it is only 6×6 and computed once per call).
fn normal_matrix_inverse(sigma: f32) -> [[f64; 6]; 6] {
    let kernel = gaussian_kernel(sigma);
    let radius = (kernel.len() / 2) as isize;
    // Basis order: [1, x, y, x^2, y^2, xy].
    let mut g = [[0.0f64; 6]; 6];
    for (iy, wy) in kernel.iter().enumerate() {
        let dy = iy as isize - radius;
        for (ix, wx) in kernel.iter().enumerate() {
            let dx = ix as isize - radius;
            let w = (*wy as f64) * (*wx as f64);
            let b = basis(dx as f64, dy as f64);
            for j in 0..6 {
                for k in 0..6 {
                    g[j][k] += w * b[j] * b[k];
                }
            }
        }
    }
    invert6(&g)
}

fn basis(x: f64, y: f64) -> [f64; 6] {
    [1.0, x, y, x * x, y * y, x * y]
}

/// Gauss-Jordan inversion of a 6×6 matrix.  Panics only if the matrix is
/// singular, which cannot happen for a Gaussian window with positive sigma.
fn invert6(m: &[[f64; 6]; 6]) -> [[f64; 6]; 6] {
    let mut a = *m;
    let mut inv = [[0.0f64; 6]; 6];
    for (i, row) in inv.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for col in 0..6 {
        // Partial pivoting for numerical stability.
        let mut pivot = col;
        for row in col + 1..6 {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        a.swap(col, pivot);
        inv.swap(col, pivot);
        let p = a[col][col];
        assert!(p.abs() > 1e-12, "normal matrix is singular");
        for k in 0..6 {
            a[col][k] /= p;
            inv[col][k] /= p;
        }
        for row in 0..6 {
            if row == col {
                continue;
            }
            let f = a[row][col];
            if f == 0.0 {
                continue;
            }
            for k in 0..6 {
                a[row][k] -= f * a[col][k];
                inv[row][k] -= f * inv[col][k];
            }
        }
    }
    inv
}

/// Computes the quadratic polynomial expansion of an image.
///
/// # Errors
///
/// Returns [`FlowError::InvalidParameter`] for an empty image or non-positive
/// sigma.
pub fn polynomial_expansion(image: &Image, sigma: f32) -> Result<PolyExpansion> {
    let mut kernels = KernelCache::empty();
    let mut moments = std::array::from_fn(|_| Image::default());
    let mut tmp = Image::default();
    let mut solve = Vec::new();
    let mut out = PolyExpansion::empty();
    polynomial_expansion_into(
        image,
        sigma,
        &mut kernels,
        &mut moments,
        &mut tmp,
        &mut solve,
        &mut out,
    )?;
    Ok(out)
}

/// [`polynomial_expansion`] writing into reusable buffers: the kernel cache,
/// the six moment planes, one convolution intermediate, the interleaved
/// per-pixel solve buffer (used by the parallel driver) and the output
/// expansion.  Identical output, no allocation once the buffers are warm.
#[allow(clippy::too_many_arguments)]
fn polynomial_expansion_into(
    image: &Image,
    sigma: f32,
    kernels: &mut KernelCache,
    moments: &mut [Image; 6],
    tmp: &mut Image,
    solve: &mut Vec<[f32; 5]>,
    out: &mut PolyExpansion,
) -> Result<()> {
    if image.is_empty() {
        return Err(FlowError::invalid_parameter("cannot expand an empty image"));
    }
    if sigma <= 0.0 {
        return Err(FlowError::invalid_parameter("poly_sigma must be positive"));
    }
    kernels.ensure_poly(sigma);
    let (k0, k1, k2) = (&kernels.k0, &kernels.k1, &kernels.k2);

    // Projection of the image on the weighted basis: v_k = Σ w · b_k · f,
    // in basis order [1, x, y, x², y², xy].
    let [v0, v1, v2, v3, v4, v5] = moments;
    separable_filter_into(image, k0, k0, tmp, v0);
    separable_filter_into(image, k1, k0, tmp, v1);
    separable_filter_into(image, k0, k1, tmp, v2);
    separable_filter_into(image, k2, k0, tmp, v3);
    separable_filter_into(image, k0, k2, tmp, v4);
    separable_filter_into(image, k1, k1, tmp, v5);

    let ginv = kernels.ginv;
    let width = image.width();
    let height = image.height();
    // Every plane pixel is assigned by the solve below, so no fill.
    out.b1.reshape_scratch(width, height);
    out.b2.reshape_scratch(width, height);
    out.a11.reshape_scratch(width, height);
    out.a22.reshape_scratch(width, height);
    out.a12.reshape_scratch(width, height);

    // Point-wise 6x6 solve per pixel. Rows are independent and are computed
    // on the rayon pool (this stage is the non-convolution hot spot of the
    // expansion).
    let moments: [&Image; 6] = [v0, v1, v2, v3, v4, v5];
    let solve_pixel = |rows: &[&[f32]; 6], x: usize| -> [f32; 5] {
        let mut r = [0.0f64; 6];
        for (j, rj) in r.iter_mut().enumerate() {
            for (k, row) in rows.iter().enumerate() {
                *rj += ginv[j][k] * row[x] as f64;
            }
        }
        // r = [c, b1, b2, a11, a22, 2*a12-ish]; basis order
        // [1, x, y, x², y², xy].
        [
            r[1] as f32,
            r[2] as f32,
            r[3] as f32,
            r[4] as f32,
            (r[5] / 2.0) as f32,
        ]
    };

    // Rows are solved on the pool straight into the retained interleaved
    // buffer (one `[f32; 5]` cell per pixel), so the steady state is
    // allocation-free.
    solve.resize(width * height, [0.0; 5]);
    solve
        .par_chunks_mut(width)
        .enumerate()
        .for_each(|(y, row)| {
            let rows: [&[f32]; 6] =
                std::array::from_fn(|m| &moments[m].as_slice()[y * width..][..width]);
            for (x, cell) in row.iter_mut().enumerate() {
                *cell = solve_pixel(&rows, x);
            }
        });
    // Single de-interleaving pass into the five output planes.
    let mut planes = [
        out.b1.as_mut_slice(),
        out.b2.as_mut_slice(),
        out.a11.as_mut_slice(),
        out.a22.as_mut_slice(),
        out.a12.as_mut_slice(),
    ];
    for (y, row) in solve.chunks_exact(width).enumerate() {
        let base = y * width;
        for (x, cell) in row.iter().enumerate() {
            for (plane, value) in planes.iter_mut().zip(cell) {
                plane[base + x] = *value;
            }
        }
    }
    Ok(())
}

/// One Farneback displacement refinement at a single scale, writing into
/// reusable buffers.
///
/// Implements the matrix-update stage (assembling `G`, `h` per pixel), the
/// Gaussian-blur aggregation and the compute-flow stage (solving the 2×2
/// system) described in the module documentation.  `system` holds the five
/// planes of `G d = h` (blurred in place with `tmp` as intermediate) and
/// `out` receives the refined flow.  Every stage runs over row or plane
/// slices, with each pixel's arithmetic in a fixed order.
fn refine_displacement_into(
    exp0: &PolyExpansion,
    exp1: &PolyExpansion,
    prior: &FlowField,
    blur_kernel: &[f32],
    system: &mut [Image; 5],
    tmp: &mut Image,
    out: &mut FlowField,
) {
    let (width, height) = (exp0.width(), exp0.height());
    let (prior_u, prior_v) = (prior.u().as_slice(), prior.v().as_slice());
    let exp0 = exp0.planes().map(Image::as_slice);
    let exp1 = exp1.planes().map(Image::as_slice);

    // --- Matrix update (point-wise; assigns every pixel of all five planes) ---
    for g in system.iter_mut() {
        g.reshape_scratch(width, height);
    }
    for y in 0..height {
        let (start, end) = (y * width, (y + 1) * width);
        let (pu, pv) = (&prior_u[start..end], &prior_v[start..end]);
        let [a11_0, a12_0, a22_0, b1_0, b2_0] = exp0.map(|p| &p[start..end]);
        let [g11, g12, g22, h1, h2] = system.each_mut().map(|g| &mut g.as_mut_slice()[start..end]);
        for x in 0..width {
            let (du, dv) = (pu[x], pv[x]);
            // One bilinear footprint at the displaced position samples all
            // five planes of the second frame's expansion.
            let at = Bilinear::new(width, height, x as f32 + du, y as f32 + dv);
            let [a11_1, a12_1, a22_1, b1_1, b2_1] = exp1.map(|p| at.sample(p));
            // Average the quadratic terms of the two expansions.
            let a11 = 0.5 * (a11_0[x] + a11_1);
            let a12 = 0.5 * (a12_0[x] + a12_1);
            let a22 = 0.5 * (a22_0[x] + a22_1);
            let db1 = -0.5 * (b1_1 - b1_0[x]) + a11 * du + a12 * dv;
            let db2 = -0.5 * (b2_1 - b2_0[x]) + a12 * du + a22 * dv;
            // Normal equations of A d = Δb.
            g11[x] = a11 * a11 + a12 * a12;
            g12[x] = a11 * a12 + a12 * a22;
            g22[x] = a12 * a12 + a22 * a22;
            h1[x] = a11 * db1 + a12 * db2;
            h2[x] = a12 * db1 + a22 * db2;
        }
    }

    // --- Gaussian blur aggregation (convolution) ---
    for g in system.iter_mut() {
        blur_in_place(g, blur_kernel, tmp);
    }

    // --- Compute flow (point-wise 2x2 solve; assigns every pixel) ---
    out.reshape_scratch(width, height);
    let (out_u, out_v) = out.components_mut();
    let [g11, g12, g22, h1, h2] = system.each_ref().map(Image::as_slice);
    for i in 0..width * height {
        let (a, b, c) = (g11[i], g12[i], g22[i]);
        let det = a * c - b * b;
        // A singular system keeps the prior displacement.
        (out_u[i], out_v[i]) = if det.abs() < 1e-9 {
            (prior_u[i], prior_v[i])
        } else {
            ((c * h1[i] - b * h2[i]) / det, (a * h2[i] - b * h1[i]) / det)
        };
    }
}

/// Estimates the dense optical flow from `frame0` to `frame1`.
///
/// Coarse-to-fine estimation runs from the coarsest pyramid level down to
/// [`FarnebackParams::finest_level`], clamped to the coarsest level the
/// pyramid built; a field estimated above level 0 is resampled to frame size
/// with [`FlowField::resample`].
///
/// # Errors
///
/// Returns [`FlowError::FrameMismatch`] when the two frames differ in size
/// and [`FlowError::InvalidParameter`] for degenerate parameters.
pub fn farneback_flow(
    frame0: &Image,
    frame1: &Image,
    params: &FarnebackParams,
) -> Result<FlowField> {
    let mut ws = FlowWorkspace::new();
    farneback_flow_with(&mut ws, frame0, frame1, params)?;
    Ok(ws.take_flow())
}

/// [`farneback_flow`] threading a reusable [`FlowWorkspace`]: identical
/// output, zero heap allocations once the workspace is warm (same-sized
/// frames).  The estimated flow is left in the workspace, readable through
/// [`FlowWorkspace::flow`].
///
/// # Errors
///
/// Same conditions as [`farneback_flow`].
pub fn farneback_flow_with(
    ws: &mut FlowWorkspace,
    frame0: &Image,
    frame1: &Image,
    params: &FarnebackParams,
) -> Result<()> {
    if frame0.width() != frame1.width() || frame0.height() != frame1.height() {
        // lint: alloc-ok(error path)
        return Err(FlowError::frame_mismatch(format!(
            "{}x{} vs {}x{}",
            frame0.width(),
            frame0.height(),
            frame1.width(),
            frame1.height()
        )));
    }
    if frame0.is_empty() {
        return Err(FlowError::invalid_parameter(
            "cannot compute flow of empty frames",
        ));
    }
    if params.iterations == 0 || params.pyramid_levels == 0 {
        return Err(FlowError::invalid_parameter(
            "iterations and pyramid_levels must be non-zero",
        ));
    }
    ws.timings.clear();
    ws.kernels.ensure_pyramid();
    let pyramid_started = std::time::Instant::now();
    ws.pyr0
        .rebuild(
            frame0,
            params.pyramid_levels,
            params.min_level_size,
            &ws.kernels.pyramid,
            &mut ws.tmp,
            &mut ws.tmp2,
        )
        .map_err(FlowError::invalid_parameter)?;
    ws.pyr1
        .rebuild(
            frame1,
            params.pyramid_levels,
            params.min_level_size,
            &ws.kernels.pyramid,
            &mut ws.tmp,
            &mut ws.tmp2,
        )
        .map_err(FlowError::invalid_parameter)?;
    ws.timings.record(
        Stage::PyramidBuild,
        pyramid_started,
        pyramid_started.elapsed(),
        1,
    );
    ws.kernels.ensure_blur(params.blur_sigma);
    let levels = ws.pyr0.num_levels().min(ws.pyr1.num_levels());
    let finest = params.finest_level.min(levels - 1);

    let mut first = true;
    for level in (finest..levels).rev() {
        // Split the workspace into its disjoint pieces so each stage can
        // borrow what it needs.
        let FlowWorkspace {
            kernels,
            pyr0,
            pyr1,
            exp0,
            exp1,
            moments,
            solve,
            tmp,
            tmp2,
            system,
            flow_a,
            flow_b,
            ..
        } = ws;
        let im0 = pyr0.level(level);
        let im1 = pyr1.level(level);
        polynomial_expansion_into(im0, params.poly_sigma, kernels, moments, tmp, solve, exp0)?;
        polynomial_expansion_into(im1, params.poly_sigma, kernels, moments, tmp, solve, exp1)?;
        if first {
            flow_a.reset_zeros(im0.width(), im0.height());
            first = false;
        } else {
            flow_a.resample_into(im0.width(), im0.height(), flow_b);
            std::mem::swap(flow_a, flow_b);
        }
        for _ in 0..params.iterations {
            refine_displacement_into(exp0, exp1, flow_a, &kernels.blur, system, tmp2, flow_b);
            std::mem::swap(flow_a, flow_b);
        }
    }
    if finest > 0 {
        ws.flow_a
            .resample_into(frame0.width(), frame0.height(), &mut ws.flow_b);
        std::mem::swap(&mut ws.flow_a, &mut ws.flow_b);
    }
    // The frame-size flow sits in `flow_a` after the last swap; both
    // double-buffer fields keep their capacity for the next call, so the
    // steady state never re-allocates.
    Ok(())
}

/// Arithmetic-operation breakdown of one Farneback flow computation, split
/// into the three stages the ASV hardware distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowOpBreakdown {
    /// Operations spent in Gaussian-blur style separable convolutions.
    pub blur_ops: u64,
    /// Operations spent solving the polynomial-expansion normal equations
    /// (a per-pixel 6×6 back-substitution, expressible as a 1×1 convolution).
    pub expansion_solve_ops: u64,
    /// Operations spent in the point-wise matrix-update stage.
    pub matrix_update_ops: u64,
    /// Operations spent in the point-wise compute-flow stage.
    pub compute_flow_ops: u64,
}

impl FlowOpBreakdown {
    /// Total operations across all stages.
    pub fn total(&self) -> u64 {
        self.blur_ops + self.expansion_solve_ops + self.matrix_update_ops + self.compute_flow_ops
    }

    /// Fraction of operations that are convolutions (blur).
    pub fn blur_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.blur_ops as f64 / self.total() as f64
        }
    }
}

/// The level sizes [`Pyramid::rebuild`] builds for a `width × height` frame:
/// level 0 always, then halvings while both halves stay at least
/// `min_level_size` (and at least 1), up to `pyramid_levels` levels.
fn pyramid_level_sizes(
    width: usize,
    height: usize,
    params: &FarnebackParams,
) -> impl Iterator<Item = (usize, usize)> {
    let min = params.min_level_size.max(1);
    std::iter::successors(Some((width, height)), move |&(w, h)| {
        (w / 2 >= min && h / 2 >= min).then_some((w / 2, h / 2))
    })
    .take(params.pyramid_levels)
}

/// Analytical operation count of [`farneback_flow`] for a frame of the given
/// size, mirroring the loop structure of the implementation over the levels
/// it estimates on: those its pyramid builds, from the coarsest down to the
/// clamped [`FarnebackParams::finest_level`].
pub fn farneback_op_breakdown(
    width: usize,
    height: usize,
    params: &FarnebackParams,
) -> FlowOpBreakdown {
    let mut blur = 0u64;
    let mut expansion = 0u64;
    let mut matrix = 0u64;
    let mut solve = 0u64;
    let poly_taps = gaussian_kernel(params.poly_sigma).len() as u64;
    let blur_taps = gaussian_kernel(params.blur_sigma).len() as u64;
    let built = pyramid_level_sizes(width, height, params).count();
    let finest = params.finest_level.min(built.saturating_sub(1));
    for (w, h) in pyramid_level_sizes(width, height, params).skip(finest) {
        let pixels = (w * h) as u64;
        // Polynomial expansion: 6 separable moment filters per frame, 2 frames,
        // each separable filter is 2 passes of `taps` MACs per pixel, plus the
        // 6x6 back-substitution (36 MACs) per pixel and frame.
        blur += 2 * 6 * 2 * poly_taps * pixels;
        expansion += 2 * 36 * pixels;
        for _iter in 0..params.iterations {
            // Matrix update: ~30 arithmetic ops per pixel.
            matrix += 30 * pixels;
            // Aggregation: 5 separable blurs.
            blur += 5 * 2 * blur_taps * pixels;
            // Compute flow: 2x2 solve, ~12 ops per pixel.
            solve += 12 * pixels;
        }
    }
    FlowOpBreakdown {
        blur_ops: blur,
        expansion_solve_ops: expansion,
        matrix_update_ops: matrix,
        compute_flow_ops: solve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_image::warp::translate;

    fn textured(width: usize, height: usize) -> Image {
        Image::from_fn(width, height, |x, y| {
            let fx = x as f32 * 0.35;
            let fy = y as f32 * 0.23;
            (fx.sin() * fy.cos() + ((x * 7 + y * 13) % 11) as f32 * 0.05) * 0.5 + 0.5
        })
    }

    #[test]
    fn normal_matrix_inverse_is_inverse() {
        let kernel_sigma = 1.2;
        let ginv = normal_matrix_inverse(kernel_sigma);
        // Rebuild G and check G * Ginv ≈ I.
        let kernel = gaussian_kernel(kernel_sigma);
        let radius = (kernel.len() / 2) as isize;
        let mut g = [[0.0f64; 6]; 6];
        for (iy, wy) in kernel.iter().enumerate() {
            for (ix, wx) in kernel.iter().enumerate() {
                let b = basis((ix as isize - radius) as f64, (iy as isize - radius) as f64);
                for j in 0..6 {
                    for k in 0..6 {
                        g[j][k] += (*wy as f64) * (*wx as f64) * b[j] * b[k];
                    }
                }
            }
        }
        // `j` walks columns of `ginv`, so an iterator form would obscure the
        // matrix product being checked.
        #[allow(clippy::needless_range_loop)]
        for (i, grow) in g.iter().enumerate() {
            for j in 0..6 {
                let mut acc = 0.0;
                for (k, gik) in grow.iter().enumerate() {
                    acc += gik * ginv[k][j];
                }
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((acc - expected).abs() < 1e-6, "({i},{j}) = {acc}");
            }
        }
    }

    #[test]
    fn retained_bytes_counts_every_plane() {
        let mut ws = FlowWorkspace::new();
        assert_eq!(ws.retained_bytes(), 0);
        let frame0 = textured(64, 48);
        let frame1 = translate(&frame0, 2, 1);
        farneback_flow_with(&mut ws, &frame0, &frame1, &FarnebackParams::default()).unwrap();
        // At least the full-resolution level of both pyramids, both
        // expansions' five planes, the six moments and five system planes,
        // and the flow double buffer.
        let plane = 64 * 48 * std::mem::size_of::<f32>();
        assert!(ws.retained_bytes() >= (2 + 2 * 5 + 6 + 5 + 4) * plane);
        assert_eq!(FlowWorkspace::new().retained_bytes(), 0);
    }

    #[test]
    fn expansion_of_linear_ramp_recovers_gradient() {
        // f(x, y) = 2x + 3y has b = (2, 3) and A = 0 in the interior.
        let img = Image::from_fn(32, 32, |x, y| 2.0 * x as f32 + 3.0 * y as f32);
        let exp = polynomial_expansion(&img, 1.2).unwrap();
        assert!((exp.b1.at(16, 16) - 2.0).abs() < 1e-3);
        assert!((exp.b2.at(16, 16) - 3.0).abs() < 1e-3);
        assert!(exp.a11.at(16, 16).abs() < 1e-3);
        assert!(exp.a22.at(16, 16).abs() < 1e-3);
    }

    #[test]
    fn expansion_of_quadratic_recovers_curvature() {
        // f(x, y) = (x - 16)^2 has a11 = 1 in the interior.
        let img = Image::from_fn(32, 32, |x, _| {
            let d = x as f32 - 16.0;
            d * d
        });
        let exp = polynomial_expansion(&img, 1.5).unwrap();
        assert!((exp.a11.at(16, 16) - 1.0).abs() < 1e-2);
        assert!(exp.a22.at(16, 16).abs() < 1e-2);
    }

    #[test]
    fn expansion_rejects_bad_inputs() {
        assert!(polynomial_expansion(&Image::default(), 1.0).is_err());
        assert!(polynomial_expansion(&Image::filled(8, 8, 1.0), 0.0).is_err());
    }

    #[test]
    fn flow_recovers_horizontal_translation() {
        let frame0 = textured(64, 48);
        let frame1 = translate(&frame0, 3, 0);
        let flow = farneback_flow(&frame0, &frame1, &FarnebackParams::default()).unwrap();
        assert!(
            (flow.median_u() - 3.0).abs() < 1.0,
            "median u = {}",
            flow.median_u()
        );
        assert!(
            flow.median_v().abs() < 1.0,
            "median v = {}",
            flow.median_v()
        );
    }

    #[test]
    fn flow_recovers_diagonal_translation() {
        let frame0 = textured(64, 64);
        let frame1 = translate(&frame0, 2, 1);
        let flow = farneback_flow(&frame0, &frame1, &FarnebackParams::default()).unwrap();
        assert!(
            (flow.median_u() - 2.0).abs() < 1.0,
            "median u = {}",
            flow.median_u()
        );
        assert!(
            (flow.median_v() - 1.0).abs() < 1.0,
            "median v = {}",
            flow.median_v()
        );
    }

    #[test]
    fn zero_motion_produces_near_zero_flow() {
        let frame = textured(48, 48);
        let flow = farneback_flow(&frame, &frame, &FarnebackParams::default()).unwrap();
        assert!(flow.median_u().abs() < 0.1);
        assert!(flow.median_v().abs() < 0.1);
    }

    #[test]
    fn flow_validates_inputs() {
        let a = Image::filled(32, 32, 0.0);
        let b = Image::filled(16, 32, 0.0);
        assert!(farneback_flow(&a, &b, &FarnebackParams::default()).is_err());
        let bad = FarnebackParams {
            iterations: 0,
            ..FarnebackParams::default()
        };
        assert!(farneback_flow(&a, &a, &bad).is_err());
        assert!(farneback_flow(
            &Image::default(),
            &Image::default(),
            &FarnebackParams::default()
        )
        .is_err());
    }

    /// SplitMix64: a seeded, dependency-free source of test inputs.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `[0, 1)` drawn from `state`.
    fn unit(state: &mut u64) -> f32 {
        (splitmix(state) >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Two octaves of smoothstep value noise over a seeded lattice, built
    /// from `+ - * /` only so the input bits do not depend on a libm.
    fn value_noise(seed: u64, x: f32, y: f32) -> f32 {
        let octave = |cell: f32, salt: u64| {
            let (gx, gy) = (x / cell, y / cell);
            let (x0, y0) = (gx.floor(), gy.floor());
            let smooth = |t: f32| t * t * (3.0 - 2.0 * t);
            let (fx, fy) = (smooth(gx - x0), smooth(gy - y0));
            let lattice = |ix: f32, iy: f32| {
                let mut s = seed ^ salt ^ ((ix as i64 as u64) << 32) ^ (iy as i64 as u64);
                unit(&mut s)
            };
            let top = lattice(x0, y0) * (1.0 - fx) + lattice(x0 + 1.0, y0) * fx;
            let bottom = lattice(x0, y0 + 1.0) * (1.0 - fx) + lattice(x0 + 1.0, y0 + 1.0) * fx;
            top * (1.0 - fy) + bottom * fy
        };
        0.7 * octave(7.0, 0x51) + 0.3 * octave(2.5, 0xa7)
    }

    /// A seeded frame pair whose true motion is non-integer and varies
    /// across the frame (an affine field), so sampling lands between pixels
    /// and, near the edges, outside the frame.
    fn seeded_pair(width: usize, height: usize, seed: u64) -> (Image, Image) {
        let mut s = seed;
        let u0 = 3.0 * unit(&mut s) - 1.5;
        let v0 = 3.0 * unit(&mut s) - 1.5;
        let (ux, uy) = (unit(&mut s) - 0.5, unit(&mut s) - 0.5);
        let (vx, vy) = (unit(&mut s) - 0.5, unit(&mut s) - 0.5);
        let (w, h) = (width as f32, height as f32);
        let frame0 = Image::from_fn(width, height, |x, y| value_noise(seed, x as f32, y as f32));
        let frame1 = Image::from_fn(width, height, |x, y| {
            let (xf, yf) = (x as f32, y as f32);
            let u = u0 + 2.0 * (ux * xf / w + uy * yf / h);
            let v = v0 + 2.0 * (vx * xf / w + vy * yf / h);
            value_noise(seed, xf - u, yf - v)
        });
        (frame0, frame1)
    }

    /// 64-bit FNV-1a over the bit patterns of the given planes.
    fn fnv1a(planes: &[&Image]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for plane in planes {
            for value in plane.as_slice() {
                for byte in value.to_bits().to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        hash
    }

    /// Pins the exact output bits of the flow and of one expansion.  A kernel
    /// rewrite that claims byte-identical output must leave these hashes
    /// alone; an output-changing one must be gated on accuracy instead.  The
    /// Gaussian kernels use the platform `exp`, so the values assume an IEEE
    /// `expf` that rounds as the common libms do.  The flow runs with
    /// `finest_level: 0`; the test below ties the coarser levels to it.
    #[test]
    fn flow_and_expansion_bits_are_pinned() {
        let params = FarnebackParams::default();
        let mut hashes = Vec::new();
        for (width, height, seed) in [(64, 48, 1), (71, 53, 2)] {
            let (frame0, frame1) = seeded_pair(width, height, seed);
            let pyramid =
                Pyramid::build(&frame0, params.pyramid_levels, params.min_level_size).unwrap();
            assert_eq!(pyramid.num_levels(), 3, "{width}x{height}");
            let flow = farneback_flow(&frame0, &frame1, &params).unwrap();
            hashes.push(fnv1a(&[flow.u(), flow.v()]));
        }
        let (frame0, _) = seeded_pair(71, 53, 2);
        let exp = polynomial_expansion(&frame0, params.poly_sigma).unwrap();
        hashes.push(fnv1a(&exp.planes()));
        let expected: [u64; 3] = [
            0x9244_83d0_f6ed_06c9,
            0xd06a_6b4c_9ae1_b632,
            0x7670_80d3_9545_2714,
        ];
        assert_eq!(hashes, expected, "got {hashes:#018x?}");
    }

    /// The flow's component bit patterns, for bit-for-bit comparisons.
    fn bits(flow: &FlowField) -> Vec<u32> {
        [flow.u(), flow.v()]
            .iter()
            .flat_map(|plane| plane.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    /// Stopping at level 1 is estimating on both frames' level-1 images and
    /// resampling the result: the same arithmetic on the same data.  At
    /// 71x53 level 1 is 35x26, so the resample scale is not exactly 2.
    #[test]
    fn finest_level_equals_estimating_on_that_level_and_resampling() {
        let params = FarnebackParams::ism();
        assert_eq!((params.pyramid_levels, params.finest_level), (3, 1));
        let coarse = FarnebackParams {
            pyramid_levels: 2,
            finest_level: 0,
            ..params
        };
        for (width, height, seed) in [(64, 48, 1), (71, 53, 2), (64, 48, 3), (71, 53, 4)] {
            let (frame0, frame1) = seeded_pair(width, height, seed);
            let level1 = |frame: &Image| {
                let pyramid =
                    Pyramid::build(frame, params.pyramid_levels, params.min_level_size).unwrap();
                assert_eq!(pyramid.num_levels(), 3, "{width}x{height}");
                pyramid.level(1).clone()
            };
            let reference = farneback_flow(&level1(&frame0), &level1(&frame1), &coarse)
                .unwrap()
                .resample(width, height);
            let flow = farneback_flow(&frame0, &frame1, &params).unwrap();
            assert_eq!((flow.width(), flow.height()), (width, height));
            assert!(
                bits(&flow) == bits(&reference),
                "{width}x{height} seed {seed}"
            );
        }
    }

    #[test]
    fn a_frame_too_small_for_level_one_runs_at_full_size() {
        let params = FarnebackParams::ism();
        let full_size = FarnebackParams {
            finest_level: 0,
            ..params
        };
        // 20 / 2 is below the 12-pixel minimum level size.
        let (frame0, frame1) = seeded_pair(20, 30, 5);
        let pyramid =
            Pyramid::build(&frame0, params.pyramid_levels, params.min_level_size).unwrap();
        assert_eq!(pyramid.num_levels(), 1);
        let flow = farneback_flow(&frame0, &frame1, &params).unwrap();
        let reference = farneback_flow(&frame0, &frame1, &full_size).unwrap();
        assert!(bits(&flow) == bits(&reference));
        assert_eq!(
            farneback_op_breakdown(20, 30, &params),
            farneback_op_breakdown(20, 30, &full_size)
        );
    }

    #[test]
    fn op_breakdown_models_the_levels_the_pyramid_builds() {
        let sizes = [8, 11, 12, 23, 24, 25].map(|n| (n, n));
        for params in [FarnebackParams::default(), FarnebackParams::ism()] {
            for (width, height) in sizes.into_iter().chain([(320, 180), (960, 540)]) {
                let frame = Image::filled(width, height, 0.5);
                let pyramid =
                    Pyramid::build(&frame, params.pyramid_levels, params.min_level_size).unwrap();
                let modelled: Vec<_> = pyramid_level_sizes(width, height, &params).collect();
                let built: Vec<_> = (0..pyramid.num_levels())
                    .map(|i| (pyramid.level(i).width(), pyramid.level(i).height()))
                    .collect();
                assert_eq!(modelled, built, "{width}x{height}");
                // The per-pixel compute-flow count sums exactly the levels
                // estimated on: the finest level is clamped to the coarsest.
                let finest = params.finest_level.min(built.len() - 1);
                let pixels: usize = built[finest..].iter().map(|(w, h)| w * h).sum();
                let ops = farneback_op_breakdown(width, height, &params);
                assert_eq!(
                    ops.compute_flow_ops,
                    (12 * params.iterations * pixels) as u64,
                    "{width}x{height}"
                );
            }
        }
        // Stopping at level 1 of a 3-level pyramid counts the levels of a
        // 2-level pyramid at half size: the accelerator model's half- and
        // quarter-resolution flow.
        let finest_one = FarnebackParams {
            pyramid_levels: 3,
            finest_level: 1,
            ..FarnebackParams::default()
        };
        let half = FarnebackParams {
            pyramid_levels: 2,
            ..FarnebackParams::default()
        };
        for (width, height) in [(320, 180), (640, 360), (960, 540)] {
            assert_eq!(
                farneback_op_breakdown(width, height, &finest_one),
                farneback_op_breakdown(width / 2, height / 2, &half),
                "{width}x{height}"
            );
        }
    }

    #[test]
    fn op_breakdown_is_dominated_by_conv_and_pointwise() {
        let b = farneback_op_breakdown(960, 540, &FarnebackParams::default());
        assert!(b.total() > 0);
        // The paper: 99% of Farneback is Gaussian blur + the two point-wise
        // stages; in this breakdown that is all of the work, with blur taking
        // the majority share.
        assert!(b.blur_fraction() > 0.5);
        // qHD non-key-frame flow cost is tens of millions of operations, not
        // billions (the DNN costs 10^2-10^4 x more).
        assert!(b.total() < 2_000_000_000);
    }
}
