//! Per-session scratch for the streaming hot path.
//!
//! [`IsmState::step`] re-allocated every intermediate — two flow pyramids,
//! twelve polynomial-expansion planes, the SGM cost volume and its
//! aggregation buffers, the propagated and refined disparity maps — on every
//! frame.  A [`Workspace`] owns all of that scratch instead: the first frame
//! of a stream sizes the buffers, and every later frame reuses them, making
//! steady-state [`IsmState::step_with`] perform **zero heap allocations**
//! (asserted by the allocation-regression test in `tests/alloc.rs`).
//!
//! One workspace serves one stream: the streaming runtime gives every
//! session its own, so concurrent sessions never contend on the global
//! allocator.  A workspace carries no algorithmic state — streams may be
//! reset or re-keyed freely, and feeding differently-sized frames merely
//! re-warms the buffers.
//!
//! [`IsmState::step`]: crate::ism::IsmState::step
//! [`IsmState::step_with`]: crate::ism::IsmState::step_with

use asv_flow::farneback::FlowWorkspace;
use asv_image::Image;
use asv_mem::BufferPool;
use asv_stereo::block_matching::PaddedPair;
use asv_stereo::{DisparityMap, SgmWorkspace};
use asv_trace::{TraceConfig, Tracer};

/// Reusable per-stream scratch for the whole ISM frame path: optical flow
/// (one workspace per camera view, so the two estimations can run
/// concurrently), the key-frame SGM matcher, the propagated disparity map
/// the non-key-frame refinement searches around, and a pool of frame-sized
/// planes that backs the returned disparity maps.
#[derive(Debug)]
pub struct Workspace {
    pub(crate) flow_left: FlowWorkspace,
    pub(crate) flow_right: FlowWorkspace,
    pub(crate) stereo: SgmWorkspace,
    pub(crate) propagated: DisparityMap,
    pub(crate) maps: BufferPool,
    /// Selection buffer of the adaptive key-frame policy's median-motion
    /// estimate.
    pub(crate) median_scratch: Vec<f32>,
    /// The correspondence propagation's target buffer: one
    /// `(target index, disparity)` slot per source pixel.
    pub(crate) propagation_targets: Vec<(u32, f32)>,
    /// The replicate-padded copy of the frame pair the refinement search
    /// walks.
    pub(crate) padded_pair: PaddedPair,
    /// Per-stage span recorder: every [`IsmState::step_with`] call traces
    /// its pipeline stages here (ring-buffered per session, governed by
    /// `ASV_TRACE`; see the `asv_trace` crate).
    ///
    /// [`IsmState::step_with`]: crate::ism::IsmState::step_with
    pub tracer: Tracer,
}

impl Workspace {
    /// Creates an empty workspace.  No heap allocation happens until the
    /// first frame is processed, so creating one per call (as the allocating
    /// [`IsmState::step`] wrapper does) costs nothing beyond losing reuse.
    ///
    /// [`IsmState::step`]: crate::ism::IsmState::step
    pub fn new() -> Self {
        Self::with_trace_config(TraceConfig::from_env())
    }

    /// [`Workspace::new`] with an explicit tracing configuration instead of
    /// the `ASV_TRACE` environment default — e.g. to force full-capture mode
    /// for one profiled session while the rest of the process stays in ring
    /// mode.  Still allocation-free until the first frame.
    pub fn with_trace_config(trace: TraceConfig) -> Self {
        Self {
            flow_left: FlowWorkspace::new(),
            flow_right: FlowWorkspace::new(),
            stereo: SgmWorkspace::new(),
            propagated: DisparityMap::invalid(0, 0),
            maps: BufferPool::new(),
            median_scratch: Vec::new(),
            propagation_targets: Vec::new(),
            padded_pair: PaddedPair::new(),
            tracer: Tracer::new(trace),
        }
    }

    /// Checks a `width x height` disparity map out of the plane pool
    /// (contents unspecified; every caller fully overwrites it).
    pub(crate) fn take_map(&mut self, width: usize, height: usize) -> DisparityMap {
        let data = self.maps.take_scratch(width * height);
        let image = Image::from_vec(width, height, data)
            .expect("pool buffer has exactly width * height elements");
        DisparityMap::from_image(image)
    }

    /// Returns a disparity map's plane to the pool, e.g. a
    /// [`FrameResult`](crate::ism::FrameResult) the consumer is done with.
    /// Recycling the previous frame's output before stepping the next frame
    /// is what closes the allocation loop: the pooled plane becomes the next
    /// output map.
    pub fn recycle(&mut self, map: DisparityMap) {
        self.maps.put(map.into_image().into_vec());
    }

    /// Bytes retained by every buffer of the workspace: both flow
    /// workspaces, the SGM scratch, the propagated map and its target
    /// buffer, the padded pair, the pooled planes and the median scratch.
    /// Useful for capacity-planning many concurrent sessions.
    pub fn retained_bytes(&self) -> usize {
        self.flow_left.retained_bytes()
            + self.flow_right.retained_bytes()
            + self.stereo.retained_bytes()
            + self.propagated.as_image().retained_bytes()
            + self.propagation_targets.capacity() * std::mem::size_of::<(u32, f32)>()
            + self.padded_pair.retained_bytes()
            + self.maps.retained_bytes()
            + self.median_scratch.capacity() * std::mem::size_of::<f32>()
    }

    /// Releases every retained buffer — the pooled planes, the SGM scratch,
    /// the flow workspaces, the propagation and refinement scratch (e.g.
    /// when a stream goes idle); the next frame re-warms them.
    pub fn trim(&mut self) {
        *self = Workspace::with_trace_config(*self.tracer.config());
    }
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_workspace_is_empty() {
        let ws = Workspace::new();
        assert_eq!(ws.retained_bytes(), 0);
    }

    #[test]
    fn recycled_map_backs_the_next_checkout() {
        let mut ws = Workspace::new();
        let map = ws.take_map(8, 4);
        assert_eq!((map.width(), map.height()), (8, 4));
        ws.recycle(map);
        assert!(ws.retained_bytes() >= 8 * 4 * 4);
        let again = ws.take_map(8, 4);
        assert_eq!((again.width(), again.height()), (8, 4));
        assert_eq!(ws.maps.hits(), 1);
        ws.recycle(again);
        ws.trim();
        assert_eq!(ws.retained_bytes(), 0);
    }

    /// The non-key scratch (the propagation's target buffer and the padded
    /// pair refinement walks) is counted and released like the rest.
    #[test]
    fn retained_bytes_counts_the_non_key_scratch() {
        use asv_flow::FlowField;
        use asv_stereo::block_matching::{refine_with_initial_into, BlockMatchParams};
        let (width, height) = (24, 10);
        let mut ws = Workspace::new();
        let prev = DisparityMap::constant(width, height, 3.0);
        let flow = FlowField::zeros(width, height);
        crate::ism::propagate_correspondences_into(
            &prev,
            &flow,
            &flow,
            &mut ws.propagation_targets,
            &mut ws.propagated,
        );
        let targets = width * height * std::mem::size_of::<(u32, f32)>();
        assert!(ws.retained_bytes() >= targets + width * height * 4);
        let image = Image::from_fn(width, height, |x, y| ((x * 7 + y * 3) % 5) as f32);
        let mut out = DisparityMap::invalid(0, 0);
        let before = ws.retained_bytes();
        refine_with_initial_into(
            &image,
            &image,
            &ws.propagated,
            &BlockMatchParams::default(),
            &mut ws.padded_pair,
            &mut out,
        )
        .unwrap();
        // Two planes with a 3-pixel border, plus 7 columns of lane overhang.
        let padded = 2 * (width + 2 * 3 + 7) * (height + 2 * 3) * 4;
        assert!(ws.retained_bytes() >= before + padded);
        ws.trim();
        assert_eq!(ws.retained_bytes(), 0);
    }
}
