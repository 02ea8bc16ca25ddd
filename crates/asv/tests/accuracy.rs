//! The accuracy gate: the shipped ISM flow against full-resolution Farnebäck
//! on seeded SceneFlow-like and KITTI-like scenes (`asv::accuracy`).
//!
//! The scenes are seeded and every kernel tier and pool size produces the
//! same bits, so the default flow's numbers are pinned to
//! 0.001 (percentage points for rates, pixels for errors).  A change that
//! moves output must re-pin them here, regenerate `BENCH_accuracy.json`
//! with `tab_accuracy`, and say why.

use asv::accuracy::{accuracy_gate, GateRow, GateSetup};
use asv_scene::DatasetProfile;
use std::sync::OnceLock;

/// How far the default flow's non-key >3 px rate may rise above the
/// full-resolution flow's, in percentage points.
const NON_KEY_BAD_3PX_MARGIN: f64 = 0.5;

/// How far a default number may move from its pinned value.
const PIN_TOLERANCE: f64 = 0.001;

/// The default flow's numbers per profile: key >1 px %, key >3 px %, key
/// mean absolute error px, key density %, the same four for non-key frames,
/// and the left-view flow's end-point error px.
const PINNED: [(DatasetProfile, [f64; 9]); 2] = [
    (
        DatasetProfile::SceneFlowLike,
        [
            7.06510, 6.16992, 0.88816, 100.0, 11.79970, 8.65611, 1.07030, 100.0, 0.32367,
        ],
    ),
    (
        DatasetProfile::KittiLike,
        [
            5.70182, 4.13824, 0.73614, 100.0, 10.63274, 7.68352, 0.97283, 100.0, 0.85022,
        ],
    ),
];

/// The gate's rows, computed once for every test in this binary.
fn rows() -> &'static [GateRow] {
    static ROWS: OnceLock<Vec<GateRow>> = OnceLock::new();
    ROWS.get_or_init(|| accuracy_gate(&GateSetup::GATE).expect("the gate runs"))
}

fn row(profile: DatasetProfile, flow_name: &str) -> &'static GateRow {
    rows()
        .iter()
        .find(|r| r.profile == profile && r.flow_name == flow_name)
        .expect("the gate scores every profile under both flows")
}

/// A row's numbers in the order of [`PINNED`].
fn numbers(row: &GateRow) -> [f64; 9] {
    let (key, non_key) = (row.score.key, row.score.non_key);
    [
        key.bad_1px * 100.0,
        key.bad_3px * 100.0,
        key.mean_abs_error,
        key.density * 100.0,
        non_key.bad_1px * 100.0,
        non_key.bad_3px * 100.0,
        non_key.mean_abs_error,
        non_key.density * 100.0,
        row.score.left_flow_epe,
    ]
}

#[test]
fn the_grid_scores_every_frame_of_every_seed() {
    let setup = GateSetup::GATE;
    let frames = setup.seeds.len() * setup.frames;
    let keys_per_sequence = setup.frames.div_ceil(setup.propagation_window);
    assert_eq!(rows().len(), 4);
    for row in rows() {
        assert_eq!(row.score.key_frames, setup.seeds.len() * keys_per_sequence);
        assert_eq!(row.score.key_frames + row.score.non_key_frames, frames);
    }
}

#[test]
fn the_coarse_flow_loses_at_most_half_a_point_of_non_key_accuracy() {
    for profile in [DatasetProfile::SceneFlowLike, DatasetProfile::KittiLike] {
        let (ism, full) = (row(profile, "ism"), row(profile, "full_resolution"));
        // Key frames never run a flow.
        assert_eq!(ism.score.key, full.score.key, "{profile:?}");
        let rise = (ism.score.non_key.bad_3px - full.score.non_key.bad_3px) * 100.0;
        assert!(
            rise <= NON_KEY_BAD_3PX_MARGIN,
            "{profile:?}: non-key >3 px rate rose {rise:.3} points over the full-resolution flow"
        );
    }
}

#[test]
fn default_flow_numbers_are_pinned() {
    for (profile, pinned) in PINNED {
        let got = numbers(row(profile, "ism"));
        for (i, (got, want)) in got.iter().zip(pinned).enumerate() {
            assert!(
                (got - want).abs() <= PIN_TOLERANCE,
                "{profile:?} number {i}: got {got:.5}, pinned {want:.5} (all: {got_all:.5?})",
                got_all = numbers(row(profile, "ism"))
            );
        }
    }
}
