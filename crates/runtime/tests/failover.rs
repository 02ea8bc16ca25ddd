//! Fault-injection acceptance tests: seeded `run_sim` scenarios with a
//! lossy link, a shard kill, or both.
//!
//! Locked properties:
//! * a lossy/reordering/duplicating link with at-least-once retransmission
//!   delivers every session byte-identical to batch — no frame loss ever
//!   wedges a session, and every injected fault is counted by the
//!   transport counters;
//! * killing a shard mid-stream migrates its sessions to survivors with a
//!   key-frame re-key, and the post-re-key output is byte-identical to a
//!   fresh batch run from the migration point — also over a lossy link;
//! * both events surface in the Prometheus scrape through the
//!   `asv_sessions_migrated_total` and `asv_transport_errors_total`
//!   families.

use asv::ism::{IsmConfig, IsmPipeline};
use asv_dnn::{zoo, SurrogateParams, SurrogateStereoDnn};
use asv_runtime::{run_sim, LinkFaults, ShardKill, SimConfig};
use asv_stereo::block_matching::BlockMatchParams;

fn pipeline(width: usize, height: usize, window: usize) -> IsmPipeline {
    let config = IsmConfig {
        propagation_window: window,
        refine: BlockMatchParams {
            max_disparity: 16,
            refine_radius: 2,
            ..Default::default()
        },
        surrogate: SurrogateParams {
            max_disparity: 16,
            occlusion_handling: true,
            ..Default::default()
        },
        ..Default::default()
    };
    IsmPipeline::new(
        config,
        SurrogateStereoDnn::new(zoo::dispnet(height, width), config.surrogate),
    )
}

fn ci_pipeline(sim: &SimConfig) -> IsmPipeline {
    pipeline(sim.width, sim.height, 3)
}

/// The lossy-link determinism proof: with every fault class injected at
/// aggressive rates, every session still converges byte-identical to batch
/// and every fault is visible in the transport counters.
#[test]
fn chaos_transport_delivers_byte_identical_output() {
    let sim = SimConfig {
        link: LinkFaults::ci(),
        ..SimConfig::small()
    };
    let report = run_sim(&ci_pipeline(&sim), &sim).unwrap();

    assert!(
        report.is_deterministic(),
        "chaos transport diverged:\n{}",
        report.mismatches.join("\n")
    );
    assert!(report.frames_compared > 0, "the comparison actually ran");
    assert_eq!(
        report.frames_delivered, report.frames_compared,
        "every delivered frame was compared"
    );
    // The ci() rates make each fault class a statistical certainty over
    // the workload; a zero here means the injector is broken.
    assert!(report.frames_dropped > 0, "drops were injected");
    assert!(report.frames_corrupted > 0, "corruptions were injected");
    assert!(report.frames_truncated > 0, "truncations were injected");
    assert!(report.frames_duplicated > 0, "duplicates were injected");
    assert!(report.frames_reordered > 0, "reorders were injected");
    assert!(report.retransmissions > 0, "losses forced retransmissions");
    assert!(
        report.transport_errors >= report.frames_corrupted + report.frames_truncated,
        "every corruption and truncation was counted ({} errors for {} + {})",
        report.transport_errors,
        report.frames_corrupted,
        report.frames_truncated
    );
}

/// The same link with a different seed: determinism is a property of the
/// protocol, not of one lucky fault schedule.
#[test]
fn chaos_transport_is_deterministic_across_fault_schedules() {
    let sim = SimConfig::small().with_sessions(2).with_frames(5);
    let pipe = ci_pipeline(&sim);
    for seed in [1u64, 0xDEAD_BEEF, 0x5EED] {
        let link = LinkFaults {
            seed,
            ..LinkFaults::ci()
        };
        let report = run_sim(&pipe, &SimConfig { link, ..sim }).unwrap();
        assert!(
            report.is_deterministic(),
            "seed {seed:#x} diverged:\n{}",
            report.mismatches.join("\n")
        );
    }
}

/// A clean link (all rates zero) is the degenerate case: nothing dropped,
/// nothing retried, still byte-identical.
#[test]
fn clean_link_is_the_degenerate_chaos_case() {
    let sim = SimConfig::small().with_sessions(2).with_frames(4);
    assert_eq!(sim.link, LinkFaults::clean());
    let report = run_sim(&ci_pipeline(&sim), &sim).unwrap();
    assert!(report.is_deterministic());
    assert_eq!(report.frames_dropped, 0);
    assert_eq!(report.retransmissions, 0);
    assert_eq!(report.transport_errors, 0);
}

/// The CI shard-kill scenario: four sessions over three shards, the shard
/// serving session 0 killed after three of six frames.
fn shard_kill_scenario(link: LinkFaults) -> SimConfig {
    SimConfig {
        shards: 3,
        link,
        kill: Some(ShardKill {
            victim: None,
            after: 3,
        }),
        ..SimConfig::small().with_sessions(4).with_frames(6)
    }
}

/// The shard-kill acceptance criterion: mid-stream failure migrates every
/// affected session, output is byte-identical from the re-key point, no
/// session wedges, and both new metric families appear in the scrape.
#[test]
fn shard_kill_migrates_sessions_with_byte_identical_rekey() {
    let sim = shard_kill_scenario(LinkFaults::clean());
    let report = run_sim(&ci_pipeline(&sim), &sim).unwrap();

    assert!(
        report.is_deterministic(),
        "failover diverged:\n{}",
        report.mismatches.join("\n")
    );
    assert!(
        !report.migrations.is_empty(),
        "killing the shard serving session 0 must migrate at least one session"
    );
    let victim = report.victim.expect("the kill ran");
    for migration in &report.migrations {
        assert_eq!(migration.from, victim, "migrations leave the victim");
        assert_ne!(migration.to, victim, "and land on a survivor");
    }
    assert!(report.frames_compared > 0, "the comparison actually ran");

    // Every migrated session observed the kill at the configured frame.
    let after = sim.kill.expect("scenario kills a shard").after;
    let migrated = report
        .migration_frame
        .iter()
        .filter_map(|f| *f)
        .collect::<Vec<_>>();
    assert!(!migrated.is_empty(), "at least one session saw the failure");
    for frame in &migrated {
        assert!(
            *frame >= after,
            "no session can migrate before the kill (saw frame {frame})"
        );
    }

    // The scrape carries both tentpole metric families, and the migration
    // counter of the victim shard reflects the re-placements.
    assert!(
        report.scrape.contains("asv_sessions_migrated_total"),
        "scrape is missing the migration family"
    );
    assert!(
        report.scrape.contains("asv_transport_errors_total"),
        "scrape is missing the transport-error family"
    );
    let expected = format!(
        "asv_sessions_migrated_total{{shard=\"{victim}\"}} {}",
        report.migrations.len()
    );
    assert!(
        report.scrape.contains(&expected),
        "scrape lacks `{expected}`:\n{}",
        report.scrape
    );
}

/// Killing an explicitly chosen shard also recovers, for every choice of
/// victim — placement must not bias survival.
#[test]
fn every_victim_choice_recovers() {
    let base = SimConfig {
        shards: 2,
        ..SimConfig::small().with_sessions(3).with_frames(5)
    };
    let pipe = ci_pipeline(&base);
    for victim in 0..base.shards {
        let sim = SimConfig {
            kill: Some(ShardKill {
                victim: Some(victim),
                after: 2,
            }),
            ..base
        };
        let report = run_sim(&pipe, &sim).unwrap();
        assert_eq!(report.victim, Some(victim));
        assert!(
            report.is_deterministic(),
            "victim {victim} diverged:\n{}",
            report.mismatches.join("\n")
        );
    }
}

/// A shard dies while the link drops, corrupts, truncates, duplicates and
/// reorders: retransmissions and the re-key compose, and every session is
/// still byte-identical to its references.
#[test]
fn shard_kill_over_a_lossy_link_recovers_byte_identical() {
    let sim = shard_kill_scenario(LinkFaults::ci());
    let report = run_sim(&ci_pipeline(&sim), &sim).unwrap();
    assert!(
        report.is_deterministic(),
        "kill over a lossy link diverged:\n{}",
        report.mismatches.join("\n")
    );
    assert!(!report.migrations.is_empty(), "the kill migrated a session");
    assert!(report.frames_dropped > 0, "drops were injected");
    assert!(report.retransmissions > 0, "losses forced retransmissions");
    assert!(report.transport_errors > 0, "faults were counted");
}
