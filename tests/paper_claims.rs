//! End-to-end reproduction checks: every registered experiment must come
//! out of its quick-profile run with all paper-vs-measured rows in band.
//!
//! These are the same runners behind `td-repro`; the full-length runs are
//! recorded in EXPERIMENTS.md. One test per experiment id so a regression
//! names the figure it broke, and `every_registry_id_has_a_one_liner`
//! fails when `registry()` gains an id the table below does not name.

use tahoe_dynamics::experiments::registry::{find, registry, Profile};

fn check(id: &str) {
    let rep = find(id)
        .unwrap_or_else(|| panic!("experiment {id} not registered"))
        .run(1, Profile::Quick);
    assert!(
        rep.all_ok(),
        "{id} failed checks {:?}\n{rep}",
        rep.failures()
    );
    assert!(!rep.rows.is_empty());
}

/// One `#[test]` per row, in `registry()` order, and the ids as `CHECKED`.
macro_rules! claims {
    ($($name:ident => $id:literal,)*) => {
        $(
            #[test]
            fn $name() {
                check($id);
            }
        )*
        const CHECKED: &[&str] = &[$($id),*];
    };
}

claims! {
    fig2_one_way_baseline => "fig2",
    fig3_ten_connection_fluctuations => "fig3",
    fig45_out_of_phase_small_pipe => "fig45",
    fig67_in_phase_large_pipe => "fig67",
    fig8_fixed_windows_small_pipe => "fig8",
    fig9_fixed_windows_large_pipe => "fig9",
    oneway_utilization_table => "oneway-util",
    zero_ack_conjecture => "conjecture",
    delayed_ack_option => "delayed-ack",
    multihop_generality => "multihop",
    scale_cluster_chain => "scale",
    decbit_generality => "decbit",
    piggyback_duplex => "piggyback",
    synchronization_mode_census => "modes",
    rtt_spread_breaks_clustering => "rtt-spread",
    crosstraffic_interleaves_clusters => "crosstraffic",
    short_flow_completion_times => "short-flows",
    reno_structural_vs_specific => "reno",
    ablation_pacing => "abl-pacing",
    ablation_increment_rule => "abl-increment",
    ablation_red_desynchronizes_losses => "abl-red",
    ablation_gateway_discipline => "abl-discipline",
    chaos_recovery_drill => "chaos",
}

#[test]
fn every_registry_id_has_a_one_liner() {
    let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
    assert_eq!(ids, CHECKED, "registry() and the claims! table disagree");
}

/// Seed-robustness of the fig45 headline, with the paper's own caveat.
///
/// §4.3 says the small-pipe configuration is "usually" out-of-phase, and
/// §4.3.3 notes "other, less common, modes" exist. Across a dozen start
/// phases we see exactly that: a large majority land in the out-of-phase
/// ~0.70-utilization mode, and a minority in a symmetric in-phase mode
/// with higher utilization. Assert the majority behaviour, and that every
/// run lands in one of the two recognized modes.
#[test]
fn fig45_headline_is_seed_robust() {
    use tahoe_dynamics::analysis::sync::{classify_sync, SyncMode};
    use tahoe_dynamics::experiments::fig45;
    let mut out_of_phase = 0;
    let seeds = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for &seed in &seeds {
        let run = fig45::scenario(seed, 400, 20).run();
        let (u12, u21) = (run.util12(), run.util21());
        let (mode, r) = classify_sync(
            &run.cwnd(run.fwd[0]),
            &run.cwnd(run.rev[0]),
            run.t0,
            run.t1,
            800,
            5,
            0.15,
        );
        match mode {
            SyncMode::OutOfPhase => {
                out_of_phase += 1;
                assert!(
                    (0.55..=0.85).contains(&u12) && (0.55..=0.85).contains(&u21),
                    "seed {seed}: out-of-phase but utilization {u12:.3}/{u21:.3} not ~0.70"
                );
            }
            SyncMode::InPhase => {
                // The minority mode: symmetric, single losses, higher util.
                assert!(
                    u12 > 0.8 && u21 > 0.8,
                    "seed {seed}: in-phase mode should be the high-utilization one, got {u12:.3}/{u21:.3}"
                );
            }
            SyncMode::Indeterminate => {
                panic!("seed {seed}: unclassifiable dynamics, r = {r:.2}");
            }
        }
    }
    assert!(
        out_of_phase * 3 >= seeds.len() * 2,
        "out-of-phase should dominate at small pipe: {out_of_phase}/{}",
        seeds.len()
    );
}
