//! The ROC campaign's front door: a bad `RocGridSpec` must come back as
//! a typed `SweepError::Spec` before any shard runs, never as a panic in
//! the detector CFAR solver or the fusion quorum maths.

use comimo::campaign::CampaignConfig;
use comimo::sensing::{run_roc_campaign, RocGridSpec, SensingError, SweepError};

/// A small grid, so a spec that wrongly got past validation would finish
/// quickly instead of running the paper's 24 shards.
fn small() -> RocGridSpec {
    RocGridSpec {
        snrs_db: vec![0.0],
        k_fracs: vec![0.5],
        trials_per_shard: 4,
        n_shards: 2,
        ..RocGridSpec::paper()
    }
}

#[test]
fn the_paper_grid_validates() {
    assert_eq!(RocGridSpec::paper().validate(), Ok(()));
    assert_eq!(small().validate(), Ok(()));
}

#[test]
fn bad_specs_return_a_spec_error_before_any_shard_runs() {
    let cases = [
        (
            RocGridSpec {
                k_fracs: vec![0.0],
                ..small()
            },
            "k_frac",
        ),
        (
            RocGridSpec {
                k_fracs: vec![0.5, 1.5],
                ..small()
            },
            "k_frac",
        ),
        (
            RocGridSpec {
                n_reporters: 0,
                ..small()
            },
            "n_reporters",
        ),
        (
            RocGridSpec {
                k_fracs: Vec::new(),
                ..small()
            },
            "k_fracs",
        ),
    ];
    for (spec, needle) in cases {
        match spec.validate() {
            Err(SensingError::InvalidSpec { what }) => {
                assert!(what.contains(needle), "{what:?} should mention {needle:?}");
            }
            other => panic!("expected InvalidSpec for {needle}, got {other:?}"),
        }
        let cfg = CampaignConfig::new(2013, spec.fingerprint());
        match run_roc_campaign(&spec, &cfg) {
            Err(SweepError::Spec(SensingError::InvalidSpec { .. })) => {}
            Err(other) => panic!("expected a spec error for {needle}, got {other}"),
            Ok(_) => panic!("a bad spec ({needle}) ran its campaign"),
        }
    }
}
