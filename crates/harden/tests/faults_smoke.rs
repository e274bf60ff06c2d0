//! Regression lock on fault-injection behaviour. Stale and reused ROB
//! ordinals, deadlocked BQ pops and memory delays past the scheduler's
//! ring horizon only show up under recovery and injected faults, so the
//! smoke campaign's verdict table (`experiments faults --smoke --trials 4
//! --seed 0xcfdfa017`: 96 trials over every fault class) must stay
//! byte-identical to the checked-in fixture.

use cfd_harden::{run_campaign, CampaignConfig};

#[test]
fn smoke_campaign_matches_checked_in_fixture() {
    let cfg = CampaignConfig { seed: 0xcfdf_a017, trials_per_pair: 4, scale_n: 40, ..CampaignConfig::default() };
    let report = run_campaign(&cfg);
    assert_eq!(report.outcomes.len(), 96);
    assert_eq!(report.to_json(), include_str!("fixtures/faults_smoke.json"), "fault campaign diverged from fixture");
}
