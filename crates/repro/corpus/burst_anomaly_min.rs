// Generated by endurance-repro's corpus writer; do not edit.
// Fixture: fixtures/burst_anomaly_min.repro.json (artifact `burst-anomaly-min`, lane 3,
// target window at 8080000000 ns, content hash 0x7b43518324adf0ab).
#[test]
fn repro_burst_anomaly_min() {
    const ARTIFACT: &[u8] = include_bytes!("fixtures/burst_anomaly_min.repro.json");
    let artifact = ::endurance_repro::ReproArtifact::from_bytes(ARTIFACT)
        .expect("artifact bytes load and the content hash matches");
    artifact
        .verify()
        .expect("artifact reproduces its pinned detector verdicts");
}
