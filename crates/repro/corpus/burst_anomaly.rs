// Generated by endurance-repro's corpus writer; do not edit.
// Fixture: fixtures/burst_anomaly.repro.json (artifact `burst-anomaly`, lane 3,
// target window at 8080000000 ns, content hash 0xa3d7195d13fb4faa).
#[test]
fn repro_burst_anomaly() {
    const ARTIFACT: &[u8] = include_bytes!("fixtures/burst_anomaly.repro.json");
    let artifact = ::endurance_repro::ReproArtifact::from_bytes(ARTIFACT)
        .expect("artifact bytes load and the content hash matches");
    artifact
        .verify()
        .expect("artifact reproduces its pinned detector verdicts");
}
