//! Rendering minimized artifacts as a runnable regression corpus.
//!
//! The corpus layout (normative in `docs/REPRO.md`) is one directory
//! holding, per artifact, a data fixture and a tiny `#[test]` harness:
//!
//! ```text
//! corpus/
//! ├── corpus_tests.rs          # manifest: include!() of every spec
//! ├── <name>.rs                # spec: loads + verifies one fixture
//! └── fixtures/
//!     └── <name>.repro.json    # the sealed artifact bytes
//! ```
//!
//! A test target `include!`s `corpus_tests.rs`, after which plain
//! `cargo test` re-asserts every artifact's content hash and detector
//! verdict forever. [`verify_corpus`] runs the same checks in-process,
//! for callers (examples, end-to-end tests) that just emitted a corpus
//! into a temporary directory and cannot compile it.

use std::fs;
use std::path::{Path, PathBuf};

use crate::artifact::ReproArtifact;
use crate::error::ReproError;

/// Suffix of every fixture file in a corpus.
pub const FIXTURE_SUFFIX: &str = ".repro.json";

/// File name of the generated manifest.
pub const MANIFEST_FILE: &str = "corpus_tests.rs";

/// Turns an artifact name into a valid, file-system-friendly Rust
/// identifier stem.
fn sanitize(name: &str) -> String {
    let mut stem: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    if stem.is_empty() || stem.as_bytes()[0].is_ascii_digit() {
        stem.insert_str(0, "case_");
    }
    stem
}

/// The generated `#[test]` spec of `artifact`, stored as `fixture`. The
/// artifact's name is free text, so it is rendered escaped: a newline in
/// it cannot end the comment and leak the rest into the test target.
fn spec(stem: &str, fixture: &str, artifact: &ReproArtifact) -> String {
    format!(
        "// Generated by endurance-repro's corpus writer; do not edit.\n\
         // Fixture: {fixture} (artifact `{name}`, lane {lane},\n\
         // target window at {target} ns, content hash {hash:#018x}).\n\
         #[test]\n\
         fn repro_{stem}() {{\n\
         \x20   const ARTIFACT: &[u8] = include_bytes!(\"{fixture}\");\n\
         \x20   let artifact = ::endurance_repro::ReproArtifact::from_bytes(ARTIFACT)\n\
         \x20       .expect(\"artifact bytes load and the content hash matches\");\n\
         \x20   artifact\n\
         \x20       .verify()\n\
         \x20       .expect(\"artifact reproduces its pinned detector verdicts\");\n\
         }}\n",
        name = artifact.name.escape_debug(),
        lane = artifact.lane,
        target = artifact.target_start_ns,
        hash = artifact.content_hash,
    )
}

/// Writes sealed artifacts into a corpus directory as fixture + spec
/// pairs, then a manifest aggregating every spec.
#[derive(Debug)]
pub struct CorpusWriter {
    dir: PathBuf,
    stems: Vec<String>,
}

impl CorpusWriter {
    /// Opens (creating if needed) the corpus directory and its
    /// `fixtures/` subdirectory.
    ///
    /// # Errors
    ///
    /// Returns [`ReproError::Io`] when the directories cannot be
    /// created.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, ReproError> {
        let dir = dir.into();
        fs::create_dir_all(dir.join("fixtures"))?;
        Ok(CorpusWriter {
            dir,
            stems: Vec::new(),
        })
    }

    /// The corpus directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes one artifact: its fixture bytes under
    /// `fixtures/<stem>.repro.json` and a `#[test]` spec under
    /// `<stem>.rs` that loads the fixture, asserts the content hash,
    /// and re-runs the oracle against the pinned verdicts. Returns the
    /// spec path. Name collisions get a numeric suffix.
    ///
    /// # Errors
    ///
    /// Returns [`ReproError::Malformed`] when the artifact does not
    /// serialize and [`ReproError::Io`] on write failures.
    pub fn write(&mut self, artifact: &ReproArtifact) -> Result<PathBuf, ReproError> {
        let mut stem = sanitize(&artifact.name);
        if self.stems.contains(&stem) {
            let mut suffix = 2usize;
            while self.stems.contains(&format!("{stem}_{suffix}")) {
                suffix += 1;
            }
            stem = format!("{stem}_{suffix}");
        }
        let fixture = format!("fixtures/{stem}{FIXTURE_SUFFIX}");
        fs::write(self.dir.join(&fixture), artifact.to_bytes()?)?;
        let spec_path = self.dir.join(format!("{stem}.rs"));
        fs::write(&spec_path, spec(&stem, &fixture, artifact))?;
        self.stems.push(stem);
        Ok(spec_path)
    }

    /// Writes the manifest (`corpus_tests.rs`): one `include!` per spec
    /// written so far, in sorted order, so a test target can pull the
    /// whole corpus in with a single `include!`. Returns the manifest
    /// path.
    ///
    /// # Errors
    ///
    /// Returns [`ReproError::Io`] on write failures.
    pub fn write_manifest(&self) -> Result<PathBuf, ReproError> {
        let mut stems = self.stems.clone();
        stems.sort();
        let mut manifest = String::from(
            "// Generated by endurance-repro's corpus writer; do not edit.\n\
             // include!() this file from a test target to run the corpus.\n",
        );
        for stem in &stems {
            manifest.push_str(&format!("include!(\"{stem}.rs\");\n"));
        }
        let path = self.dir.join(MANIFEST_FILE);
        fs::write(&path, manifest)?;
        Ok(path)
    }
}

/// What [`verify_corpus`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusReport {
    /// Number of fixtures loaded and verified.
    pub artifacts: usize,
    /// Total events across the verified artifacts.
    pub events: usize,
}

/// Loads and verifies every fixture of a corpus in-process: the same
/// hash + verdict assertions the generated `#[test]` specs compile to,
/// for corpora emitted into temporary directories.
///
/// # Errors
///
/// Returns the first fixture's load or verification failure, or
/// [`ReproError::Io`] when the fixtures directory cannot be read.
pub fn verify_corpus(dir: impl AsRef<Path>) -> Result<CorpusReport, ReproError> {
    let fixtures = dir.as_ref().join("fixtures");
    let mut paths: Vec<PathBuf> = fs::read_dir(&fixtures)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|entry| entry.path())
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(FIXTURE_SUFFIX))
        })
        .collect();
    paths.sort();
    let mut report = CorpusReport {
        artifacts: 0,
        events: 0,
    };
    for path in paths {
        let bytes = fs::read(&path)?;
        let artifact = ReproArtifact::from_bytes(&bytes)?;
        artifact.verify()?;
        report.artifacts += 1;
        report.events += artifact.event_count();
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_produces_identifier_stems() {
        assert_eq!(sanitize("stream-3/window#7"), "stream_3_window_7");
        assert_eq!(sanitize("7seconds"), "case_7seconds");
        assert_eq!(sanitize(""), "case_");
        assert_eq!(sanitize("UPPER"), "upper");
    }

    #[test]
    fn an_artifact_name_cannot_leave_its_comment() {
        let mut artifact =
            ReproArtifact::from_bytes(include_bytes!("../tests/fixtures/golden.repro.json"))
                .unwrap();
        let render = |artifact: &ReproArtifact| {
            let stem = sanitize(&artifact.name);
            spec(&stem, &format!("fixtures/{stem}{FIXTURE_SUFFIX}"), artifact)
        };
        assert!(render(&artifact).contains("(artifact `golden`, lane 0,\n"));

        artifact.name = "x\n#[test] fn injected() {}".into();
        let spec = render(&artifact);
        let lines: Vec<&str> = spec.lines().collect();
        let attribute = lines
            .iter()
            .position(|line| line.starts_with("#[test]"))
            .unwrap();
        assert!(
            lines[..attribute].iter().all(|line| line.starts_with("//")),
            "{spec}"
        );
        let defined = lines
            .iter()
            .filter(|line| !line.starts_with("//") && line.contains("fn "))
            .count();
        assert_eq!(defined, 1, "{spec}");
        assert!(spec.contains("(artifact `x\\n#[test] fn injected() {}`, lane 0,\n"));
    }
}
