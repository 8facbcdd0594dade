//! The comparison engine.
//!
//! "This allows the validation of all versions against each other and
//! ensures reproducibility of previous results. … This file may be a simple
//! yes/no, a text file, a histogram, a root file or even a link to a
//! further page, depending on the nature of the test." (§3.3)
//!
//! [`TestOutput`] models those output flavours; [`Comparator`] decides
//! whether a new output is compatible with the reference one.

use sp_hep::hist_io;
use sp_hep::HistogramSet;
use sp_store::{HashingWriter, ObjectId};

/// The output of one validation test, in one of the paper's flavours.
#[derive(Debug, Clone, PartialEq)]
pub enum TestOutput {
    /// A simple yes/no.
    YesNo(bool),
    /// An exit code.
    ExitCode(i32),
    /// A text file (log, cut-flow table).
    Text(String),
    /// A vector of named numbers (counters, means).
    Numbers(Vec<(String, f64)>),
    /// A set of histograms ("a histogram, a root file").
    Histograms(HistogramSet),
}

impl TestOutput {
    /// Core serialiser: emits the deterministic byte encoding piecewise, so
    /// the same code path feeds a buffer ([`encode_into`](Self::encode_into)),
    /// a buffer-plus-digest tee ([`encode_and_digest`](Self::encode_and_digest))
    /// or a digest-only stream ([`digest`](Self::digest)).
    fn encode_with(&self, emit: &mut dyn FnMut(&[u8])) {
        match self {
            TestOutput::YesNo(b) => {
                emit(&[b'Y', *b as u8]);
            }
            TestOutput::ExitCode(c) => {
                emit(b"E");
                emit(&c.to_le_bytes());
            }
            TestOutput::Text(t) => {
                emit(b"T");
                emit(t.as_bytes());
            }
            TestOutput::Numbers(ns) => {
                emit(b"N");
                for (name, value) in ns {
                    let name = clamp_number_name(name);
                    emit(&(name.len() as u16).to_le_bytes());
                    emit(name.as_bytes());
                    emit(&value.to_le_bytes());
                }
            }
            TestOutput::Histograms(set) => {
                emit(b"H");
                hist_io::encode_set_with(set, emit);
            }
        }
    }

    /// Serialises the output for the common storage. Deterministic, so
    /// identical outputs deduplicate to identical object ids.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.encoded_size_hint());
        self.encode_into(&mut v);
        v
    }

    /// Appends the encoding to `out` without allocating a fresh buffer —
    /// the reusable-scratch counterpart of [`to_bytes`](Self::to_bytes).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_size_hint());
        self.encode_with(&mut |bytes| out.extend_from_slice(bytes));
    }

    /// Serialises into `out` (clearing it first) and returns the content
    /// address: one traversal of the output structure with no intermediate
    /// buffers (histograms stream field-wise straight into `out`), then a
    /// single contiguous hash pass — and callers hand the id to
    /// `put_named_prehashed`, so the store never re-hashes the bytes.
    pub fn encode_and_digest(&self, out: &mut Vec<u8>) -> ObjectId {
        out.clear();
        self.encode_into(out);
        ObjectId::for_bytes(out)
    }

    /// The content address of the encoded output, streamed straight into
    /// the hasher — no encoding buffer is materialised, for histograms
    /// included. Equal digests mean bit-identical encodings, so this is
    /// the value the digest-first comparison fast paths key on.
    pub fn digest(&self) -> ObjectId {
        let mut writer = HashingWriter::digest_only();
        self.encode_with(&mut |bytes| writer.write(bytes));
        ObjectId(writer.finish())
    }

    /// Rough encoded size, used to pre-reserve buffers.
    fn encoded_size_hint(&self) -> usize {
        match self {
            TestOutput::YesNo(_) => 2,
            TestOutput::ExitCode(_) => 5,
            TestOutput::Text(t) => 1 + t.len(),
            TestOutput::Numbers(ns) => {
                1 + ns.iter().map(|(name, _)| 10 + name.len()).sum::<usize>()
            }
            TestOutput::Histograms(set) => 16 + set.len() * 512,
        }
    }

    /// Deserialises an output written by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(data: &[u8]) -> Option<TestOutput> {
        let (&tag, rest) = data.split_first()?;
        match tag {
            b'Y' => Some(TestOutput::YesNo(*rest.first()? != 0)),
            b'E' => Some(TestOutput::ExitCode(i32::from_le_bytes(
                rest.try_into().ok()?,
            ))),
            // Validate UTF-8 in place; only the final String copies.
            b'T' => Some(TestOutput::Text(std::str::from_utf8(rest).ok()?.to_owned())),
            b'N' => {
                let mut ns = Vec::new();
                let mut cur = rest;
                while !cur.is_empty() {
                    if cur.len() < 2 {
                        return None;
                    }
                    let len = u16::from_le_bytes([cur[0], cur[1]]) as usize;
                    cur = &cur[2..];
                    if cur.len() < len + 8 {
                        return None;
                    }
                    let name = std::str::from_utf8(&cur[..len]).ok()?.to_owned();
                    let value = f64::from_le_bytes(cur[len..len + 8].try_into().ok()?);
                    ns.push((name, value));
                    cur = &cur[len + 8..];
                }
                Some(TestOutput::Numbers(ns))
            }
            b'H' => hist_io::decode_set(rest).ok().map(TestOutput::Histograms),
            _ => None,
        }
    }
}

/// Guards the `u16` length prefix of a `Numbers` entry name: a name longer
/// than 65535 bytes cannot be represented and previously truncated the
/// *prefix* silently, corrupting the whole record. Debug builds assert;
/// release builds saturate to the longest valid UTF-8 prefix so the record
/// stays decodable.
fn clamp_number_name(name: &str) -> &str {
    const MAX: usize = u16::MAX as usize;
    if name.len() <= MAX {
        return name;
    }
    debug_assert!(
        name.len() <= MAX,
        "Numbers entry name exceeds the u16 length prefix ({} bytes)",
        name.len()
    );
    let mut end = MAX;
    while !name.is_char_boundary(end) {
        end -= 1;
    }
    &name[..end]
}

/// How to compare a test output against its reference.
#[derive(Debug, Clone, PartialEq)]
pub enum Comparator {
    /// Both must be the same yes/no or exit code (bitwise equality of the
    /// output value).
    Exact,
    /// Text comparison ignoring lines containing any of the given markers
    /// (timestamps, hostnames).
    TextDiff {
        /// Substrings marking lines to ignore.
        ignore_markers: Vec<String>,
    },
    /// Named numbers must agree within relative and absolute tolerance.
    Numeric {
        /// Relative tolerance.
        rel_tol: f64,
        /// Absolute tolerance.
        abs_tol: f64,
    },
    /// Histogram sets must be statistically compatible: worst-histogram χ²
    /// p-value at least `min_p_value`.
    HistogramChi2 {
        /// Minimum acceptable p-value.
        min_p_value: f64,
    },
}

impl Comparator {
    /// The standard comparator for a given output flavour.
    pub fn default_for(output: &TestOutput) -> Comparator {
        match output {
            TestOutput::YesNo(_) | TestOutput::ExitCode(_) => Comparator::Exact,
            TestOutput::Text(_) => Comparator::TextDiff {
                ignore_markers: vec!["timestamp".into(), "host".into(), "date".into()],
            },
            TestOutput::Numbers(_) => Comparator::Numeric {
                rel_tol: 1e-9,
                abs_tol: 1e-12,
            },
            TestOutput::Histograms(_) => Comparator::HistogramChi2 { min_p_value: 0.01 },
        }
    }

    /// Digest-first fast path: two outputs whose *content addresses* are
    /// equal are bit-identical, so every comparator — `Exact`, `TextDiff`,
    /// `Numeric`, `HistogramChi2` — would return
    /// [`CompareOutcome::Identical`] without either side being decoded
    /// (for histograms this skips the `hist_io` decode and the χ² sweep
    /// entirely). Returns `None` when the digests differ and a full
    /// [`compare`](Self::compare) over the decoded outputs is required.
    pub fn compare_by_id(&self, new: ObjectId, reference: ObjectId) -> Option<CompareOutcome> {
        (new == reference).then_some(CompareOutcome::Identical)
    }

    /// Compares `new` against `reference`.
    pub fn compare(&self, new: &TestOutput, reference: &TestOutput) -> CompareOutcome {
        match (self, new, reference) {
            (Comparator::Exact, a, b) => {
                if a == b {
                    CompareOutcome::Identical
                } else {
                    CompareOutcome::Differs {
                        detail: format!("outputs differ: {a:?} vs {b:?}"),
                    }
                }
            }
            (Comparator::TextDiff { ignore_markers }, TestOutput::Text(a), TestOutput::Text(b)) => {
                compare_text(a, b, ignore_markers)
            }
            (
                Comparator::Numeric { rel_tol, abs_tol },
                TestOutput::Numbers(a),
                TestOutput::Numbers(b),
            ) => compare_numbers(a, b, *rel_tol, *abs_tol),
            (
                Comparator::HistogramChi2 { min_p_value },
                TestOutput::Histograms(a),
                TestOutput::Histograms(b),
            ) => compare_histograms(a, b, *min_p_value),
            _ => CompareOutcome::Differs {
                detail: "output type changed between runs".to_string(),
            },
        }
    }
}

/// The verdict of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum CompareOutcome {
    /// Bit-identical.
    Identical,
    /// Not identical but within tolerance (p-value or numeric slack).
    WithinTolerance {
        /// Quantitative summary (`worst p = 0.43`).
        detail: String,
    },
    /// Incompatible.
    Differs {
        /// What differed.
        detail: String,
    },
}

impl CompareOutcome {
    /// Whether the comparison passed.
    pub fn passed(&self) -> bool {
        !matches!(self, CompareOutcome::Differs { .. })
    }
}

fn relevant_lines<'a>(text: &'a str, ignore: &[String]) -> Vec<&'a str> {
    text.lines()
        .filter(|line| {
            !ignore
                .iter()
                .any(|m| line.to_lowercase().contains(&m.to_lowercase()))
        })
        .collect()
}

fn compare_text(a: &str, b: &str, ignore: &[String]) -> CompareOutcome {
    if a == b {
        return CompareOutcome::Identical;
    }
    let la = relevant_lines(a, ignore);
    let lb = relevant_lines(b, ignore);
    if la == lb {
        return CompareOutcome::WithinTolerance {
            detail: "differs only in ignored lines".to_string(),
        };
    }
    // First differing line for the report.
    let first_diff = la
        .iter()
        .zip(lb.iter())
        .position(|(x, y)| x != y)
        .map(|i| format!("line {}: '{}' vs '{}'", i + 1, la[i], lb[i]))
        .unwrap_or_else(|| format!("line counts differ: {} vs {}", la.len(), lb.len()));
    CompareOutcome::Differs { detail: first_diff }
}

fn compare_numbers(
    a: &[(String, f64)],
    b: &[(String, f64)],
    rel_tol: f64,
    abs_tol: f64,
) -> CompareOutcome {
    if a.len() != b.len() || a.iter().zip(b).any(|((n1, _), (n2, _))| n1 != n2) {
        return CompareOutcome::Differs {
            detail: "the set of reported numbers changed".to_string(),
        };
    }
    let mut identical = true;
    for ((name, x), (_, y)) in a.iter().zip(b) {
        if x.to_bits() != y.to_bits() {
            identical = false;
        }
        let diff = (x - y).abs();
        let scale = x.abs().max(y.abs());
        if diff > abs_tol && diff > rel_tol * scale {
            return CompareOutcome::Differs {
                detail: format!("'{name}': {x} vs {y} (|Δ| = {diff:.3e})"),
            };
        }
    }
    if identical {
        CompareOutcome::Identical
    } else {
        CompareOutcome::WithinTolerance {
            detail: "numeric agreement within tolerance".to_string(),
        }
    }
}

fn compare_histograms(a: &HistogramSet, b: &HistogramSet, min_p: f64) -> CompareOutcome {
    if a == b {
        return CompareOutcome::Identical;
    }
    if a.names() != b.names() {
        return CompareOutcome::Differs {
            detail: format!(
                "histogram sets differ in content: {:?} vs {:?}",
                a.names(),
                b.names()
            ),
        };
    }
    // Report the worst histogram by p-value.
    let mut worst: Option<(String, f64)> = None;
    for hist in a.iter() {
        let reference = b.get(hist.name()).expect("same names");
        let p = hist.chi2_test(reference).map(|r| r.p_value).unwrap_or(0.0);
        if worst.as_ref().map(|(_, wp)| p < *wp).unwrap_or(true) {
            worst = Some((hist.name().to_string(), p));
        }
    }
    match worst {
        Some((name, p)) if p < min_p => CompareOutcome::Differs {
            detail: format!("histogram '{name}' incompatible: chi2 p = {p:.3e} < {min_p}"),
        },
        Some((name, p)) => CompareOutcome::WithinTolerance {
            detail: format!("worst histogram '{name}': chi2 p = {p:.3}"),
        },
        None => CompareOutcome::Identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_hep::Histogram1D;

    #[test]
    fn output_round_trips() {
        let mut hist = Histogram1D::new("h", 5, 0.0, 5.0);
        hist.fill(2.5);
        let outputs = [
            TestOutput::YesNo(true),
            TestOutput::ExitCode(-11),
            TestOutput::Text("selected 42 events\n".into()),
            TestOutput::Numbers(vec![("mean_q2".into(), 123.456), ("eff".into(), 0.31)]),
            TestOutput::Histograms([hist].into_iter().collect()),
        ];
        for out in outputs {
            let bytes = out.to_bytes();
            assert_eq!(TestOutput::from_bytes(&bytes), Some(out));
        }
    }

    #[test]
    fn encode_into_and_digest_match_to_bytes() {
        let mut hist = Histogram1D::new("h", 5, 0.0, 5.0);
        hist.fill(1.0);
        let outputs = [
            TestOutput::YesNo(false),
            TestOutput::ExitCode(7),
            TestOutput::Text("log line\n".into()),
            TestOutput::Numbers(vec![("x".into(), 1.5)]),
            TestOutput::Histograms([hist].into_iter().collect()),
        ];
        let mut scratch = Vec::new();
        for out in outputs {
            let bytes = out.to_bytes();
            scratch.clear();
            out.encode_into(&mut scratch);
            assert_eq!(scratch, bytes, "encode_into agrees with to_bytes");
            let id = out.encode_and_digest(&mut scratch);
            assert_eq!(
                scratch, bytes,
                "encode_and_digest materialises the encoding"
            );
            assert_eq!(
                id,
                ObjectId::for_bytes(&bytes),
                "teed digest is the content address"
            );
            assert_eq!(out.digest(), id, "streaming digest agrees");
        }
    }

    #[test]
    fn numbers_name_length_boundary_round_trips() {
        // Exactly 65535 bytes: the largest representable name.
        let name = "n".repeat(u16::MAX as usize);
        let out = TestOutput::Numbers(vec![(name.clone(), 2.75)]);
        let bytes = out.to_bytes();
        let decoded = TestOutput::from_bytes(&bytes).expect("boundary name decodes");
        assert_eq!(decoded, out);
        assert_eq!(out.digest(), ObjectId::for_bytes(&bytes));
    }

    /// The saturating guard only applies in release builds (debug builds
    /// assert instead): an over-long name is truncated to the longest
    /// valid UTF-8 prefix and the record stays decodable.
    #[cfg(not(debug_assertions))]
    #[test]
    fn numbers_name_over_limit_saturates() {
        // 65534 ASCII bytes + one 3-byte char straddling the limit: the
        // clamp must back up to the char boundary at 65534.
        let mut name = "a".repeat(u16::MAX as usize - 1);
        name.push('€');
        let out = TestOutput::Numbers(vec![(name, 1.0)]);
        let decoded = TestOutput::from_bytes(&out.to_bytes()).expect("record stays decodable");
        let TestOutput::Numbers(ns) = decoded else {
            panic!("flavour preserved");
        };
        assert_eq!(ns[0].0.len(), u16::MAX as usize - 1);
        assert_eq!(ns[0].1, 1.0);
    }

    #[test]
    fn compare_by_id_short_circuits_equal_digests() {
        let a = TestOutput::Numbers(vec![("x".into(), 1.0)]);
        let b = TestOutput::Numbers(vec![("x".into(), 2.0)]);
        for comparator in [
            Comparator::Exact,
            Comparator::Numeric {
                rel_tol: 1e-9,
                abs_tol: 1e-12,
            },
            Comparator::HistogramChi2 { min_p_value: 0.01 },
        ] {
            assert_eq!(
                comparator.compare_by_id(a.digest(), a.digest()),
                Some(CompareOutcome::Identical)
            );
            assert_eq!(comparator.compare_by_id(a.digest(), b.digest()), None);
        }
    }

    #[test]
    fn exact_comparator() {
        let c = Comparator::Exact;
        assert_eq!(
            c.compare(&TestOutput::YesNo(true), &TestOutput::YesNo(true)),
            CompareOutcome::Identical
        );
        assert!(!c
            .compare(&TestOutput::ExitCode(0), &TestOutput::ExitCode(1))
            .passed());
    }

    #[test]
    fn text_diff_ignores_markers() {
        let c = Comparator::TextDiff {
            ignore_markers: vec!["timestamp".into()],
        };
        let a = TestOutput::Text("events: 42\ntimestamp: 100\n".into());
        let b = TestOutput::Text("events: 42\ntimestamp: 999\n".into());
        assert!(matches!(
            c.compare(&a, &b),
            CompareOutcome::WithinTolerance { .. }
        ));
        let c2 = TestOutput::Text("events: 43\ntimestamp: 100\n".into());
        let outcome = c.compare(&a, &c2);
        assert!(!outcome.passed());
        if let CompareOutcome::Differs { detail } = outcome {
            assert!(detail.contains("42"), "diff should show the line: {detail}");
        }
    }

    #[test]
    fn numeric_tolerances() {
        let c = Comparator::Numeric {
            rel_tol: 1e-6,
            abs_tol: 1e-9,
        };
        let a = TestOutput::Numbers(vec![("x".into(), 1.0)]);
        let close = TestOutput::Numbers(vec![("x".into(), 1.0 + 1e-9)]);
        let far = TestOutput::Numbers(vec![("x".into(), 1.001)]);
        assert_eq!(c.compare(&a, &a), CompareOutcome::Identical);
        assert!(matches!(
            c.compare(&a, &close),
            CompareOutcome::WithinTolerance { .. }
        ));
        assert!(!c.compare(&a, &far).passed());
    }

    #[test]
    fn numeric_name_changes_are_failures() {
        let c = Comparator::Numeric {
            rel_tol: 1e-6,
            abs_tol: 1e-9,
        };
        let a = TestOutput::Numbers(vec![("x".into(), 1.0)]);
        let renamed = TestOutput::Numbers(vec![("y".into(), 1.0)]);
        assert!(!c.compare(&a, &renamed).passed());
    }

    #[test]
    fn histogram_comparator() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let fill = |name: &str, seed: u64, mean: f64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut h = Histogram1D::new(name, 40, -10.0, 20.0);
            for _ in 0..4000 {
                h.fill(sp_hep::rng::normal(&mut rng, mean, 2.0));
            }
            h
        };
        let c = Comparator::HistogramChi2 { min_p_value: 0.01 };
        let a = TestOutput::Histograms([fill("q2", 1, 5.0)].into_iter().collect());
        let same = TestOutput::Histograms([fill("q2", 2, 5.0)].into_iter().collect());
        let shifted = TestOutput::Histograms([fill("q2", 3, 6.5)].into_iter().collect());
        assert!(c.compare(&a, &same).passed());
        assert!(!c.compare(&a, &shifted).passed());
        assert_eq!(c.compare(&a, &a), CompareOutcome::Identical);
    }

    #[test]
    fn type_change_is_failure() {
        let c = Comparator::Exact;
        assert!(!c
            .compare(&TestOutput::YesNo(true), &TestOutput::ExitCode(0))
            .passed());
        let c = Comparator::Numeric {
            rel_tol: 0.1,
            abs_tol: 0.1,
        };
        assert!(!c
            .compare(&TestOutput::Text("x".into()), &TestOutput::Numbers(vec![]))
            .passed());
    }

    #[test]
    fn default_comparators() {
        assert_eq!(
            Comparator::default_for(&TestOutput::YesNo(true)),
            Comparator::Exact
        );
        assert!(matches!(
            Comparator::default_for(&TestOutput::Histograms(HistogramSet::new())),
            Comparator::HistogramChi2 { .. }
        ));
    }
}
