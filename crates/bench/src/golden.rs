//! The byte-identity harness behind the `goldencheck` bin.
//!
//! A [`Group`] is a registry of named [`Case`]s, run in order. Every case
//! renders deterministic text (report JSON, serving summaries, sweep
//! tables) from fixed seeds, and the harness owns every step that compares
//! it:
//!
//! * a [`Case::golden`] renders twice and requires identical bytes,
//!   validates the JSON, then compares with its committed file under
//!   `crates/bench/golden/` (or rewrites the file under `--capture`);
//! * a [`Case::twin`] renders a reference run and requires every variant
//!   run (another schedule, engine or instrumentation setting) to
//!   reproduce it byte-for-byte;
//! * a [`Case::check`] runs assertions that pin no bytes (smoke runs,
//!   schema keys, crash recovery) and panics on a violation. Checks run
//!   under `--capture` too.
//!
//! Every mismatch goes through one reporter (`first_diff`): byte offset,
//! line and column, ±40 bytes of context on both sides, and which side
//! ends first when one is a prefix of the other.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::json::validate;
use crate::{ArgSpec, BenchArgs};

/// A deterministic renderer: one fixed-seed scenario → its text.
pub type Render = fn() -> String;

/// One named case of a [`Group`]; build it with [`Case::golden`],
/// [`Case::twin`] or [`Case::check`].
pub struct Case {
    name: &'static str,
    kind: Kind,
}

enum Kind {
    Golden { file: &'static str, render: Render },
    Twin(&'static [(&'static str, Render)]),
    Check(Render),
}

impl Case {
    /// A document (one JSON value, or JSON Lines) pinned by the committed
    /// file `crates/bench/golden/<file>`.
    pub const fn golden(name: &'static str, file: &'static str, render: Render) -> Case {
        Case {
            name,
            kind: Kind::Golden { file, render },
        }
    }

    /// Runs that must agree byte-for-byte: the first `(label, render)` is
    /// the reference, each later one a variant compared against it.
    pub const fn twin(name: &'static str, runs: &'static [(&'static str, Render)]) -> Case {
        assert!(runs.len() >= 2, "a twin needs a reference and a variant");
        Case {
            name,
            kind: Kind::Twin(runs),
        }
    }

    /// Assertions that pin no bytes: `run` panics on a violation and
    /// returns a one-line summary otherwise.
    pub const fn check(name: &'static str, run: Render) -> Case {
        Case {
            name,
            kind: Kind::Check(run),
        }
    }

    /// Run the case; `Ok` carries a one-line summary.
    fn run(&self, what: &str, capture: bool) -> Result<String, String> {
        match self.kind {
            Kind::Golden { file, render } => {
                let doc = render();
                same(what, "first run", &doc, "rerun", &render())?;
                validate_doc(&doc).map_err(|e| format!("{what}: not valid JSON: {e}"))?;
                let path = golden_path(file);
                if capture {
                    std::fs::write(&path, &doc)
                        .map_err(|e| format!("{what}: cannot write {}: {e}", path.display()))?;
                    return Ok(format!("captured {} B to {}", doc.len(), path.display()));
                }
                let want = std::fs::read_to_string(&path).map_err(|e| {
                    format!(
                        "{what}: cannot read {}: {e} (regenerate deliberately with --capture)",
                        path.display()
                    )
                })?;
                same(what, "golden", &want, "got", &doc)?;
                Ok(format!("{} B byte-identical to golden/{file}", doc.len()))
            }
            Kind::Twin(runs) => {
                let (ref_label, reference) = runs[0];
                let want = reference();
                validate_doc(&want).map_err(|e| format!("{what}: not valid JSON: {e}"))?;
                for &(label, run) in &runs[1..] {
                    same(what, ref_label, &want, label, &run())?;
                }
                let variants: Vec<&str> = runs[1..].iter().map(|r| r.0).collect();
                Ok(format!(
                    "{} byte-identical to {ref_label} ({} B)",
                    variants.join(", "),
                    want.len()
                ))
            }
            Kind::Check(run) => Ok(run()),
        }
    }
}

/// A named, ordered list of cases: one `scripts/check.sh` gate.
pub struct Group {
    /// The `--group` name.
    pub name: &'static str,
    /// Cases in run order. Cases that fork (fleet mode) must come after
    /// every case that spawns simulation threads has returned.
    pub cases: &'static [Case],
}

/// Where two documents first differ.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Diff {
    /// Byte offset of the first difference (or of the shorter side's end).
    offset: usize,
    /// 1-based line of `offset`.
    line: usize,
    /// 1-based byte column of `offset` within its line.
    column: usize,
    /// Length of the expected document.
    want_len: usize,
    /// Length of the produced document.
    got_len: usize,
}

/// Find the first difference between `want` and `got`, or `None` when the
/// two are byte-identical.
fn first_diff(want: &str, got: &str) -> Option<Diff> {
    if want == got {
        return None;
    }
    let offset = want
        .bytes()
        .zip(got.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(want.len().min(got.len()));
    let before = &want.as_bytes()[..offset];
    let line_start = before
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    Some(Diff {
        offset,
        line: 1 + before.iter().filter(|&&b| b == b'\n').count(),
        column: 1 + offset - line_start,
        want_len: want.len(),
        got_len: got.len(),
    })
}

impl Diff {
    /// Multi-line report naming the two sides: position, ±40 bytes of
    /// context from each, and a length mismatch when one side is a prefix
    /// of the other.
    fn describe(&self, want_label: &str, want: &str, got_label: &str, got: &str) -> String {
        let ctx = |s: &str| {
            let lo = self.offset.saturating_sub(40).min(s.len());
            let hi = (self.offset + 40).min(s.len());
            format!("{:?}", String::from_utf8_lossy(&s.as_bytes()[lo..hi]))
        };
        let w = want_label.len().max(got_label.len());
        let mut out = format!(
            "first difference at byte {} (line {}, column {})\n  {want_label:>w$}: {}\n  {got_label:>w$}: {}",
            self.offset,
            self.line,
            self.column,
            ctx(want),
            ctx(got)
        );
        if self.offset == self.want_len.min(self.got_len) {
            let (short, long) = if self.got_len < self.want_len {
                (got_label, want_label)
            } else {
                (want_label, got_label)
            };
            let _ = write!(
                out,
                "\n  length mismatch: {short} is a strict prefix of {long} ({} vs {} bytes)",
                self.want_len.min(self.got_len),
                self.want_len.max(self.got_len)
            );
        }
        out
    }
}

/// Path of a committed golden file, independent of the working directory.
fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(file)
}

/// Accept one JSON value, or JSON Lines (one value per line).
fn validate_doc(doc: &str) -> Result<(), String> {
    if validate(doc).is_ok() {
        return Ok(());
    }
    for (i, line) in doc.lines().enumerate() {
        validate(line).map_err(|e| format!("line {}: {e}", i + 1))?;
    }
    Ok(())
}

/// Require `want == got`, else describe the first difference.
fn same(
    what: &str,
    want_label: &str,
    want: &str,
    got_label: &str,
    got: &str,
) -> Result<(), String> {
    match first_diff(want, got) {
        None => Ok(()),
        Some(d) => Err(format!(
            "{what}: {got_label} differs from {want_label}\n{}",
            d.describe(want_label, want, got_label, got)
        )),
    }
}

/// Run every case of `group` in order, printing one line per case; stops
/// at the first failure.
fn run_group(group: &Group, capture: bool) -> Result<(), String> {
    for case in group.cases {
        let what = format!("{}/{}", group.name, case.name);
        let summary = case.run(&what, capture)?;
        println!("goldencheck: {what}: {summary}");
    }
    Ok(())
}

/// Command-line surface of `goldencheck`.
const SPEC: ArgSpec = ArgSpec {
    bin: "goldencheck",
    flags: &["--capture"],
    options: &["--group"],
};

/// Entry point of `goldencheck`: run the group named by `--group`, or all
/// of them in order; `--capture` rewrites the golden files. Exits nonzero
/// on the first failure.
pub fn main(groups: &[Group]) {
    let args = BenchArgs::from_env(&SPEC);
    let only = args.value("--group");
    if let Some(g) = only.filter(|g| !groups.iter().any(|x| x.name == *g)) {
        let names: Vec<&str> = groups.iter().map(|x| x.name).collect();
        eprintln!(
            "goldencheck: unknown group {g:?} (one of {})",
            names.join("|")
        );
        std::process::exit(2);
    }
    for group in groups.iter().filter(|g| only.is_none_or(|o| o == g.name)) {
        if let Err(e) = run_group(group, args.flag("--capture")) {
            eprintln!("goldencheck: FAIL: {e}");
            std::process::exit(1);
        }
    }
    println!("goldencheck: all checks passed");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_inputs_have_no_diff() {
        assert_eq!(first_diff("", ""), None);
        assert_eq!(first_diff("{\"a\":1}\n", "{\"a\":1}\n"), None);
    }

    #[test]
    fn difference_at_byte_zero() {
        let d = first_diff("abc", "xbc").unwrap();
        assert_eq!((d.offset, d.line, d.column), (0, 1, 1));
        let text = d.describe("golden", "abc", "got", "xbc");
        assert!(text.contains("byte 0 (line 1, column 1)"), "{text}");
        assert!(text.contains("golden: \"abc\""), "{text}");
        assert!(text.contains("   got: \"xbc\""), "{text}");
        assert!(!text.contains("prefix"), "{text}");
    }

    #[test]
    fn difference_mid_line_on_a_later_line() {
        let want = "row one\nrow two\nrow three is long\n";
        let got = "row one\nrow two\nrow thr3e is long\n";
        let d = first_diff(want, got).unwrap();
        assert_eq!(d.offset, 16 + 7);
        assert_eq!((d.line, d.column), (3, 8));
        let text = d.describe("golden", want, "got", got);
        assert!(text.contains("byte 23 (line 3, column 8)"), "{text}");
        // The context spans the earlier lines, newlines escaped.
        assert!(
            text.contains("\"row one\\nrow two\\nrow three is long\\n\""),
            "{text}"
        );
    }

    #[test]
    fn context_is_clipped_to_forty_bytes_each_side() {
        let want = format!("{}A{}", "x".repeat(100), "y".repeat(100));
        let got = format!("{}B{}", "x".repeat(100), "y".repeat(100));
        let d = first_diff(&want, &got).unwrap();
        assert_eq!(d.offset, 100);
        let text = d.describe("want", &want, "got", &got);
        let expect = format!("{}A{}", "x".repeat(40), "y".repeat(39));
        assert!(text.contains(&format!("want: \"{expect}\"")), "{text}");
    }

    #[test]
    fn got_a_strict_prefix_of_want() {
        let want = "{\"a\":1}\n{\"b\":2}\n";
        let got = "{\"a\":1}\n";
        let d = first_diff(want, got).unwrap();
        assert_eq!((d.offset, d.line, d.column), (8, 2, 1));
        assert_eq!((d.want_len, d.got_len), (16, 8));
        let text = d.describe("golden", want, "got", got);
        assert!(
            text.contains("length mismatch: got is a strict prefix of golden (8 vs 16 bytes)"),
            "{text}"
        );
    }

    #[test]
    fn want_a_strict_prefix_of_got_is_a_trailing_extra_row() {
        let want = "{\"a\":1}\n";
        let got = "{\"a\":1}\n{\"extra\":3}\n";
        let d = first_diff(want, got).unwrap();
        assert_eq!((d.offset, d.line, d.column), (8, 2, 1));
        let text = d.describe("golden", want, "got", got);
        assert!(
            text.contains("length mismatch: golden is a strict prefix of got (8 vs 20 bytes)"),
            "{text}"
        );
        assert!(
            text.contains("got: \"{\\\"a\\\":1}\\n{\\\"extra\\\":3}\\n\""),
            "{text}"
        );
    }

    #[test]
    fn documents_are_one_json_value_or_json_lines() {
        assert!(validate_doc("{\n  \"a\": [1, 2]\n}\n").is_ok());
        assert!(validate_doc("{\"a\":1}\n{\"b\":2}\n").is_ok());
        assert_eq!(
            validate_doc("{\"a\":1}\n{\"b\":\n"),
            Err("line 2: ".to_string() + &validate("{\"b\":").unwrap_err())
        );
    }

    #[test]
    fn golden_path_ignores_the_working_directory() {
        let p = golden_path("batch_golden.json");
        assert!(p.is_absolute());
        assert!(p.ends_with("golden/batch_golden.json"));
        assert!(p.exists(), "{}", p.display());
    }
}
