//! Diagnostics: what the analyzer reports and how.
//!
//! Each diagnostic carries a stable code (for tooling and the
//! experiment harness), a severity, the source span, and — because the
//! engine explores *all* executions — an optional description of the
//! execution path on which the problem arises ("when `$STEAMROOT`
//! expands to the empty string…"). Witnesses are what make
//! semantics-driven findings actionable where syntactic lint findings
//! are noise (§2).

use crate::provenance::Provenance;
use shoal_shparse::Span;
use std::fmt;

/// Stable diagnostic codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DiagCode {
    /// A deletion may hit `/` or everything under it (Figs. 1, 3).
    DangerousDelete,
    /// A command's precondition is unsatisfiable on some path — it
    /// always fails there (§4 `rm $1; cat $1/config`).
    AlwaysFails,
    /// A pipeline stage's output language is empty (Fig. 5).
    DeadPipe,
    /// A stage's input type violates its bound (`sort -g` on words).
    StreamTypeMismatch,
    /// A variable may be unset/empty where that changes meaning.
    MaybeEmptyExpansion,
    /// Behavior depends on the platform (§5 "Correctness").
    PlatformDependent,
    /// The same path is created and deleted inconsistently across a
    /// path (idempotence-style trouble, §4 "Incorrectness criteria").
    IdempotenceRisk,
    /// The engine hit an exploration limit; results are incomplete.
    AnalysisIncomplete,
    /// A `verify` policy violation (§5 "Security").
    PolicyViolation,
    /// A region of the script failed to parse and was skipped by error
    /// recovery; findings cover only the statements that parsed.
    ParsePartial,
}

impl DiagCode {
    /// All codes, in a fixed order (SARIF rule table, docs).
    pub fn all() -> &'static [DiagCode] {
        &[
            DiagCode::DangerousDelete,
            DiagCode::AlwaysFails,
            DiagCode::DeadPipe,
            DiagCode::StreamTypeMismatch,
            DiagCode::MaybeEmptyExpansion,
            DiagCode::PlatformDependent,
            DiagCode::IdempotenceRisk,
            DiagCode::AnalysisIncomplete,
            DiagCode::PolicyViolation,
            DiagCode::ParsePartial,
        ]
    }

    /// One-line rule description (SARIF `shortDescription`).
    pub fn summary(self) -> &'static str {
        match self {
            DiagCode::DangerousDelete => {
                "a deletion may hit / or everything under it on some execution"
            }
            DiagCode::AlwaysFails => {
                "a command's precondition is unsatisfiable on some path — it always fails there"
            }
            DiagCode::DeadPipe => "a pipeline stage's output language is empty",
            DiagCode::StreamTypeMismatch => "a stage's input type violates its bound",
            DiagCode::MaybeEmptyExpansion => {
                "a variable may be unset or empty where that changes meaning"
            }
            DiagCode::PlatformDependent => "behavior depends on the platform",
            DiagCode::IdempotenceRisk => {
                "re-running the script behaves differently from the first run"
            }
            DiagCode::AnalysisIncomplete => {
                "the engine hit an exploration limit; results are incomplete"
            }
            DiagCode::PolicyViolation => "a verify policy violation",
            DiagCode::ParsePartial => {
                "a region failed to parse and was skipped; findings cover only the parsed part"
            }
        }
    }

    /// Stable machine-readable name (what `Display` prints).
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::DangerousDelete => "dangerous-delete",
            DiagCode::AlwaysFails => "always-fails",
            DiagCode::DeadPipe => "dead-pipe",
            DiagCode::StreamTypeMismatch => "stream-type-mismatch",
            DiagCode::MaybeEmptyExpansion => "maybe-empty-expansion",
            DiagCode::PlatformDependent => "platform-dependent",
            DiagCode::IdempotenceRisk => "idempotence-risk",
            DiagCode::AnalysisIncomplete => "analysis-incomplete",
            DiagCode::PolicyViolation => "policy-violation",
            DiagCode::ParsePartial => "parse-partial",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational (e.g. analysis limits).
    Note,
    /// Likely a bug on some executions.
    Warning,
    /// Catastrophic or certain on some executions.
    Error,
}

impl Severity {
    /// Stable machine-readable name (what `Display` prints).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: DiagCode,
    /// Severity.
    pub severity: Severity,
    /// Where in the script.
    pub span: Span,
    /// What is wrong.
    pub message: String,
    /// For [`DiagCode::AnalysisIncomplete`]: which exploration bound was
    /// hit, machine-readable (`None` for non-cap incompleteness such as
    /// `eval` or malformed annotations).
    pub cap_reason: Option<crate::stats::CapReason>,
    /// Structured witness: the world that saw the problem and its typed
    /// constraint trail ([`crate::provenance`]). `None` for findings
    /// that are not tied to a particular execution.
    pub provenance: Option<Provenance>,
    /// Which checker or command spec fired (e.g. `"checker:delete"`,
    /// `"spec:mkdir"`).
    pub origin: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic with an empty path description.
    pub fn new(code: DiagCode, severity: Severity, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity,
            span,
            message: message.into(),
            cap_reason: None,
            provenance: None,
            origin: None,
        }
    }

    /// The execution path on which the finding happens, as flat
    /// condition strings. Derived on demand from the structured
    /// [`Provenance`] trail (the trail is shared with the witness world;
    /// no second copy is stored on the diagnostic).
    pub fn path_condition(&self) -> Vec<String> {
        self.provenance
            .as_ref()
            .map(|p| p.trail.iter().map(|t| t.what.clone()).collect())
            .unwrap_or_default()
    }

    /// Tags the diagnostic with the exploration bound that caused it.
    pub fn with_cap(mut self, reason: crate::stats::CapReason) -> Self {
        self.cap_reason = Some(reason);
        self
    }

    /// Tags the diagnostic with the checker/spec that produced it.
    pub fn with_origin(mut self, origin: impl Into<String>) -> Self {
        self.origin = Some(origin.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} [{}] {}",
            self.span, self.severity, self.code, self.message
        )?;
        if let Some(reason) = self.cap_reason {
            write!(
                f,
                " [analysis-incomplete: {} at line {}]",
                reason.as_str(),
                self.span.line
            )?;
        }
        let path_condition = self.path_condition();
        if !path_condition.is_empty() {
            write!(
                f,
                "\n    on the path where {}",
                path_condition.join(" and ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_path() {
        use crate::provenance::{TrailEntry, TrailKind};
        let mut d = Diagnostic::new(
            DiagCode::DangerousDelete,
            Severity::Error,
            Span::new(0, 10, 4),
            "rm -fr may delete everything under /",
        );
        d.provenance = Some(Provenance {
            world: 0,
            trail: [TrailEntry::new(
                TrailKind::Assumption,
                Span::new(0, 0, 0),
                "$STEAMROOT = \"\"",
            )]
            .into_iter()
            .collect(),
        });
        let text = d.to_string();
        assert!(text.contains("line 4"));
        assert!(text.contains("dangerous-delete"));
        assert!(text.contains("$STEAMROOT"));
    }

    #[test]
    fn display_renders_cap_reason() {
        let d = Diagnostic::new(
            DiagCode::AnalysisIncomplete,
            Severity::Note,
            Span::new(0, 5, 7),
            "exploration capped; dropping 3 world(s)",
        )
        .with_cap(crate::stats::CapReason::MaxWorlds);
        let text = d.to_string();
        assert!(
            text.contains("[analysis-incomplete: max_worlds at line 7]"),
            "cap reason must be visible in text output, got: {text}"
        );
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }
}
