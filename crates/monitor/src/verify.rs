//! The `verify` policy checker (§5 "Security").
//!
//! The paper's motivating use:
//!
//! ```text
//! curl sw.com/up.sh | verify --no-RW ~/mine | sh
//! ```
//!
//! A [`Policy`] protects path prefixes from reads and/or writes.
//! [`verify_script`] statically walks the script's commands, classifies
//! every file-system access against the policy via the spec library, and
//! reports:
//!
//! * **definite violations** — a literal path under a protected prefix
//!   is read/written/deleted;
//! * **possible violations** — a symbolic path (or glob) *could* land
//!   under a protected prefix; these are the residual obligations that
//!   §5 says "leverage the guard and monitor generation … to fill gaps";
//! * **conclusiveness** — whether every access was classified
//!   definitely, i.e. the static verdict covers all executions.

use shoal_shparse::{parse_script, Command, ListItem, ParseError, Script, Span, Word};
use shoal_spec::hoare::{operand_indices, Effect};
use shoal_spec::SpecLibrary;

/// A protection policy over path prefixes.
#[derive(Debug, Clone, Default)]
pub struct Policy {
    /// Prefixes that must not be read.
    pub no_read: Vec<String>,
    /// Prefixes that must not be written (created/deleted/modified).
    pub no_write: Vec<String>,
}

impl Policy {
    /// `--no-RW prefix`: protect from both reads and writes.
    pub fn no_rw(prefix: &str) -> Policy {
        Policy {
            no_read: vec![prefix.to_string()],
            no_write: vec![prefix.to_string()],
        }
    }

    /// Is a literal path under a protected read prefix?
    fn read_protected(&self, path: &str) -> bool {
        self.no_read.iter().any(|p| is_under(p, path))
    }

    fn write_protected(&self, path: &str) -> bool {
        self.no_write.iter().any(|p| is_under(p, path))
    }
}

fn is_under(prefix: &str, path: &str) -> bool {
    let prefix = prefix.trim_end_matches('/');
    let norm = shoal_symfs::normalize_lexical(path);
    norm == prefix || (norm.starts_with(prefix) && norm.as_bytes().get(prefix.len()) == Some(&b'/'))
}

/// How certain a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certainty {
    /// Violation on every execution reaching the command.
    Definite,
    /// The access target is not statically known; it may violate.
    Possible,
}

/// One policy finding.
#[derive(Debug, Clone)]
pub struct PolicyFinding {
    /// Where.
    pub span: Span,
    /// The offending command (pretty-printed name + argument).
    pub what: String,
    /// `"read"` or `"write"`.
    pub access: &'static str,
    /// Which protected prefix.
    pub prefix: String,
    /// Definite or possible.
    pub certainty: Certainty,
}

/// The outcome of verification.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// All findings.
    pub findings: Vec<PolicyFinding>,
    /// Commands whose targets could not be classified at all (unknown
    /// commands, dynamic names) — each needs runtime containment.
    pub unclassified: Vec<(Span, String)>,
    /// Total file-system-relevant commands inspected.
    pub commands_checked: usize,
}

impl VerifyReport {
    /// True when no finding and nothing unclassified: the script
    /// *provably* respects the policy.
    pub fn conclusively_safe(&self) -> bool {
        self.findings.is_empty() && self.unclassified.is_empty()
    }

    /// Definite violations only.
    pub fn definite(&self) -> Vec<&PolicyFinding> {
        self.findings
            .iter()
            .filter(|f| f.certainty == Certainty::Definite)
            .collect()
    }
}

/// Verifies a parsed script against a policy.
pub fn verify_script(script: &Script, policy: &Policy, specs: &SpecLibrary) -> VerifyReport {
    let mut report = VerifyReport::default();
    // Charged, not timed by a phase timer, so relang timers inside
    // still charge.
    let t_verify = std::time::Instant::now();
    visit_items(&script.items, policy, specs, &mut report);
    shoal_obs::trace::phase_add("verify", t_verify.elapsed().as_micros() as u64);
    shoal_obs::counter_add("verify.runs", 1);
    shoal_obs::counter_add("verify.commands_checked", report.commands_checked as u64);
    shoal_obs::counter_add("verify.findings", report.findings.len() as u64);
    shoal_obs::counter_add("verify.unclassified", report.unclassified.len() as u64);
    shoal_obs::event!(
        "verify",
        commands_checked = report.commands_checked,
        findings = report.findings.len(),
        unclassified = report.unclassified.len(),
        safe = report.conclusively_safe()
    );
    report
}

/// Parses and verifies shell source.
///
/// # Errors
///
/// Returns the parse error for invalid source.
pub fn verify_source(
    src: &str,
    policy: &Policy,
    specs: &SpecLibrary,
) -> Result<VerifyReport, ParseError> {
    Ok(verify_script(&parse_script(src)?, policy, specs))
}

fn visit_items(
    items: &[ListItem],
    policy: &Policy,
    specs: &SpecLibrary,
    report: &mut VerifyReport,
) {
    for item in items {
        let mut pipes = vec![&item.and_or.first];
        pipes.extend(item.and_or.rest.iter().map(|(_, p)| p));
        for p in pipes {
            for c in &p.commands {
                visit_command(c, policy, specs, report);
            }
        }
    }
}

fn visit_command(cmd: &Command, policy: &Policy, specs: &SpecLibrary, report: &mut VerifyReport) {
    match cmd {
        Command::Simple(sc) => {
            // Redirections write their targets.
            for r in &sc.redirects {
                use shoal_shparse::RedirOp::*;
                let access = match r.op {
                    Out | Append | Clobber | ReadWrite => Some("write"),
                    In => Some("read"),
                    _ => None,
                };
                if let Some(access) = access {
                    check_target(&r.target, access, r.span, "redirection", policy, report);
                }
            }
            if sc.words.is_empty() {
                // A bare assignment touches no files.
                return;
            }
            let Some(name) = sc.name_literal() else {
                report
                    .unclassified
                    .push((sc.span, "dynamically-named command".to_string()));
                return;
            };
            if name == "cd" || name == "echo" || name == "test" || name == "[" {
                return;
            }
            let Some(spec) = specs.get(&name) else {
                // Unknown command with path-looking args: unclassified.
                report.unclassified.push((sc.span, name));
                return;
            };
            report.commands_checked += 1;
            // Reconstruct the invocation over literal args; symbolic args
            // become placeholders that classify as operands.
            let args: Vec<String> = sc.words[1..]
                .iter()
                .map(|w| w.as_literal().unwrap_or_else(|| "\u{1}dyn".to_string()))
                .collect();
            let Ok(inv) = spec.syntax.classify(&args) else {
                report
                    .unclassified
                    .push((sc.span, format!("{name} (unusual invocation)")));
                return;
            };
            let mut reads = Vec::new();
            let mut writes = Vec::new();
            for case in spec.applicable(&inv) {
                for e in &case.effects {
                    match e {
                        Effect::Reads(m) => reads.push(*m),
                        Effect::Writes(m)
                        | Effect::Deletes(m)
                        | Effect::DeletesChildren(m)
                        | Effect::CreatesFile(m)
                        | Effect::CreatesDir(m)
                        | Effect::CreatesDirChain(m) => writes.push(*m),
                        Effect::CopiesTo { src, dst } => {
                            reads.push(*src);
                            writes.push(*dst);
                        }
                        Effect::MovesTo { src, dst } => {
                            writes.push(*src);
                            writes.push(*dst);
                        }
                        _ => {}
                    }
                }
            }
            for (markers, access) in [(&reads, "read"), (&writes, "write")] {
                for &m in markers.iter() {
                    for idx in operand_indices(m, inv.operands.len()) {
                        let Some(op) = inv.operands.get(idx) else {
                            continue;
                        };
                        let span = sc.span;
                        if op.contains('\u{1}') {
                            // Symbolic target: possible violation of every
                            // protected prefix.
                            for prefix in protected(policy, access) {
                                push_unique(
                                    report,
                                    PolicyFinding {
                                        span,
                                        what: format!("{name} ⟨dynamic path⟩"),
                                        access,
                                        prefix: prefix.clone(),
                                        certainty: Certainty::Possible,
                                    },
                                );
                            }
                            continue;
                        }
                        let violated = match access {
                            "read" => policy.read_protected(op),
                            _ => policy.write_protected(op),
                        };
                        if violated {
                            let prefix = protected(policy, access)
                                .iter()
                                .find(|p| is_under(p, op))
                                .cloned()
                                .unwrap_or_default();
                            push_unique(
                                report,
                                PolicyFinding {
                                    span,
                                    what: format!("{name} {op}"),
                                    access,
                                    prefix,
                                    certainty: Certainty::Definite,
                                },
                            );
                        }
                    }
                }
            }
        }
        Command::BraceGroup(items, _, _) | Command::Subshell(items, _, _) => {
            visit_items(items, policy, specs, report)
        }
        Command::If(c, _, _) => {
            visit_items(&c.cond, policy, specs, report);
            visit_items(&c.then_body, policy, specs, report);
            for (cc, bb) in &c.elifs {
                visit_items(cc, policy, specs, report);
                visit_items(bb, policy, specs, report);
            }
            if let Some(e) = &c.else_body {
                visit_items(e, policy, specs, report);
            }
        }
        Command::While(c, _, _) | Command::Until(c, _, _) => {
            visit_items(&c.cond, policy, specs, report);
            visit_items(&c.body, policy, specs, report);
        }
        Command::For(c, _, _) => visit_items(&c.body, policy, specs, report),
        Command::Case(c, _, _) => {
            for arm in &c.arms {
                visit_items(&arm.body, policy, specs, report);
            }
        }
        Command::FunctionDef { body, .. } => visit_command(body, policy, specs, report),
    }
}

fn check_target(
    word: &Word,
    access: &'static str,
    span: Span,
    what: &str,
    policy: &Policy,
    report: &mut VerifyReport,
) {
    match word.as_literal() {
        Some(path) => {
            let violated = match access {
                "read" => policy.read_protected(&path),
                _ => policy.write_protected(&path),
            };
            if violated {
                let prefix = protected(policy, access)
                    .iter()
                    .find(|p| is_under(p, &path))
                    .cloned()
                    .unwrap_or_default();
                push_unique(
                    report,
                    PolicyFinding {
                        span,
                        what: format!("{what} {path}"),
                        access,
                        prefix,
                        certainty: Certainty::Definite,
                    },
                );
            }
        }
        None => {
            for prefix in protected(policy, access) {
                push_unique(
                    report,
                    PolicyFinding {
                        span,
                        what: format!("{what} ⟨dynamic path⟩"),
                        access,
                        prefix: prefix.clone(),
                        certainty: Certainty::Possible,
                    },
                );
            }
        }
    }
}

fn protected<'a>(policy: &'a Policy, access: &str) -> &'a [String] {
    match access {
        "read" => &policy.no_read,
        _ => &policy.no_write,
    }
}

fn push_unique(report: &mut VerifyReport, finding: PolicyFinding) {
    let dup = report.findings.iter().any(|f| {
        f.span.line == finding.span.line
            && f.access == finding.access
            && f.what == finding.what
            && f.prefix == finding.prefix
    });
    if !dup {
        report.findings.push(finding);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> SpecLibrary {
        SpecLibrary::builtin()
    }

    #[test]
    fn clean_installer_is_conclusively_safe() {
        let src = "mkdir -p /opt/app\ntouch /opt/app/installed\ncat /opt/app/installed\n";
        let r = verify_source(src, &Policy::no_rw("/home/me/mine"), &specs()).unwrap();
        assert!(r.conclusively_safe(), "{:?}", r.findings);
        assert!(r.commands_checked >= 3);
    }

    #[test]
    fn definite_write_violation() {
        let src = "rm -rf /home/me/mine/docs\n";
        let r = verify_source(src, &Policy::no_rw("/home/me/mine"), &specs()).unwrap();
        assert_eq!(r.definite().len(), 1);
        assert_eq!(r.definite()[0].access, "write");
    }

    #[test]
    fn definite_read_violation() {
        let src = "cat /home/me/mine/secrets.txt\n";
        let r = verify_source(src, &Policy::no_rw("/home/me/mine"), &specs()).unwrap();
        assert!(r.definite().iter().any(|f| f.access == "read"));
    }

    #[test]
    fn sibling_paths_do_not_violate() {
        let src = "cat /home/me/mineral.txt\nrm /home/me/mine2\n";
        let r = verify_source(src, &Policy::no_rw("/home/me/mine"), &specs()).unwrap();
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn normalization_catches_dot_dot() {
        let src = "rm /tmp/../home/me/mine/f\n";
        let r = verify_source(src, &Policy::no_rw("/home/me/mine"), &specs()).unwrap();
        assert_eq!(r.definite().len(), 1);
    }

    #[test]
    fn symbolic_target_is_possible() {
        let src = "rm -rf \"$1\"\n";
        let r = verify_source(src, &Policy::no_rw("/home/me/mine"), &specs()).unwrap();
        assert!(r
            .findings
            .iter()
            .any(|f| f.certainty == Certainty::Possible));
        assert!(!r.conclusively_safe());
    }

    #[test]
    fn unknown_commands_are_unclassified() {
        let src = "./install.bin --target /somewhere\n";
        let r = verify_source(src, &Policy::no_rw("/home/me/mine"), &specs()).unwrap();
        assert!(!r.unclassified.is_empty());
        assert!(!r.conclusively_safe());
    }

    #[test]
    fn redirections_checked() {
        let src = "echo pwned > /home/me/mine/log\n";
        let r = verify_source(src, &Policy::no_rw("/home/me/mine"), &specs()).unwrap();
        assert_eq!(r.definite().len(), 1);
    }

    #[test]
    fn branches_are_visited() {
        let src = "if true; then rm -rf /home/me/mine; fi\n";
        let r = verify_source(src, &Policy::no_rw("/home/me/mine"), &specs()).unwrap();
        assert_eq!(r.definite().len(), 1);
    }
}
