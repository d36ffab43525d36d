//! Parameterized script generators for the performance experiments
//! (E9): how analysis time and explored states grow with script size
//! and shape. §4 names the central challenge: "track the file system's
//! state with sufficient precision … while avoiding exponential
//! explosion in complexity for realistically sized programs."

/// A straight-line script of `n` file-manipulation commands over a
/// rolling set of paths (no branching: one execution path).
pub fn straight_line(n: usize) -> String {
    let mut out = String::from("#!/bin/sh\n");
    for i in 0..n {
        match i % 5 {
            0 => out.push_str(&format!("mkdir -p /data/d{i}\n")),
            1 => out.push_str(&format!("touch /data/d{}/f\n", i - 1)),
            2 => out.push_str(&format!("cat /data/d{}/f\n", i - 2)),
            3 => out.push_str(&format!("cp /data/d{}/f /data/copy{i}\n", i - 3)),
            _ => out.push_str(&format!("rm -f /data/copy{}\n", i - 1)),
        }
    }
    out
}

/// A script with `k` sequential two-way branches that all test the
/// *same* symbolic value: with concrete pruning (§3), the first fork
/// decides the rest and path count stays constant; without it, the
/// worst case is 2ᵏ. This is the E9 ablation workload.
pub fn branchy(k: usize) -> String {
    let mut out = String::from("#!/bin/sh\n");
    for i in 0..k {
        out.push_str(&format!(
            "if [ \"$1\" = \"on\" ]; then\n    echo on{i}\nelse\n    echo off{i}\nfi\n"
        ));
    }
    out
}

/// Like [`branchy`] but every branch tests an independent variable:
/// 2ᵏ genuine paths regardless of pruning (the exponential baseline).
pub fn branchy_independent(k: usize) -> String {
    let mut out = String::from("#!/bin/sh\n");
    for i in 0..k {
        let n = i + 1;
        out.push_str(&format!(
            "if [ \"${n}\" = \"on\" ]; then\n    echo on{i}\nelse\n    echo off{i}\nfi\n"
        ));
    }
    out
}

/// A single pipeline of `n` filter stages (stream-typing cost).
pub fn wide_pipeline(n: usize) -> String {
    let mut out = String::from("cat /data/input");
    for i in 0..n {
        match i % 4 {
            0 => out.push_str(" | grep x"),
            1 => out.push_str(" | sort"),
            2 => out.push_str(" | uniq"),
            _ => out.push_str(" | head -n 100"),
        }
    }
    out.push('\n');
    out
}

/// A script of `n` loops, each bounded, for loop-unrolling cost.
pub fn loopy(n: usize) -> String {
    let mut out = String::from("#!/bin/sh\n");
    for i in 0..n {
        out.push_str(&format!(
            "for x in a b c; do\n    echo \"$x\" >> /log/l{i}\ndone\n"
        ));
    }
    out
}

/// The first `n` scripts of the seed-1 labeled corpus (40 per class)
/// as one script: the shape of a long real script, with command
/// substitutions, multi-stage pipelines and functions run on many live
/// worlds.
pub fn concatenation(n: usize) -> String {
    let mut out = String::from("#!/bin/sh\n");
    for s in crate::generate_corpus(40, 1).iter().take(n) {
        for line in s.script.lines().filter(|l| !l.starts_with("#!")) {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use shoal_shparse::parse_script;

    #[test]
    fn generators_parse_at_size() {
        for n in [0, 1, 10, 100] {
            parse_script(&straight_line(n)).unwrap();
            parse_script(&wide_pipeline(n)).unwrap();
            parse_script(&loopy(n.min(20))).unwrap();
        }
        for k in [0, 1, 5, 10] {
            parse_script(&branchy(k)).unwrap();
        }
    }

    #[test]
    fn sizes_scale_linearly() {
        let small = straight_line(10).lines().count();
        let large = straight_line(100).lines().count();
        assert_eq!(large - 1, (small - 1) * 10);
    }
}
