//! Human-readable provenance report: compile phases, the schedule decision
//! log, and per-statement counter tables.

use crate::{Decision, TraceSink};
use std::fmt::Write as _;

/// One compact line describing a decision, e.g.
/// `[auto_fuse] fuse(#3, #7): rejected — fusing would reverse a dependence
/// on `y` (#5 -> #9) [Raw y #5->#9 @Independent certain]`.
pub fn decision_line(d: &Decision) -> String {
    let mut line = String::new();
    if let Some(pass) = &d.pass {
        let _ = write!(line, "[{pass}] ");
    }
    let _ = write!(line, "{}{}: {}", d.primitive, d.args, d.verdict);
    if let Some(reason) = &d.reason {
        let _ = write!(line, " — {reason}");
    }
    for dep in &d.deps {
        let _ = write!(line, " [{dep}]");
    }
    line
}

/// Render everything a sink collected as a plain-text report.
pub fn provenance_report(sink: &TraceSink) -> String {
    let mut out = String::new();
    let events = sink.events();
    if !events.is_empty() {
        out.push_str("== Compilation phases ==\n");
        let mut sorted = events;
        sorted.sort_by(|a, b| a.ts_us.cmp(&b.ts_us).then(b.dur_us.cmp(&a.dur_us)));
        for ev in &sorted {
            let _ = writeln!(
                out,
                "  {:>8} us  {:>8} us  [{}] {}",
                ev.ts_us, ev.dur_us, ev.cat, ev.name
            );
        }
    }
    let decisions = sink.decisions();
    if !decisions.is_empty() {
        let applied = decisions
            .iter()
            .filter(|d| d.verdict == crate::Verdict::Applied)
            .count();
        let _ = writeln!(
            out,
            "\n== Schedule decision log ({} attempts, {} applied, {} rejected) ==",
            decisions.len(),
            applied,
            decisions.len() - applied
        );
        for d in &decisions {
            let _ = writeln!(out, "  {}", decision_line(d));
        }
    }
    for p in &sink.profiles() {
        let _ = writeln!(out, "\n== Per-statement profile: {} ==", p.func);
        let _ = writeln!(
            out,
            "  {:<40} {:>12} {:>14} {:>14} {:>14}",
            "statement", "flops", "dram bytes", "l2 bytes", "cycles"
        );
        for n in &p.nodes {
            let depth = {
                let mut d = 0;
                let mut cur = n.parent;
                while let Some(i) = cur {
                    d += 1;
                    cur = p.nodes[i].parent;
                }
                d
            };
            let label = format!("{}{}", "  ".repeat(depth), n.desc);
            let _ = writeln!(
                out,
                "  {:<40} {:>12} {:>14} {:>14} {:>14.0}",
                label, n.counters.flops, n.counters.dram_bytes, n.counters.l2_bytes, n.counters.cycles
            );
        }
        let t = p.totals();
        let _ = writeln!(
            out,
            "  {:<40} {:>12} {:>14} {:>14} {:>14.0}",
            "TOTAL", t.flops, t.dram_bytes, t.l2_bytes, t.cycles
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Verdict;
    use ft_analysis::{Carrier, DepKind, FoundDep};
    use ft_ir::StmtId;

    #[test]
    fn decision_line_includes_structured_dep() {
        let d = Decision {
            pass: Some("auto_parallelize".to_string()),
            primitive: "parallelize".to_string(),
            args: "(\"i\", OpenMp)".to_string(),
            verdict: Verdict::Rejected,
            reason: Some("loop carries a dependence".to_string()),
            deps: vec![FoundDep {
                kind: DepKind::Waw,
                var: "y".to_string(),
                source: StmtId(5),
                sink: StmtId(5),
                carrier: Carrier::Loop(StmtId(3)),
                certain: true,
            }],
            ts_us: 0,
        };
        let line = decision_line(&d);
        assert!(line.contains("[auto_parallelize]"), "{line}");
        assert!(line.contains("parallelize(\"i\", OpenMp): rejected"), "{line}");
        assert!(line.contains("Waw `y` #5 -> #5 @loop #3 certain"), "{line}");
        assert!(!line.contains("##"), "{line}");
    }
}
